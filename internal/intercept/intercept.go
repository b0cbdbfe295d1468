// Package intercept implements the domain-aware device-API interception
// layer (§2, §3.1, §4): every device call the training worker makes passes
// through it, which is what enables hang detection, steady-state replay
// logging, virtual handles, and transparent error masking — all without the
// "application" (the training loop) changing or even noticing.
//
// Responsibilities, mapped to the paper:
//
//   - Virtual handles (§4.2): the application receives virtual Buf / Stream
//     / Event / Comm handles. After recovery re-creates GPU objects, the
//     virtual handles are remapped to the new physical handles; the
//     handles stored in application variables keep working.
//
//   - Watchdog hang detection (§3.1): the layer identifies the NCCL stream
//     (the stream collectives are issued on), tracks cudaEvents recorded on
//     it that have StreamWaitEvents waiting on them, and polls them with
//     EventQuery from a watchdog process started at the first intercepted
//     StreamWaitEvent. An event pending longer than the hang timeout, or a
//     blocking call that never returns, raises a fault.
//
//   - Replay logging (§4.1): in transparent mode, every state-mutating call
//     is recorded with its inputs; the log is cleared at each minibatch
//     boundary via StartMinibatch.
//
//   - Fault gate (§4.2): in transparent mode, infrastructure errors
//     (sticky, driver-corrupt, network, proxy-down) are never surfaced to
//     the application. The calling thread parks at the interception layer
//     until the recovery controller finishes, then the call is retried
//     against the recovered state.
//
//   - Checkpoint-time memcpy rerouting (§3.2): while checkpoint mode is
//     active, MemcpyD2H calls are rerouted from the (possibly wedged)
//     default stream to a private fresh stream.
package intercept

import (
	"errors"
	"fmt"

	"jitckpt/internal/cuda"
	"jitckpt/internal/dense"
	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/proxy"
	"jitckpt/internal/replay"
	"jitckpt/internal/tensor"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// Mode selects which solution the layer supports.
type Mode int

const (
	// ModeUserLevel (§3): hang detection and checkpoint support only.
	// Errors surface to the application; no replay logging (near-zero
	// steady-state overhead).
	ModeUserLevel Mode = iota
	// ModeTransparent (§4): full replay logging, error masking, virtual
	// handle remapping.
	ModeTransparent
)

// FaultKind classifies a detected fault.
type FaultKind int

const (
	// FaultHang means a watched collective or blocking call stopped making
	// progress.
	FaultHang FaultKind = iota
	// FaultError means a device API returned an infrastructure error.
	FaultError
)

// Fault describes a detected failure, delivered to the OnFault callback.
type Fault struct {
	Kind FaultKind
	Err  error
	Iter int
	// InOptimizerStep reports whether the worker was inside the optimizer
	// step when the fault was detected — the §4.2.2 case where state must
	// roll forward to the next minibatch instead of back.
	InOptimizerStep bool
}

// Config configures an interception layer.
type Config struct {
	Mode Mode
	// HangTimeout is how long a watched event or blocking call may pend
	// before it is declared hung (default 30 s).
	HangTimeout vclock.Time
	// OnFault is invoked exactly once per fault episode, with the
	// simulation process that detected the fault (the watchdog process
	// for hangs, the calling thread for API errors). What it may do
	// depends on the mode. In transparent mode it must not block: it
	// signals the recovery controller and returns, and for a watchdog
	// fault it runs inside the watchdog's callback step (vclock.Env.GoFunc),
	// where a blocking call panics naming the process. In user-level mode
	// it may block in p to take its checkpoint (§3.2 runs the save inside
	// the watchdog thread): the watchdog becomes a coroutine for it
	// (vclock.Proc.Become) and ends when it returns. A user-level
	// watchdog ends at its layer's fault either way: after an API error's
	// OnFault, at its next poll.
	OnFault func(p *vclock.Proc, f Fault)
	// LogReplay enables replay logging (defaults on in transparent mode).
	LogReplay bool
}

// Layer is the interception layer for one worker rank.
type Layer struct {
	// The 22 typed cuda.API methods, each packing its arguments into a
	// cuda.Call for Do.
	cuda.Adapter

	env   *vclock.Env
	inner cuda.API
	cfg   Config
	name  string

	log *replay.Log

	// handles is the virtual -> physical handle table; next holds the next
	// virtual handle per handle space; spare is what a launch's buffers are
	// translated into, nil while a launch holds it.
	handles *cuda.Handles
	next    [cuda.CommHandle + 1]int
	spare   []cuda.Buf

	// Virtual buffer metadata: the layer owns tag sequence numbering so
	// checkpoint tensor names stay identical across replicas and across
	// re-allocations during recovery (§4.3).
	bufMeta map[cuda.Buf]cuda.BufInfo
	tagSeq  map[string]int

	// Watchdog state.
	ncclStreams  map[cuda.Stream]bool     // virtual streams collectives run on
	eventsOnNCCL map[cuda.Event]bool      // events last recorded on an NCCL stream
	watch        dense.Table[vclock.Time] // the watch-list: virtual event -> when it joined
	watched      []cuda.Event             // WatchedEvents' slice
	watchdogProc *vclock.Proc
	inflight     map[*vclock.Proc]vclock.Time // calling thread -> when its blocking call began

	// Fault/recovery state.
	faultRaised bool
	inRecovery  bool
	gate        *vclock.Event
	iter        int
	inOptimizer bool
	ignoreMut   bool

	// Checkpoint mode: reroute D2H copies away from wedged streams.
	ckptMode   bool
	ckptStream cuda.Stream // physical; 0 = not yet created
}

var _ cuda.API = (*Layer)(nil)

// New creates an interception layer wrapping inner.
func New(env *vclock.Env, inner cuda.API, name string, cfg Config) *Layer {
	if cfg.HangTimeout <= 0 {
		cfg.HangTimeout = 30 * vclock.Second
	}
	if cfg.Mode == ModeTransparent {
		cfg.LogReplay = true
	}
	l := &Layer{
		env:          env,
		inner:        inner,
		cfg:          cfg,
		name:         name,
		log:          replay.NewLog(),
		handles:      cuda.NewHandles(),
		next:         [...]int{cuda.BufHandle: 1, cuda.StreamHandle: 1, cuda.EventHandle: 1, cuda.CommHandle: 1},
		bufMeta:      make(map[cuda.Buf]cuda.BufInfo),
		tagSeq:       make(map[string]int),
		ncclStreams:  make(map[cuda.Stream]bool),
		eventsOnNCCL: make(map[cuda.Event]bool),
		inflight:     make(map[*vclock.Proc]vclock.Time),
	}
	l.Adapter = cuda.Adapt(l)
	return l
}

// SetOnFault installs the fault callback after construction (the
// user-level library wires its handler once the worker objects exist).
func (l *Layer) SetOnFault(fn func(p *vclock.Proc, f Fault)) { l.cfg.OnFault = fn }

// SetInner repoints the layer at a different device API. The hard-error
// migration path uses it after attaching the worker to a replacement GPU
// (§4.3): parked application threads retry their calls against the new
// API. Only call between BeginRecovery and EndRecovery.
func (l *Layer) SetInner(api cuda.API) { l.inner = api }

// Log returns the replay log.
func (l *Layer) Log() *replay.Log { return l.log }

// Iter returns the current minibatch iteration.
func (l *Layer) Iter() int { return l.iter }

// StartMinibatch marks a minibatch boundary: the replay log rolls over and
// any "ignore mutations" state from an optimizer-step recovery ends.
func (l *Layer) StartMinibatch(iter int) {
	l.iter = iter
	l.inOptimizer = false
	l.ignoreMut = false
	if l.cfg.LogReplay {
		l.log.StartMinibatch(iter)
	}
}

// PreOptimizerStep is the framework hook marking optimizer-step entry
// (§4.2.2): it tells the layer which recovery path applies to faults from
// here until PostOptimizerStep.
func (l *Layer) PreOptimizerStep() { l.inOptimizer = true }

// PostOptimizerStep marks optimizer-step exit.
func (l *Layer) PostOptimizerStep() { l.inOptimizer = false }

// IgnoreMutationsUntilNextMinibatch makes the layer swallow state-mutating
// calls (returning success) until StartMinibatch. The §4.2.2 recovery uses
// it: after rolling a failed rank forward to next-minibatch state copied
// from a replica, the remaining optimizer-step device calls of the current
// minibatch must not re-modify parameters.
func (l *Layer) IgnoreMutationsUntilNextMinibatch() { l.ignoreMut = true }

// EnterCheckpointMode reroutes subsequent MemcpyD2H calls to a private
// fresh stream (§3.2). It is safe to call while the default stream is
// wedged.
func (l *Layer) EnterCheckpointMode(p *vclock.Proc) error {
	l.ckptMode = true
	if l.ckptStream == 0 {
		s, err := l.inner.StreamCreate(p)
		if err != nil {
			return err
		}
		l.ckptStream = s
	}
	return nil
}

// ExitCheckpointMode restores normal memcpy routing.
func (l *Layer) ExitCheckpointMode() { l.ckptMode = false }

// VirtualBufs returns all live virtual buffer handles in creation order: the
// application-visible truth, stable across recoveries.
func (l *Layer) VirtualBufs() []cuda.BufInfo {
	out := make([]cuda.BufInfo, 0, len(l.bufMeta))
	for h := cuda.Buf(1); int(h) < l.next[cuda.BufHandle]; h++ {
		if m, ok := l.bufMeta[h]; ok {
			out = append(out, m)
		}
	}
	return out
}

// Handles returns the layer's virtual -> physical handle table. The
// recovery controller replays into a Clone of it and hands that to
// EndRecovery, so a failed attempt leaves the layer's mappings untouched.
func (l *Layer) Handles() *cuda.Handles { return l.handles }

// BufData is the privileged zero-time buffer read, lifted through the
// interception layer: the virtual handle is translated and the read is
// delegated to the wrapped API when it supports one (cuda.Driver does).
// The peer-replication path uses it to capture post-optimizer state at a
// minibatch boundary without issuing stream work, so the streaming of that
// state to peer CPU memory can overlap the next minibatch (§3.1's
// interception transparency extended to the shelter tier). Like
// cuda.Driver.BufData it returns a view of device memory, valid until the
// caller next yields.
func (l *Layer) BufData(b cuda.Buf) (tensor.Vector, error) {
	pb, ok := cuda.Lookup(l.handles, cuda.BufHandle, b)
	if !ok {
		return nil, fmt.Errorf("%w: virtual buf %d", cuda.ErrBadHandle, b)
	}
	type peeker interface {
		BufData(b cuda.Buf) (tensor.Vector, error)
	}
	in, ok := l.inner.(peeker)
	if !ok {
		return nil, fmt.Errorf("intercept: wrapped API %T has no privileged buffer read", l.inner)
	}
	return in.BufData(pb)
}

// isInfraFault classifies errors the transparent mode must mask.
func isInfraFault(err error) bool {
	return errors.Is(err, gpu.ErrSticky) ||
		errors.Is(err, gpu.ErrCorrupt) ||
		errors.Is(err, gpu.ErrDeviceLost) ||
		errors.Is(err, nccl.ErrNetwork) ||
		errors.Is(err, proxy.ErrProxyDown)
}

// raiseFault reports a fault once per episode.
func (l *Layer) raiseFault(p *vclock.Proc, kind FaultKind, err error) {
	if l.faultRaised {
		return
	}
	l.faultRaised = true
	trace.Of(l.env).Instant(p.Now(), "dog", trace.LaneSim, "fault",
		"layer", l.name, "kind", int(kind), "err", err, "iter", l.iter, "opt", l.inOptimizer)
	if l.cfg.OnFault != nil {
		l.cfg.OnFault(p, Fault{Kind: kind, Err: err, Iter: l.iter, InOptimizerStep: l.inOptimizer})
	}
}

// BeginRecovery closes the gate: application threads entering (or
// retrying) calls park until EndRecovery.
func (l *Layer) BeginRecovery() {
	l.inRecovery = true
	if l.gate == nil || l.gate.Triggered() {
		l.gate = l.env.NewEvent(l.name + ".recovery-gate")
	}
}

// EndRecovery adopts tr — a Clone of Handles that recovery replay re-bound
// to the re-created objects' physical handles — clears watchdog and fault
// state, and releases parked threads.
func (l *Layer) EndRecovery(tr *cuda.Handles) {
	l.handles = tr
	l.watch = dense.Table[vclock.Time]{}
	l.inflight = make(map[*vclock.Proc]vclock.Time)
	l.ckptStream = 0 // private stream may be gone after a proxy restart
	l.faultRaised = false
	l.inRecovery = false
	if l.gate != nil {
		l.gate.Trigger()
	}
}

// parkWhileRecovering blocks p while a recovery is in progress.
func (l *Layer) parkWhileRecovering(p *vclock.Proc) {
	for l.inRecovery {
		p.Wait(l.gate)
	}
}

// Do implements cuda.API: the one path every intercepted call takes.
// Transparent-mode fault masking: an infrastructure error raises a fault,
// the thread parks until the controller finishes recovery, then the call
// retries against the recovered state. In user-level mode errors pass
// through (the user script sees the exception, §3). While the §4.2.2
// ignore window is active, mutating calls are swallowed (returning
// success); queries still execute.
func (l *Layer) Do(p *vclock.Proc, c cuda.Call) (cuda.Result, error) {
	info := c.Op.Info()
	for {
		l.parkWhileRecovering(p)
		if l.ignoreMut && info.Mutating {
			return cuda.Result{}, nil
		}
		res, err := l.issue(p, &c, info)
		if err == nil || !isInfraFault(err) {
			return res, err
		}
		l.raiseFault(p, FaultError, err)
		if l.cfg.Mode == ModeUserLevel {
			return res, err
		}
		l.waitRecovered(p)
	}
}

// issue translates c's virtual handles, runs it against the wrapped API
// (watchdog-tracked when the op table says so), and on success applies the
// op's effect on layer state and records it in the replay log.
func (l *Layer) issue(p *vclock.Proc, c *cuda.Call, info cuda.OpInfo) (cuda.Result, error) {
	phys := *c
	var spare []cuda.Buf
	if c.Op == cuda.OpLaunch {
		spare, l.spare = l.spare, nil // a launch on another thread meanwhile gets its own
	}
	if err := l.handles.Translate(&phys, spare); err != nil {
		return cuda.Result{}, err
	}
	if c.Op == cuda.OpMemcpyD2H && l.ckptMode && l.ckptStream != 0 {
		// §3.2: a checkpoint-time copy must not queue behind a
		// StreamWaitEvent on a hung collective.
		phys.Stream = l.ckptStream
	}
	if info.Tracked {
		l.inflight[p] = p.Now()
	}
	res, err := l.inner.Do(p, phys)
	if info.Tracked {
		delete(l.inflight, p)
	}
	if c.Op == cuda.OpLaunch {
		l.spare = phys.Launch.Bufs[:0] // the callee has resolved or copied them
	}
	if err != nil || !info.Mutating {
		return res, err
	}

	created := 0 // the virtual handle a creation op hands the application
	switch {
	case info.Creates != cuda.NoHandle:
		created = l.next[info.Creates]
		l.next[info.Creates]++
		l.handles.Bind(info.Creates, created, res.Handle)
		res.Handle = created
		if c.Op == cuda.OpMalloc {
			// The layer assigns the (tag, seq) tensor name so it is stable
			// across replicas and across re-allocations in recovery (§4.3).
			virt := cuda.Buf(created)
			l.bufMeta[virt] = cuda.BufInfo{Handle: virt, Bytes: c.Bytes, Elems: c.Elems, Tag: c.Tag, Seq: l.tagSeq[c.Tag]}
			l.tagSeq[c.Tag]++
		}
	case info.Destroys != cuda.NoHandle:
		l.handles.Unbind(info.Destroys, c.Handle(info.Destroys))
		switch c.Op {
		case cuda.OpFree:
			delete(l.bufMeta, c.Buf)
		case cuda.OpStreamDestroy:
			delete(l.ncclStreams, c.Stream)
		case cuda.OpEventDestroy:
			l.watch.Delete(int(c.Event))
		}
	}
	if l.cfg.LogReplay && !l.ignoreMut {
		// The log outlives this call: capture the argument slices, which
		// callers are free to reuse for their next call.
		l.log.Record(c, created)
	}
	switch c.Op {
	case cuda.OpStreamWaitEvent:
		l.noteStreamWaitEvent(c.Event)
	case cuda.OpEventRecord:
		l.noteEventRecord(c.Event, c.Stream)
	case cuda.OpAllReduce, cuda.OpAllGather, cuda.OpReduceScatter, cuda.OpSend, cuda.OpRecv:
		l.ncclStreams[c.Stream] = true // §3.1: collectives identify the NCCL stream
	}
	return res, nil
}

// waitRecovered parks until a recovery that was (or is about to be)
// triggered by a raised fault completes.
func (l *Layer) waitRecovered(p *vclock.Proc) {
	for l.faultRaised || l.inRecovery {
		if l.inRecovery {
			p.Wait(l.gate)
			continue
		}
		// Fault raised but controller hasn't begun recovery yet: yield.
		p.Sleep(vclock.Millisecond)
	}
}
