// Package nccl implements the collective-communication substrate the
// training framework runs on: communicators created through a rendezvous,
// and collectives (AllReduce, AllGather, ReduceScatter, Send, Recv) that
// execute as stream operations with barrier semantics.
//
// Two properties of real NCCL are load-bearing for the paper and are
// reproduced exactly:
//
//   - A collective is a barrier: no rank's operation completes until every
//     rank in the communicator has entered it. This is what guarantees that
//     when any rank fails before its optimizer step, every healthy replica
//     is still holding the unmodified parameter and optimizer state of the
//     current minibatch (§4.2).
//
//   - If a participant never arrives — because its GPU failed or the
//     network dropped — the collective hangs forever on every other rank.
//     Hangs, not errors, are the failure signal the watchdog detects (§3.1).
//
// Collectives do real arithmetic on buffer contents (summation in a fixed
// rank order for determinism), so recovered training runs can be compared
// bit for bit against failure-free runs.
package nccl

import (
	"errors"
	"fmt"

	"jitckpt/internal/gpu"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// Errors returned by communicator operations.
var (
	ErrNetwork      = errors.New("nccl: network error")
	ErrCommDead     = errors.New("nccl: communicator destroyed")
	ErrMismatch     = errors.New("nccl: collective mismatch across ranks")
	ErrBufSizes     = errors.New("nccl: buffer sizes differ across ranks")
	ErrInvalidRank  = errors.New("nccl: invalid rank")
	ErrDeviceFailed = errors.New("nccl: device not usable")
)

// Params models the interconnect and bootstrap costs.
type Params struct {
	// BusBandwidth is the effective collective bandwidth in bytes/second
	// (NVLink within a node, InfiniBand across nodes; we use a single
	// effective figure per job, as ring-allreduce throughput is gated by
	// the slowest hop).
	BusBandwidth float64
	// BaseLatency is the fixed per-collective launch latency.
	BaseLatency vclock.Time
	// CommInitBase and CommInitPerRank model communicator bootstrap
	// (rendezvous, topology detection, channel setup). Table 7 shows this
	// dominates transparent recovery time, so it is modelled explicitly.
	CommInitBase    vclock.Time
	CommInitPerRank vclock.Time
}

// DefaultParams returns interconnect parameters roughly matching a single
// 8-GPU NVLink node with IB uplinks.
func DefaultParams() Params {
	return Params{
		BusBandwidth:    150e9, // 150 GB/s effective bus bandwidth
		BaseLatency:     20 * vclock.Microsecond,
		CommInitBase:    800 * vclock.Millisecond,
		CommInitPerRank: 30 * vclock.Millisecond,
	}
}

// FaultKind selects how an injected network fault manifests.
type FaultKind int

const (
	// FaultNone means the communicator is healthy.
	FaultNone FaultKind = iota
	// FaultHang makes collectives on the communicator hang forever: the
	// transient InfiniBand congestion / link-flap case. Cleared by
	// re-initializing the communicator (new generation).
	FaultHang
	// FaultError makes collectives complete with ErrNetwork: the NCCL
	// async-error case.
	FaultError
)

// Engine is the cluster-wide collective engine: it owns the rendezvous
// namespace and per-communicator match state.
type Engine struct {
	env        *vclock.Env
	params     Params
	inits      map[initKey]*initState
	groups     map[groupKey]*commGroup
	pending    map[groupKey]FaultKind
	observer   func(CollectiveDone)
	onCommInit func(key string, gen, rank int)
}

// CollectiveDone describes one completed collective operation. The
// peer-shelter tier observes these as its piggyback windows: a completed
// gradient all-reduce marks both the traffic replication can ride along
// with (Checkmate-style) and the instant all replicas hold identical
// reduced gradients.
type CollectiveDone struct {
	Key   string
	Gen   int
	Kind  string
	Bytes int64
	Ranks int
}

type initKey struct {
	key string
	gen int
}

type groupKey = initKey

type initState struct {
	arrived map[int]bool
	ready   *vclock.Event
}

// NewEngine creates a collective engine bound to env.
func NewEngine(env *vclock.Env, params Params) *Engine {
	return &Engine{
		env:     env,
		params:  params,
		inits:   make(map[initKey]*initState),
		groups:  make(map[groupKey]*commGroup),
		pending: make(map[groupKey]FaultKind),
	}
}

// Params returns the engine's interconnect parameters.
func (e *Engine) Params() Params { return e.params }

// SetObserver installs a callback invoked (in the last arriver's process,
// at completion time) for every successful collective. One observer at a
// time; nil uninstalls.
func (e *Engine) SetObserver(fn func(CollectiveDone)) { e.observer = fn }

// SetOnCommInit installs a callback invoked at every rank's arrival at a
// rendezvous (StartInit, so also CommInitRank's entry), in the arriving
// rank's process and before the barrier. Under the device proxy that
// process is a handler, a callback process: fn must not block. The chaos
// harness uses it to land faults inside the communicator
// re-initialization window. One at a time; nil uninstalls.
func (e *Engine) SetOnCommInit(fn func(key string, gen, rank int)) { e.onCommInit = fn }

// commGroup is the state shared by all ranks of one communicator
// generation.
type commGroup struct {
	engine *Engine
	key    string
	gen    int
	nranks int
	fault  FaultKind
	colls  map[int]*collState
	p2ps   map[p2pKey]*p2pState

	collFree gpu.FreeList[collState]
	p2pFree  gpu.FreeList[p2pState]
}

// collState is the match state for one in-flight collective. States are
// pooled per group: refs counts the ranks that have arrived and not yet
// left, and the state recycles once every participant has left AND the last
// arriver has retired it from the match map (done) — with its barrier event,
// whose waiter list keeps its capacity. Ranks that never arrive (hung
// collectives) simply strand the state, which the garbage collector reclaims
// as before.
type collState struct {
	kind     string
	bytes    int64
	arrived  []collArrival // indexed by rank
	narrived int
	ready    vclock.Event
	err      error
	sum      []float32 // reduce-scatter scratch, reused across collectives
	refs     int
	done     bool
}

type collArrival struct {
	in, out *gpu.Buffer
	present bool
}

func (g *commGroup) getColl() *collState {
	cs, _ := g.collFree.Get()
	*cs = collState{arrived: cs.arrived, sum: cs.sum, ready: cs.ready}
	if cap(cs.arrived) < g.nranks {
		cs.arrived = make([]collArrival, g.nranks)
	} else {
		cs.arrived = cs.arrived[:g.nranks]
		for i := range cs.arrived {
			cs.arrived[i] = collArrival{}
		}
	}
	g.engine.env.InitEvent(&cs.ready, "nccl.coll")
	return cs
}

// leaveColl drops one participant reference, recycling the state when it is
// both retired and empty.
func (g *commGroup) leaveColl(cs *collState) {
	cs.refs--
	if cs.refs == 0 && cs.done {
		g.collFree.Put(cs)
	}
}

type p2pKey struct {
	src, dst, seq int
}

// p2pState is the match state for one send/recv pair, pooled like
// collState (refs counts the two endpoints).
type p2pState struct {
	srcBuf, dstBuf *gpu.Buffer
	ready          vclock.Event
	bytes          int64
	failure        error
	refs           int
	done           bool
}

func (g *commGroup) getP2P() *p2pState {
	st, _ := g.p2pFree.Get()
	*st = p2pState{ready: st.ready}
	g.engine.env.InitEvent(&st.ready, "nccl.p2p")
	return st
}

func (g *commGroup) leaveP2P(st *p2pState) {
	st.refs--
	if st.refs == 0 && st.done {
		g.p2pFree.Put(st)
	}
}

// Comm is one rank's handle on a communicator.
type Comm struct {
	engine *Engine
	group  *commGroup
	Rank   int
	NRanks int
	dead   bool

	collSeq  int
	sendSeq  map[int]int
	recvSeq  map[int]int
	collFree gpu.FreeList[collReq]
}

// CommInitRank performs the blocking rendezvous that creates one rank's
// communicator handle. All nranks ranks must call it with the same key and
// generation; the call blocks until the last rank arrives (hanging forever
// if a rank never does — the paper's "rendezvous synchronization point"),
// then charges the bootstrap cost. gen distinguishes re-initializations
// after recovery: stale arrivals from an aborted attempt can never satisfy
// a new generation's rendezvous. It is the coroutine loop over Init's steps,
// for a caller that holds a communicator without a driver: benchmark/'s
// probes and the package tests. A rank's CommInit through cuda.Driver.Do
// steps the same Init in the driver's own loop.
func (e *Engine) CommInitRank(p *vclock.Proc, key string, gen, nranks, rank int, dev *gpu.Device) (*Comm, error) {
	var in Init
	for waits := e.StartInit(&in, key, gen, nranks, rank, dev); waits; waits = in.Step() {
		p.Await(in.Until)
	}
	return in.Comm, in.Err
}

// Init is one rank's CommInitRank in steps, for a caller with no stack to
// block on (a device proxy handler, which is a callback process).
// StartInit runs it up to its first wait; while a step reports that it
// waits, the caller waits for Until and calls Step. The waits are the
// rendezvous, the bootstrap sleep (taken even when it is zero) and, under a
// pending FaultHang, an event that never fires.
type Init struct {
	Until vclock.Until // what the rank waits for before its next Step
	Comm  *Comm        // the result once no wait is left
	Err   error

	e                 *Engine
	key               string
	gen, nranks, rank int
	sp                trace.Span
}

// StartInit starts one rank's CommInitRank in in: it arrives at the
// rendezvous and reports whether it waits, which it does unless the call
// failed at once.
func (e *Engine) StartInit(in *Init, key string, gen, nranks, rank int, dev *gpu.Device) bool {
	*in = Init{e: e, key: key, gen: gen, nranks: nranks, rank: rank}
	if rank < 0 || rank >= nranks {
		in.Err = fmt.Errorf("%w: %d of %d", ErrInvalidRank, rank, nranks)
	} else if dev != nil && !dev.Accessible() {
		in.Err = ErrDeviceFailed
	}
	if in.Err != nil {
		return false
	}
	if e.onCommInit != nil {
		e.onCommInit(key, gen, rank)
	}
	in.sp = trace.Of(e.env).Begin(e.env.Now(), "nccl", key, "comm-init", "gen", gen, "rank", rank)
	ik := initKey{key, gen}
	st, ok := e.inits[ik]
	if !ok {
		st = &initState{
			arrived: make(map[int]bool),
			ready:   e.env.NewEvent(fmt.Sprintf("nccl.init.%s.g%d", key, gen)),
		}
		e.inits[ik] = st
	}
	st.arrived[rank] = true
	if len(st.arrived) == nranks {
		st.ready.Trigger() // the last arriver's wait is over before it starts
	}
	in.Until = vclock.Until{Ev: st.ready} // hangs if some rank never arrives
	return true
}

// Step runs the rank on from the wait it stopped at and reports whether it
// waits again.
func (in *Init) Step() bool {
	e := in.e
	if in.Until.Ev != nil { // the rendezvous is over
		// Bootstrap cost: every rank pays it after the barrier.
		in.Until = vclock.Until{D: e.params.CommInitBase + vclock.Time(in.nranks)*e.params.CommInitPerRank}
		return true
	}
	now := e.env.Now()
	in.sp.End(now)
	gk := groupKey{in.key, in.gen}
	// A fault injected while this generation was still bootstrapping lands
	// here: a hang wedges the init (the rank never returns — the wedged
	// bootstrap the watchdog/heartbeat must detect), an async error fails
	// it. The generation is burned either way; re-initializing under a new
	// generation is unaffected.
	if fk, faulted := e.pending[gk]; faulted {
		trace.Of(e.env).Instant(now, "nccl", in.key, "init-fault", "gen", in.gen, "rank", in.rank, "kind", int(fk))
		if fk == FaultHang {
			in.Until = vclock.Until{Ev: e.env.NewEvent(fmt.Sprintf("nccl.init.hang.%s.g%d", in.key, in.gen))}
			return true
		}
		in.Err = ErrNetwork
		return false
	}
	g, ok := e.groups[gk]
	if !ok {
		g = &commGroup{
			engine: e,
			key:    in.key,
			gen:    in.gen,
			nranks: in.nranks,
			colls:  make(map[int]*collState),
			p2ps:   make(map[p2pKey]*p2pState),
		}
		e.groups[gk] = g
	}
	in.Comm = &Comm{
		engine:  e,
		group:   g,
		Rank:    in.rank,
		NRanks:  in.nranks,
		sendSeq: make(map[int]int),
		recvSeq: make(map[int]int),
	}
	return false
}

// InjectFault sets the fault mode for the current generation of the
// communicator named key. A FaultHang makes in-flight and future
// collectives hang; re-initializing under a new generation clears it
// (transient faults resolve on reconnect).
func (e *Engine) InjectFault(key string, gen int, kind FaultKind) {
	gk := groupKey{key, gen}
	if g, ok := e.groups[gk]; ok {
		g.fault = kind
		trace.Of(e.env).Instant(e.env.Now(), "nccl", key, "inject-fault", "gen", gen, "kind", int(kind))
		return
	}
	// The generation has not finished bootstrapping: record the fault so it
	// lands on the rendezvous itself (Init.Step checks it after the
	// bootstrap). Faults during communicator (re-)initialization are exactly
	// the mid-recovery failures chaos testing needs to land.
	e.pending[gk] = kind
}

// Destroy invalidates the handle. Pending collectives on other ranks are
// unaffected (they hang until their streams are destroyed), matching
// ncclCommDestroy semantics for a wedged communicator.
func (c *Comm) Destroy() { c.dead = true }

// collReq is one rank's collective call: the stream op, its completion,
// and everything the op's two halves (arrive at Begin, leave at Exec) and
// its lazily-formatted trace name need. The op's name is only materialized
// when a trace recorder is attached. Requests are pooled per Comm: the
// stream hands one back when its op completes (Free), so steady-state
// collectives allocate nothing.
type collReq struct {
	c       *Comm
	kind    string
	seq     int
	in, out *gpu.Buffer
	cs      *collState // the match state arrive joined
	op      gpu.Op
	done    vclock.Event
}

func (cr *collReq) release() {
	cr.in, cr.out, cr.cs = nil, nil, nil
	cr.c.collFree.Put(cr)
}

func (cr *collReq) String() string {
	g := cr.c.group
	return fmt.Sprintf("nccl.%s.%s.g%d.#%d.r%d", cr.kind, g.key, g.gen, cr.seq, cr.c.Rank)
}

// collCost returns the modelled wire traffic for one collective of b bytes
// across n ranks (ring algorithms throughout).
func collCost(kind string, b int64, n int) int64 {
	switch kind {
	case "allreduce":
		if n <= 1 {
			return 0
		}
		return 2 * b * int64(n-1) / int64(n)
	case "allgather":
		if n <= 1 {
			return 0
		}
		return b * int64(n-1)
	case "reducescatter":
		if n <= 1 {
			return 0
		}
		return b * int64(n-1) / int64(n)
	}
	return 0
}

// collective enqueues a collective op on stream s. The returned op
// completes when all ranks have arrived and the transfer time has elapsed;
// it is the Comm's again once it has completed and stays readable until
// the next collective on c.
func (c *Comm) collective(s *gpu.Stream, kind string, in, out *gpu.Buffer) (*gpu.Op, error) {
	if c.dead {
		return nil, ErrCommDead
	}
	cr, fresh := c.collFree.Get()
	if fresh {
		cr.c = c
		cr.op.Namer, cr.op.Begin, cr.op.Exec, cr.op.Free = cr, cr.arrive, cr.leave, cr.release
	}
	cr.kind, cr.seq, cr.in, cr.out = kind, c.collSeq, in, out
	cr.op.Ev, cr.op.Dur, cr.op.Err = nil, 0, nil
	c.engine.env.InitEvent(&cr.done, "op")
	cr.op.Done = &cr.done
	c.collSeq++
	s.Enqueue(&cr.op)
	return &cr.op, nil
}

// arrive is the op's Begin: enter the barrier. A mismatched, twice-arrived
// or FaultError collective fails here without waiting; the last arriver
// waits out the transfer; everyone else waits for it (forever, if a rank
// never arrives or the fault is a hang).
func (cr *collReq) arrive(*gpu.Device) error {
	g, kind, seq, rank := cr.c.group, cr.kind, cr.seq, cr.c.Rank
	cs, ok := g.colls[seq]
	if !ok {
		cs = g.getColl()
		cs.kind = kind
		g.colls[seq] = cs
	}
	cs.refs++
	if cs.kind != kind {
		cs.err = fmt.Errorf("%w: rank %d issued %s, group expects %s", ErrMismatch, rank, kind, cs.kind)
		cs.ready.Trigger()
		err := cs.err
		g.leaveColl(cs)
		return err
	}
	if g.fault == FaultError {
		// Async network error: this rank fails immediately, and ranks
		// already blocked inside the collective are released with the
		// same error (NCCL async error propagation).
		if cs.err == nil {
			cs.err = ErrNetwork
		}
		cs.ready.Trigger()
		delete(g.colls, seq)
		cs.done = true
		g.leaveColl(cs)
		return ErrNetwork
	}
	a := &cs.arrived[rank]
	if a.present {
		g.leaveColl(cs)
		return fmt.Errorf("%w: rank %d arrived twice at %s #%d", ErrMismatch, rank, kind, seq)
	}
	a.in, a.out, a.present = cr.in, cr.out, true
	cs.narrived++
	cr.cs = cs
	if cs.narrived == g.nranks && g.fault != FaultHang {
		// Last arriver: validate, compute, charge the transfer.
		if err := cs.validateSizes(); err != nil {
			cs.err = err
		} else {
			cs.err = cs.apply(g.nranks)
		}
		cs.bytes = cs.maxBytes()
		cr.op.Dur = g.engine.params.BaseLatency +
			gpu.TransferTime(collCost(kind, cs.bytes, g.nranks), g.engine.params.BusBandwidth)
		return nil
	}
	cr.op.Ev = &cs.ready // barrier: hangs if a rank never arrives or fault==hang
	return nil
}

// leave is the op's Exec: the wait is over. The last arriver — the one rank
// that waited for the transfer, not for the barrier event — releases the
// others and retires the match state; every rank drops its reference.
func (cr *collReq) leave(*gpu.Device) error {
	g, cs := cr.c.group, cr.cs
	err := cs.err
	if cr.op.Ev == nil {
		if rec := trace.Of(g.engine.env); rec != nil {
			rec.Instant(g.engine.env.Now(), "nccl", g.key, "collective",
				"kind", cr.kind, "gen", g.gen, "seq", cr.seq, "bytes", cs.bytes, "nranks", g.nranks)
		}
		if err == nil && g.engine.observer != nil {
			g.engine.observer(CollectiveDone{Key: g.key, Gen: g.gen, Kind: cr.kind, Bytes: cs.bytes, Ranks: g.nranks})
		}
		cs.ready.Trigger()
		delete(g.colls, cr.seq)
		cs.done = true
	}
	g.leaveColl(cs)
	return err
}

func (cs *collState) maxBytes() int64 {
	var m int64
	for i := range cs.arrived {
		a := &cs.arrived[i]
		if a.present && a.in != nil && a.in.ModelBytes > m {
			m = a.in.ModelBytes
		}
	}
	return m
}

func (cs *collState) validateSizes() error {
	n := -1
	for i := range cs.arrived {
		a := &cs.arrived[i]
		if !a.present || a.in == nil {
			continue
		}
		if n == -1 {
			n = len(a.in.Data)
		} else if len(a.in.Data) != n {
			return ErrBufSizes
		}
	}
	return nil
}

// apply performs the collective's arithmetic on real buffer contents, in
// fixed rank order for determinism.
func (cs *collState) apply(nranks int) error {
	switch cs.kind {
	case "allreduce":
		// Sum over ranks, written back to every rank's buffer.
		var first *gpu.Buffer
		for r := 0; r < nranks; r++ {
			a := &cs.arrived[r]
			if !a.present || a.in == nil {
				continue
			}
			if first == nil {
				first = a.in
				continue
			}
			if len(a.in.Data) > 0 {
				first.Data.Add(a.in.Data)
			}
		}
		if first == nil {
			return nil
		}
		for r := 0; r < nranks; r++ {
			a := &cs.arrived[r]
			if !a.present || a.in == nil || a.in == first {
				continue
			}
			copy(a.in.Data, first.Data)
		}
	case "allgather":
		// out = concat of in across ranks; each rank's out must hold
		// nranks*len(in) elements.
		for r := 0; r < nranks; r++ {
			src := &cs.arrived[r]
			if !src.present || src.in == nil {
				continue
			}
			chunk := len(src.in.Data)
			for q := 0; q < nranks; q++ {
				dst := &cs.arrived[q]
				if !dst.present || dst.out == nil || len(dst.out.Data) < (r+1)*chunk {
					continue
				}
				copy(dst.out.Data[r*chunk:(r+1)*chunk], src.in.Data)
			}
		}
	case "reducescatter":
		// Sum inputs elementwise into pooled scratch, then rank r receives
		// chunk r.
		sum := cs.sum[:0]
		for r := 0; r < nranks; r++ {
			a := &cs.arrived[r]
			if !a.present || a.in == nil {
				continue
			}
			if len(sum) == 0 {
				sum = append(sum, a.in.Data...)
			} else {
				for i := range sum {
					sum[i] += a.in.Data[i]
				}
			}
		}
		cs.sum = sum[:0]
		if len(sum) == 0 {
			return nil
		}
		chunk := len(sum) / nranks
		for r := 0; r < nranks; r++ {
			a := &cs.arrived[r]
			if !a.present || a.out == nil || chunk == 0 {
				continue
			}
			copy(a.out.Data, sum[r*chunk:(r+1)*chunk])
		}
	default:
		return fmt.Errorf("%w: unknown collective %q", ErrMismatch, cs.kind)
	}
	return nil
}

// AllReduce enqueues a sum-allreduce of buf across all ranks. Every rank's
// buffer ends up holding the elementwise sum.
func (c *Comm) AllReduce(s *gpu.Stream, buf *gpu.Buffer) (*gpu.Op, error) {
	return c.collective(s, "allreduce", buf, nil)
}

// AllGather enqueues an allgather: every rank contributes in and receives
// the rank-ordered concatenation in out.
func (c *Comm) AllGather(s *gpu.Stream, in, out *gpu.Buffer) (*gpu.Op, error) {
	return c.collective(s, "allgather", in, out)
}

// ReduceScatter enqueues a reduce-scatter: inputs are summed and rank r
// receives chunk r of the sum in out.
func (c *Comm) ReduceScatter(s *gpu.Stream, in, out *gpu.Buffer) (*gpu.Op, error) {
	return c.collective(s, "reducescatter", in, out)
}

// Send enqueues a point-to-point send of buf to peer. It matches the
// peer's Recv with the same sequence number (per direction, in issue
// order), the scheme pipeline-parallel stages use.
func (c *Comm) Send(s *gpu.Stream, buf *gpu.Buffer, peer int) (*gpu.Op, error) {
	if c.dead {
		return nil, ErrCommDead
	}
	if peer < 0 || peer >= c.NRanks {
		return nil, fmt.Errorf("%w: send peer %d", ErrInvalidRank, peer)
	}
	pr := &p2pReq{g: c.group, src: c.Rank, dst: peer, seq: c.sendSeq[peer], buf: buf, isSend: true}
	c.sendSeq[peer]++
	return pr.enqueue(s), nil
}

// Recv enqueues a point-to-point receive into buf from peer.
func (c *Comm) Recv(s *gpu.Stream, buf *gpu.Buffer, peer int) (*gpu.Op, error) {
	if c.dead {
		return nil, ErrCommDead
	}
	if peer < 0 || peer >= c.NRanks {
		return nil, fmt.Errorf("%w: recv peer %d", ErrInvalidRank, peer)
	}
	pr := &p2pReq{g: c.group, src: peer, dst: c.Rank, seq: c.recvSeq[peer], buf: buf, isSend: false}
	c.recvSeq[peer]++
	return pr.enqueue(s), nil
}

// p2pReq bundles one endpoint's send/recv call into a single allocation,
// with arrive and leave halves and a lazily-formatted trace name like
// collReq's.
type p2pReq struct {
	g             *commGroup
	src, dst, seq int
	buf           *gpu.Buffer
	isSend        bool
	st            *p2pState // the match state arrive joined
	op            gpu.Op
}

func (pr *p2pReq) enqueue(s *gpu.Stream) *gpu.Op {
	pr.op.Namer, pr.op.Begin, pr.op.Exec = pr, pr.arrive, pr.leave
	s.Enqueue(&pr.op)
	return &pr.op
}

func (pr *p2pReq) String() string {
	if pr.isSend {
		return fmt.Sprintf("nccl.send.%s.%d->%d.#%d", pr.g.key, pr.src, pr.dst, pr.seq)
	}
	return fmt.Sprintf("nccl.recv.%s.%d<-%d.#%d", pr.g.key, pr.dst, pr.src, pr.seq)
}

// arrive is the op's Begin: the second endpoint to arrive copies, then
// waits out the transfer (a size mismatch fails the pair at once instead);
// the first waits for it.
func (pr *p2pReq) arrive(dev *gpu.Device) error {
	g, buf := pr.g, pr.buf
	if g.fault == FaultError {
		return ErrNetwork
	}
	k := p2pKey{pr.src, pr.dst, pr.seq}
	st, ok := g.p2ps[k]
	if !ok {
		st = g.getP2P()
		g.p2ps[k] = st
	}
	st.refs++
	pr.st = st
	if pr.isSend {
		st.srcBuf = buf
	} else {
		st.dstBuf = buf
	}
	if buf != nil && buf.ModelBytes > st.bytes {
		st.bytes = buf.ModelBytes
	}
	if st.srcBuf != nil && st.dstBuf != nil && g.fault != FaultHang {
		if len(st.srcBuf.Data) > 0 && len(st.dstBuf.Data) > 0 {
			if len(st.srcBuf.Data) != len(st.dstBuf.Data) {
				st.failure = ErrBufSizes
				return pr.leave(dev)
			}
			copy(st.dstBuf.Data, st.srcBuf.Data)
		}
		pr.op.Dur = g.engine.params.BaseLatency + gpu.TransferTime(st.bytes, g.engine.params.BusBandwidth)
		return nil
	}
	pr.op.Ev = &st.ready // hangs if the peer never shows up
	return nil
}

// leave is the op's Exec: the second endpoint — the one that did not wait
// for the pair's event — releases the first and retires the match state;
// both drop their reference.
func (pr *p2pReq) leave(*gpu.Device) error {
	g, st := pr.g, pr.st
	err := st.failure
	if pr.op.Ev == nil {
		st.ready.Trigger()
		delete(g.p2ps, p2pKey{pr.src, pr.dst, pr.seq})
		st.done = true
	}
	g.leaveP2P(st)
	return err
}
