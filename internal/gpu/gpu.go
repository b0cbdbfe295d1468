// Package gpu models the GPU hardware that the simulated cluster exposes to
// the CUDA-like driver layer: devices with memory, ordered execution
// streams, and a health state machine covering the failure classes the
// paper's recovery mechanisms distinguish (§4.2, §4.3).
//
// Two deliberate modelling choices:
//
//   - Buffers carry both a modelled byte size (ModelBytes, used for transfer
//     and checkpoint timing at paper scale) and real float32 contents (Data,
//     used to verify recovery preserves training semantics bit for bit). A
//     simulated 1.5B-parameter model times its checkpoints as 18 GB while
//     its verifiable payload is a few thousand floats.
//
//   - Each stream is a virtual-time process executing enqueued operations
//     strictly in order. Kernel launches are therefore asynchronous with
//     respect to the issuing worker, hangs at collectives are real hangs
//     (the stream process stays parked forever), and cudaStreamWaitEvent is
//     an operation that blocks the stream, not the host. The process is a
//     callback one (vclock.GoFunc): a state machine over "no op" and "op
//     begun, waiting" that owns no goroutine, which is what lets a fleet
//     have thousands of them.
package gpu

import (
	"errors"
	"fmt"

	"jitckpt/internal/dense"
	"jitckpt/internal/tensor"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// Health is the device health state.
type Health int

// Device health states, ordered roughly by severity. They map onto the
// paper's recovery strategies: DriverCorrupt is cleared by restarting the
// device proxy, Sticky requires a device reset and replica state copy, and
// Hard requires migrating the worker to a different GPU.
const (
	Healthy       Health = iota
	DriverCorrupt        // device accessible, driver/network state suspect
	Sticky               // CUDA "sticky" error: every subsequent op fails
	Hard                 // unrecoverable hardware failure: device lost
)

// String renders the health state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case DriverCorrupt:
		return "driver-corrupt"
	case Sticky:
		return "sticky-error"
	case Hard:
		return "hard-failure"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// Errors returned by device operations.
var (
	ErrDeviceLost  = errors.New("gpu: device lost (hard failure)")
	ErrSticky      = errors.New("gpu: sticky error, context corrupted")
	ErrCorrupt     = errors.New("gpu: driver state corrupted")
	ErrOutOfMemory = errors.New("gpu: out of device memory")
	ErrNoSuchBuf   = errors.New("gpu: no such buffer")
	ErrNoSuchQueue = errors.New("gpu: no such stream")
)

// Buffer is a device memory allocation.
type Buffer struct {
	ID         int
	ModelBytes int64         // modelled size, drives transfer timing
	Data       tensor.Vector // real contents, drives correctness checks
	Tag        string        // allocation call-site tag (checkpoint naming, §4.3)
	Seq        int           // per-tag allocation sequence number
}

// Op is one unit of work on a stream, in two phases around one wait. At the
// head of its stream the op begins, then waits — for Ev when that is set (an
// already-triggered event, Env.DoneEvent say, is no wait at all), else for
// Dur of virtual time (zero still yields once, as Proc.Sleep does) — and then
// Exec, if any, is applied to the device at completion time: the common
// kernel/memcpy shape is Dur plus Exec, a stream-wait is Ev plus Exec. Done
// triggers when the op completes (it stays nil for fire-and-forget ops
// enqueued with EnqueueAsync); Err carries the outcome.
type Op struct {
	Name string
	// Namer lazily produces the op's trace name when Name is empty. It is
	// only asked when a trace recorder is attached, so hot-path ops skip
	// name formatting entirely on untraced runs. An interface, not a func:
	// the request struct an op is embedded in names it without allocating.
	Namer fmt.Stringer
	// Begin, when set, runs as the op begins, for an op that only learns
	// there what it waits for (a collective: the barrier or, for the last
	// arriver, the transfer): it sets Ev or Dur. An error from it completes
	// the op at once, with no wait and no Exec.
	Begin func(dev *Device) error
	Ev    *vclock.Event
	Dur   vclock.Time
	Exec  func(dev *Device) error
	Done  *vclock.Event
	Err   error
	// Free, when set, is called by the stream after the op fully completes;
	// pooled ops use it to return themselves to their owner's free list,
	// which may hand them out again at the owner's next request: the issuer
	// re-reads such an op only as long as its owner allows.
	Free func()
}

// name resolves the op's display name for tracing.
func (op *Op) name() string {
	if op.Name != "" {
		return op.Name
	}
	if op.Namer != nil {
		return op.Namer.String()
	}
	return "op"
}

// FreeList holds reusable objects, the one put back last first out: an
// op's owner takes the request an op is embedded in from one, and the op's
// Free hook puts it back.
type FreeList[T any] struct{ free []*T }

// Get returns an object put back earlier, else a new zero one; fresh
// reports which, for the caller to set up a new one.
func (l *FreeList[T]) Get() (x *T, fresh bool) {
	n := len(l.free)
	if n == 0 {
		return new(T), true
	}
	x, l.free[n-1], l.free = l.free[n-1], nil, l.free[:n-1]
	return x, false
}

// Put makes x the next object Get returns.
func (l *FreeList[T]) Put(x *T) { l.free = append(l.free, x) }

// Stream is an in-order execution queue on a device.
type Stream struct {
	ID      int
	dev     *Device
	q       *vclock.Queue[*Op]
	proc    *vclock.Proc
	op      *Op        // begun and waiting, nil between ops
	sp      trace.Span // its trace span
	pending int
	drain   *vclock.Event // nil, or drainEv: re-armed for each drain waited for
	drainEv vclock.Event
	// asyncErr is the first error any op on this stream completed with.
	// Like NCCL's async communicator errors, it does not interrupt the
	// stream; it is surfaced when someone synchronizes with the stream
	// (or records an event on it) and sticks until the stream is
	// destroyed.
	asyncErr error
}

// AsyncErr returns the first error any op on this stream completed with,
// nil if all ops so far succeeded.
func (s *Stream) AsyncErr() error { return s.asyncErr }

// Device is a single simulated GPU.
type Device struct {
	env    *vclock.Env
	NodeID int
	Index  int

	health Health
	// Buffers and streams by ID. A repair forgets every ID handed out so
	// far, a reset every stream ID; neither is handed out again.
	buffers dense.Table[*Buffer]
	streams dense.Table[*Stream]
	tagSeq  map[string]int
	memUsed int64
	memCap  int64
	lane    string
}

// NewDevice creates a healthy device with memCap bytes of modelled memory.
func NewDevice(env *vclock.Env, nodeID, index int, memCap int64) *Device {
	return &Device{
		env:    env,
		NodeID: nodeID,
		Index:  index,
		health: Healthy,
		tagSeq: make(map[string]int),
		memCap: memCap,
		lane:   fmt.Sprintf("n%d.g%d", nodeID, index),
	}
}

// Name returns a stable diagnostic identifier.
func (d *Device) Name() string { return fmt.Sprintf("gpu[n%d.g%d]", d.NodeID, d.Index) }

// Lane returns the device's trace-lane name ("n0.g1").
func (d *Device) Lane() string { return d.lane }

// Env returns the simulation environment.
func (d *Device) Env() *vclock.Env { return d.env }

// Health returns the current health state.
func (d *Device) Health() Health { return d.health }

// Accessible reports whether API calls can reach the device at all.
func (d *Device) Accessible() bool { return d.health != Hard }

// PendingOps returns the number of enqueued-but-incomplete operations
// across all streams. Zero on a healthy device means the GPU has executed
// everything the host issued — the recovery controller's signal that the
// device's state is at a minibatch boundary.
func (d *Device) PendingOps() int {
	n := 0
	d.streams.Each(func(_ int, s *Stream) { n += s.pending })
	return n
}

// healthErr maps the current health to the error API calls should return,
// or nil when the device accepts work.
func (d *Device) healthErr() error {
	switch d.health {
	case Hard:
		return ErrDeviceLost
	case Sticky:
		return ErrSticky
	default:
		return nil
	}
}

// Alloc allocates a buffer of modelBytes modelled size holding elems real
// float32 elements. tag identifies the allocation call-site; the (tag, seq,
// size) triple is the replica-consistent checkpoint name from §4.3.
func (d *Device) Alloc(modelBytes int64, elems int, tag string) (*Buffer, error) {
	if err := d.healthErr(); err != nil {
		return nil, err
	}
	if d.memUsed+modelBytes > d.memCap {
		return nil, fmt.Errorf("%w: want %d, used %d of %d", ErrOutOfMemory, modelBytes, d.memUsed, d.memCap)
	}
	b := &Buffer{
		ModelBytes: modelBytes,
		Data:       tensor.NewVector(elems),
		Tag:        tag,
		Seq:        d.tagSeq[tag],
	}
	b.ID = d.buffers.Add(b)
	d.tagSeq[tag]++
	d.memUsed += modelBytes
	return b, nil
}

// Free releases a buffer.
func (d *Device) Free(id int) error {
	if d.health == Hard {
		return ErrDeviceLost
	}
	b, err := d.Buf(id)
	if err != nil {
		return err
	}
	d.memUsed -= b.ModelBytes
	d.buffers.Delete(id)
	return nil
}

// Buf looks up a buffer by ID.
func (d *Device) Buf(id int) (*Buffer, error) {
	if b, ok := d.buffers.At(id); ok {
		return b, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrNoSuchBuf, id)
}

// NewStream creates an execution stream and starts its process.
func (d *Device) NewStream() (*Stream, error) {
	if err := d.healthErr(); err != nil {
		return nil, err
	}
	s := &Stream{dev: d}
	s.ID = d.streams.Add(s)
	s.q = vclock.NewQueue[*Op](d.env, fmt.Sprintf("%s.s%d.q", d.Name(), s.ID))
	s.proc = d.env.GoFunc(fmt.Sprintf("%s.s%d", d.Name(), s.ID), s.step)
	return s, nil
}

// DestroyStream kills a stream's process and forgets it.
func (d *Device) DestroyStream(id int) error {
	s, ok := d.streams.At(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchQueue, id)
	}
	s.proc.Kill()
	d.streams.Delete(id)
	return nil
}

// InjectHard makes the device fail hard: every stream process is killed so
// in-flight and queued operations never complete, and all subsequent API
// calls return ErrDeviceLost.
func (d *Device) InjectHard() {
	d.health = Hard
	d.killStreams()
	trace.Of(d.env).Instant(d.env.Now(), "gpu", d.lane, "inject-hard")
}

// InjectSticky puts the device in the CUDA sticky-error state: queued and
// future operations complete immediately with ErrSticky and API calls fail
// until the device is reset.
func (d *Device) InjectSticky() {
	if d.health == Hard {
		return
	}
	d.health = Sticky
	trace.Of(d.env).Instant(d.env.Now(), "gpu", d.lane, "inject-sticky")
}

// InjectDriverCorrupt marks driver state as suspect: operations still
// execute, but the recovery layer is expected to restart the device proxy
// and reset the device before trusting it again.
func (d *Device) InjectDriverCorrupt() {
	if d.health == Hard {
		return
	}
	d.health = DriverCorrupt
	trace.Of(d.env).Instant(d.env.Now(), "gpu", d.lane, "inject-corrupt")
}

// Reset clears a non-hard device back to health: all streams are destroyed
// (queued work is dropped) and sticky/corrupt states are cleared. Buffers
// are NOT freed; callers choose what survives via Free. Reset of
// a hard-failed device returns ErrDeviceLost — hardware does not come back.
func (d *Device) Reset() error {
	if d.health == Hard {
		return ErrDeviceLost
	}
	d.killStreams()
	d.streams.Reset()
	d.health = Healthy
	trace.Of(d.env).Instant(d.env.Now(), "gpu", d.lane, "reset")
	return nil
}

// Repair models a hardware replacement: the failed board is swapped and
// the slot comes back as a blank healthy device. Unlike Reset it is legal
// on hard-failed devices — it is precisely how hardware "comes back" —
// and it clears everything: streams (killed), buffers, tag sequences and
// memory accounting. Callers restore state from checkpoints afterwards.
func (d *Device) Repair() {
	d.killStreams()
	d.streams.Reset()
	d.buffers.Reset()
	d.tagSeq = make(map[string]int)
	d.memUsed = 0
	d.health = Healthy
	trace.Of(d.env).Instant(d.env.Now(), "gpu", d.lane, "repair")
}

// killStreams kills every stream's process, in ascending ID order.
func (d *Device) killStreams() {
	d.streams.Each(func(_ int, s *Stream) { s.proc.Kill() })
}

// Enqueue appends an op to the stream. It returns the op's completion event:
// the one the op brings (embedded in what it completes, so it allocates
// nothing), else a new one. Enqueue never blocks the caller: launches are
// asynchronous, as on real hardware. Enqueueing onto a hard-failed device is
// permitted (the op will simply never complete), matching how an async
// launch into a dying context behaves.
func (s *Stream) Enqueue(op *Op) *vclock.Event {
	if op.Done == nil {
		op.Done = s.dev.env.NewEvent("op")
	}
	s.pending++
	s.q.Push(op)
	return op.Done
}

// EnqueueAsync appends a fire-and-forget op: no completion event is
// created, so callers that never wait on the op (kernel launches, async
// memcpys, collectives whose completion is observed via stream sync) pay
// no per-op event allocation. Completion is still observable through
// DrainEvent and AsyncErr.
func (s *Stream) EnqueueAsync(op *Op) {
	s.pending++
	s.q.Push(op)
}

// DrainEvent returns an event that triggers when every op enqueued so far
// has completed. On an idle stream it is already triggered.
func (s *Stream) DrainEvent() *vclock.Event {
	if s.pending == 0 {
		return s.dev.env.DoneEvent()
	}
	if s.drain == nil || s.drain.Triggered() {
		s.dev.env.InitEvent(&s.drainEv, "drain")
		s.drain = &s.drainEv
	}
	return s.drain
}

// step is the stream's callback process: execute ops strictly in order,
// returning wherever a coroutine would block — on the empty queue, or with
// s.op begun and waiting — to be called again when that wait is over. A
// killed stream (destroyed, reset, or its device hard-failed) is never
// called again, so the op it was waiting in never completes.
func (s *Stream) step(p *vclock.Proc) {
	dev := s.dev
	for {
		op := s.op
		if op == nil {
			var ok bool
			if op, ok = s.q.PopNext(p); !ok {
				return
			}
			rec := trace.Of(dev.env)
			if dev.health == Sticky {
				if rec != nil {
					rec.Instant(p.Now(), "gpu", dev.lane, "sticky-err", "op", op.name())
				}
				op.Err = ErrSticky
				s.finish(op)
				continue
			}
			if rec != nil {
				s.sp = rec.Begin(p.Now(), "gpu", dev.lane, op.name())
			}
			if op.Begin != nil {
				if err := op.Begin(dev); err != nil {
					s.end(op, err)
					continue
				}
			}
			s.op = op
			if op.Ev == nil {
				p.SleepNext(op.Dur)
				return
			}
			if p.WaitNext(op.Ev, 0) {
				return
			}
		}
		s.op = nil
		var err error
		if op.Exec != nil {
			err = op.Exec(dev)
		}
		s.end(op, err)
	}
}

// end completes a begun op with err: its span closes, a sticky device or the
// op's own failure marks the stream, and the op finishes.
func (s *Stream) end(op *Op, err error) {
	s.sp.End(s.dev.env.Now())
	s.sp = trace.Span{}
	if err == nil && s.dev.health == Sticky {
		err = ErrSticky
	}
	op.Err = err
	if err != nil && s.asyncErr == nil {
		s.asyncErr = err
	}
	s.finish(op)
}

// finish triggers the op's completion event (if any), updates stream
// accounting, and returns pooled ops to their owner.
func (s *Stream) finish(op *Op) {
	if op.Done != nil {
		op.Done.Trigger()
	}
	s.complete()
	if op.Free != nil {
		op.Free()
	}
}

func (s *Stream) complete() {
	s.pending--
	if s.pending == 0 && s.drain != nil && !s.drain.Triggered() {
		s.drain.Trigger()
	}
}

// Node is a host machine with attached devices.
type Node struct {
	ID      int
	Devices []*Device
	// Failed marks whole-host failures (rare per the paper's failure data,
	// but the control plane handles them by excluding the node). Only
	// FailHost and Repair write it.
	Failed bool
}

// FailHost takes the whole host down: every GPU dies and the host's CPU
// memory is gone. It reports false, changing nothing, when the host is
// already down.
func (n *Node) FailHost() bool {
	if n.Failed {
		return false
	}
	n.Failed = true
	for _, d := range n.Devices {
		d.InjectHard()
	}
	return true
}

// Repair replaces the node's broken hardware: the host comes back and every
// unhealthy board is swapped for a blank one. Healthy boards on a host that
// never went down keep their contents.
func (n *Node) Repair() {
	n.Failed = false
	for _, d := range n.Devices {
		if d.Health() != Healthy {
			d.Repair()
		}
	}
}

// DeadBoard reports whether any of the node's GPUs is hard-failed, which
// makes the node unschedulable even while its host is up.
func (n *Node) DeadBoard() bool {
	for _, d := range n.Devices {
		if d.Health() == Hard {
			return true
		}
	}
	return false
}

// Broken reports whether the node needs a repair: its host is down or one
// of its boards is dead.
func (n *Node) Broken() bool { return n.Failed || n.DeadBoard() }

// Cluster is the set of nodes available to a job, plus spares, and the
// failure-domain geometry over them. Node IDs are indices into Nodes.
type Cluster struct {
	Nodes []*Node
	// RackSize is the failure-domain width in nodes (0 = 2): nodes n and n'
	// share a rack iff RackOf(n) == RackOf(n').
	RackSize int
}

// RackOf returns the failure domain of a node ID.
func (c *Cluster) RackOf(node int) int {
	rackSize := c.RackSize
	if rackSize <= 0 {
		rackSize = 2
	}
	return node / rackSize
}

// Rack returns every node sharing the failure domain of a node ID, in ID
// order (the last rack of a cluster may be short).
func (c *Cluster) Rack(node int) []*Node {
	rack := c.RackOf(node)
	var out []*Node
	for _, n := range c.Nodes {
		if c.RackOf(n.ID) == rack {
			out = append(out, n)
		}
	}
	return out
}

// Racks counts the cluster's failure domains.
func (c *Cluster) Racks() int {
	if len(c.Nodes) == 0 {
		return 0
	}
	return c.RackOf(len(c.Nodes)-1) + 1
}

// NewCluster builds nodes*gpus devices, each with memCap bytes.
func NewCluster(env *vclock.Env, nodes, gpusPerNode int, memCap int64) *Cluster {
	c := &Cluster{}
	for n := 0; n < nodes; n++ {
		node := &Node{ID: n}
		for g := 0; g < gpusPerNode; g++ {
			node.Devices = append(node.Devices, NewDevice(env, n, g, memCap))
		}
		c.Nodes = append(c.Nodes, node)
	}
	return c
}

// TransferTime returns the virtual time to move bytes at bw bytes/second,
// with a minimum of one microsecond for any non-empty transfer.
func TransferTime(bytes int64, bw float64) vclock.Time {
	if bytes <= 0 || bw <= 0 {
		return 0
	}
	t := vclock.Time(float64(bytes) / bw * float64(vclock.Second))
	if t < vclock.Microsecond {
		t = vclock.Microsecond
	}
	return t
}
