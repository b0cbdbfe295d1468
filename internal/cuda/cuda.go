// Package cuda defines the device API surface that simulated training
// workers program against, and a local Driver implementation of it on top
// of the gpu and nccl substrates.
//
// The API deliberately mirrors the CUDA/NCCL call shapes the paper's
// mechanisms intercept: asynchronous kernel launches and memcpys onto
// streams, cudaEventRecord / cudaStreamWaitEvent for cross-stream ordering
// (Figure 3), cudaEventQuery for the watchdog's hang detection (§3.1), and
// collective calls that enqueue barrier operations (§4).
//
// All handles (Buf, Stream, Event, Comm) are plain integers so that calls
// can be serialized over the device-proxy wire (§4, Figure 2) and so the
// interception layer can hand out *virtual* handles and remap them to new
// physical handles after recovery re-creates GPU objects.
//
// Kernels are launched by registry name rather than function pointer for
// the same reason: a name plus immediate arguments crosses the wire and the
// replay log, a closure does not. Both the client and the device proxy
// server resolve names in the same Registry, exactly as real CUDA resolves
// kernel symbols in the loaded module on the device side.
package cuda

import (
	"errors"
	"fmt"

	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/tensor"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// Handle types. Zero values are invalid except DefaultStream.
type (
	// Buf is a device-memory buffer handle.
	Buf int
	// Stream is an execution stream handle. DefaultStream (0) always exists.
	Stream int
	// Event is a cudaEvent handle.
	Event int
	// Comm is a NCCL communicator handle.
	Comm int
)

// DefaultStream is the implicitly-created stream 0, the default target of
// memcpys — which is exactly why §3.2's checkpoint-time deadlock arises
// when stream 0 is blocked behind a StreamWaitEvent on a hung collective.
const DefaultStream Stream = 0

// Errors returned by the driver beyond those of the gpu and nccl packages.
var (
	ErrBadHandle     = errors.New("cuda: invalid handle")
	ErrUnknownKernel = errors.New("cuda: unknown kernel")
)

// KernelArgs is what a kernel function receives when its launch executes on
// the device: resolved buffer contents plus immediate arguments.
type KernelArgs struct {
	Bufs  []tensor.Vector
	IArgs []int64
	FArgs []float32
}

// KernelFunc is the host-side definition of a device kernel's effect.
type KernelFunc func(a KernelArgs) error

// Registry maps kernel names to implementations. Registries are shared
// between client and device-proxy server, like CUDA modules.
type Registry map[string]KernelFunc

// LaunchParams describes one kernel launch. Everything in it is
// wire-serializable.
type LaunchParams struct {
	Kernel string
	// Dur is the modelled execution time of the kernel.
	Dur vclock.Time
	// Bufs are the buffer handles the kernel reads/writes.
	Bufs []Buf
	// IArgs and FArgs are immediate scalar arguments.
	IArgs []int64
	FArgs []float32
}

// BufInfo describes a buffer for checkpointing and recovery: the (Tag, Seq,
// Bytes) triple is the replica-consistent tensor name from §4.3.
type BufInfo struct {
	Handle Buf
	Bytes  int64
	Elems  int
	Tag    string
	Seq    int
}

// API is the complete device API surface: what workers call, what the
// device proxy forwards, what the interception layer wraps, and what the
// replay log records. Every call takes the calling simulation process,
// because blocking calls suspend it in virtual time.
type API interface {
	// Memory management.
	Malloc(p *vclock.Proc, bytes int64, elems int, tag string) (Buf, error)
	Free(p *vclock.Proc, b Buf) error
	// MemcpyH2D asynchronously copies host data to the device on stream s.
	// The source is captured at call time.
	MemcpyH2D(p *vclock.Proc, dst Buf, src []float32, s Stream) error
	// MemcpyD2H synchronously copies device data to the host: it completes
	// only after all prior work on s (cudaMemcpy semantics).
	MemcpyD2H(p *vclock.Proc, src Buf, s Stream) ([]float32, error)

	// Streams and events.
	StreamCreate(p *vclock.Proc) (Stream, error)
	StreamDestroy(p *vclock.Proc, s Stream) error
	StreamSynchronize(p *vclock.Proc, s Stream) error
	StreamWaitEvent(p *vclock.Proc, s Stream, ev Event) error
	EventCreate(p *vclock.Proc) (Event, error)
	EventRecord(p *vclock.Proc, ev Event, s Stream) error
	// EventQuery reports whether the event's last recorded work completed;
	// an unrecorded event reports complete, per CUDA.
	EventQuery(p *vclock.Proc, ev Event) (bool, error)
	EventDestroy(p *vclock.Proc, ev Event) error

	// Kernel launch (asynchronous).
	Launch(p *vclock.Proc, lp LaunchParams, s Stream) error

	// Device-wide operations.
	DeviceSynchronize(p *vclock.Proc) error
	// BufChecksum hashes one buffer's contents, for the replay-log
	// validation (§4.1).
	BufChecksum(p *vclock.Proc, b Buf) (uint64, error)

	// Collectives (NCCL). CommInit blocks until all ranks rendezvous;
	// collective calls enqueue asynchronously on stream s.
	CommInit(p *vclock.Proc, key string, gen, nranks, rank int) (Comm, error)
	CommDestroy(p *vclock.Proc, c Comm) error
	AllReduce(p *vclock.Proc, c Comm, b Buf, s Stream) error
	AllGather(p *vclock.Proc, c Comm, in, out Buf, s Stream) error
	ReduceScatter(p *vclock.Proc, c Comm, in, out Buf, s Stream) error
	Send(p *vclock.Proc, c Comm, b Buf, peer int, s Stream) error
	Recv(p *vclock.Proc, c Comm, b Buf, peer int, s Stream) error
}

// Params models host-side API costs and PCIe bandwidths.
type Params struct {
	// CallLatency is the host cost of issuing any API call.
	CallLatency vclock.Time
	// H2DBandwidth / D2HBandwidth model the PCIe link (the paper's example:
	// PCIe gen 4 at 32 GB/s).
	H2DBandwidth float64
	D2HBandwidth float64
}

// DefaultParams returns parameters for a PCIe gen-4 attached GPU.
func DefaultParams() Params {
	return Params{
		CallLatency:  2 * vclock.Microsecond,
		H2DBandwidth: 25e9,
		D2HBandwidth: 25e9,
	}
}

// eventState is the device-side state of a cudaEvent.
type eventState struct {
	// rec is the op of the most recent EventRecord, nil if the event was
	// never recorded: its Done is the event's completion, its Err the
	// event's poison.
	rec *gpu.Op
}

// launchOp is the pooled per-launch state for the driver's asynchronous
// fire-and-forget ops (kernel launches and async memcpys). One launchOp is
// one in-flight op; when the stream finishes it, the op returns itself to
// the driver's free list, so steady-state launches allocate nothing. The
// issuer never retains a pointer to it (these ops are enqueued with
// EnqueueAsync and have no completion event), which is what makes reuse
// safe. Immediate arguments are copied in at launch time, giving
// capture-at-call semantics like the wire protocol it models. An op with no
// kernel function is an H2D copy of host into bufs[0].
type launchOp struct {
	d      *Driver
	kernel string
	fn     KernelFunc
	bufs   []*gpu.Buffer
	iargs  []int64
	fargs  []float32
	host   []float32 // H2D staging copy, captured at call time
	args   KernelArgs
	op     gpu.Op
	next   *launchOp
}

func (d *Driver) getLaunch() *launchOp {
	lo := d.launchFree
	if lo == nil {
		lo = &launchOp{d: d}
		lo.op.Namer = lo
		lo.op.Exec = lo.exec
		lo.op.Free = lo.release
		return lo
	}
	d.launchFree = lo.next
	lo.next = nil
	return lo
}

func (lo *launchOp) release() {
	for i := range lo.bufs {
		lo.bufs[i] = nil
	}
	lo.bufs = lo.bufs[:0]
	lo.fn = nil
	lo.op.Name = ""
	lo.op.Err = nil
	lo.next = lo.d.launchFree
	lo.d.launchFree = lo
}

// String is only called when a trace recorder is attached; memcpy modes set
// op.Name statically, so this formats kernel names alone.
func (lo *launchOp) String() string {
	return "kernel." + lo.kernel
}

func (lo *launchOp) exec(dev *gpu.Device) error {
	if lo.fn == nil {
		copy(lo.bufs[0].Data, lo.host)
		return nil
	}
	lo.args.Bufs = lo.args.Bufs[:0]
	for _, gb := range lo.bufs {
		lo.args.Bufs = append(lo.args.Bufs, gb.Data)
	}
	lo.args.IArgs = lo.iargs
	lo.args.FArgs = lo.fargs
	return lo.fn(lo.args)
}

// Driver is the local (non-proxied) implementation of API for one device.
type Driver struct {
	dev     *gpu.Device
	engine  *nccl.Engine
	kernels Registry
	params  Params

	streams    map[Stream]*gpu.Stream
	nextStream Stream
	events     map[Event]*eventState
	nextEvent  Event
	bufs       map[Buf]int // handle -> gpu buffer id
	nextBuf    Buf
	comms      map[Comm]*nccl.Comm
	nextComm   Comm

	launchFree *launchOp
}

var _ API = (*Driver)(nil)

// NewDriver creates a driver for dev with the default stream pre-created.
func NewDriver(dev *gpu.Device, engine *nccl.Engine, kernels Registry, params Params) (*Driver, error) {
	d := &Driver{
		dev:        dev,
		engine:     engine,
		kernels:    kernels,
		params:     params,
		streams:    make(map[Stream]*gpu.Stream),
		nextStream: 1,
		events:     make(map[Event]*eventState),
		nextEvent:  1,
		bufs:       make(map[Buf]int),
		nextBuf:    1,
		comms:      make(map[Comm]*nccl.Comm),
		nextComm:   1,
	}
	gs, err := dev.NewStream()
	if err != nil {
		return nil, err
	}
	d.streams[DefaultStream] = gs
	return d, nil
}

// BufData reads a buffer's contents directly from the device context,
// bypassing streams. It is infrastructure-side only (not part of API): the
// recovery controller uses it to salvage parameter state from a device
// whose driver is corrupt or whose streams are wedged — the caller charges
// the transfer time explicitly. It fails when GPU state is not accessible
// (sticky error) or the device is lost, the §4.2 strategy-3 cases.
func (d *Driver) BufData(b Buf) (tensor.Vector, error) {
	if err := d.healthErr(); err != nil {
		return nil, err
	}
	gb, err := d.buf(b)
	if err != nil {
		return nil, err
	}
	return gb.Data.Clone(), nil
}

// Engine exposes the collective engine.
func (d *Driver) Engine() *nccl.Engine { return d.engine }

// call charges the fixed host API latency and maps device health onto API
// errors. Both sticky errors and driver corruption poison every subsequent
// API call, as in real CUDA; the difference the recovery paths exploit is
// that a corrupt context's device *memory* remains readable through the
// proxy server's privileged BufData path (§4.2 strategy 2: "the GPU is
// still accessible"), while a sticky context's is not (strategy 3).
func (d *Driver) call(p *vclock.Proc) error {
	if d.params.CallLatency > 0 {
		p.Sleep(d.params.CallLatency)
	}
	if d.dev.Health() == gpu.DriverCorrupt {
		return gpu.ErrCorrupt
	}
	return d.healthErr()
}

func (d *Driver) stream(s Stream) (*gpu.Stream, error) {
	gs, ok := d.streams[s]
	if !ok {
		return nil, fmt.Errorf("%w: stream %d", ErrBadHandle, s)
	}
	return gs, nil
}

func (d *Driver) buf(b Buf) (*gpu.Buffer, error) {
	id, ok := d.bufs[b]
	if !ok {
		return nil, fmt.Errorf("%w: buf %d", ErrBadHandle, b)
	}
	return d.dev.Buf(id)
}

// Malloc allocates device memory. See API.
func (d *Driver) Malloc(p *vclock.Proc, bytes int64, elems int, tag string) (Buf, error) {
	if err := d.call(p); err != nil {
		return 0, err
	}
	gb, err := d.dev.Alloc(bytes, elems, tag)
	if err != nil {
		return 0, err
	}
	h := d.nextBuf
	d.nextBuf++
	d.bufs[h] = gb.ID
	return h, nil
}

// Free releases device memory. See API.
func (d *Driver) Free(p *vclock.Proc, b Buf) error {
	if err := d.call(p); err != nil {
		return err
	}
	id, ok := d.bufs[b]
	if !ok {
		return fmt.Errorf("%w: buf %d", ErrBadHandle, b)
	}
	delete(d.bufs, b)
	return d.dev.Free(id)
}

// MemcpyH2D asynchronously copies host data to a device buffer. See API.
func (d *Driver) MemcpyH2D(p *vclock.Proc, dst Buf, src []float32, s Stream) error {
	if err := d.call(p); err != nil {
		return err
	}
	gb, err := d.buf(dst)
	if err != nil {
		return err
	}
	gs, err := d.stream(s)
	if err != nil {
		return err
	}
	lo := d.getLaunch()
	lo.bufs = append(lo.bufs, gb)
	lo.host = append(lo.host[:0], src...) // capture at call time
	lo.op.Name = "memcpyH2D"
	lo.op.Dur = gpu.TransferTime(gb.ModelBytes, d.params.H2DBandwidth)
	gs.EnqueueAsync(&lo.op)
	return nil
}

// MemcpyD2H synchronously copies a device buffer to the host. See API.
func (d *Driver) MemcpyD2H(p *vclock.Proc, src Buf, s Stream) ([]float32, error) {
	if err := d.call(p); err != nil {
		return nil, err
	}
	gb, err := d.buf(src)
	if err != nil {
		return nil, err
	}
	gs, err := d.stream(s)
	if err != nil {
		return nil, err
	}
	var out []float32
	dur := gpu.TransferTime(gb.ModelBytes, d.params.D2HBandwidth)
	op := gpu.FuncOp("memcpyD2H", dur, func(dev *gpu.Device) error {
		out = append([]float32(nil), gb.Data...)
		return nil
	})
	done := gs.Enqueue(op)
	p.Wait(done) // cudaMemcpy D2H is synchronous: hangs if the stream is wedged
	if op.Err != nil {
		return nil, op.Err
	}
	return out, nil
}

// StreamCreate creates a new execution stream. See API.
func (d *Driver) StreamCreate(p *vclock.Proc) (Stream, error) {
	if err := d.call(p); err != nil {
		return 0, err
	}
	gs, err := d.dev.NewStream()
	if err != nil {
		return 0, err
	}
	h := d.nextStream
	d.nextStream++
	d.streams[h] = gs
	return h, nil
}

// StreamDestroy destroys a stream, dropping queued work. See API.
func (d *Driver) StreamDestroy(p *vclock.Proc, s Stream) error {
	if err := d.call(p); err != nil {
		return err
	}
	gs, ok := d.streams[s]
	if !ok {
		return fmt.Errorf("%w: stream %d", ErrBadHandle, s)
	}
	delete(d.streams, s)
	return d.dev.DestroyStream(gs.ID)
}

// StreamSynchronize blocks until all work queued on s completes. See API.
func (d *Driver) StreamSynchronize(p *vclock.Proc, s Stream) error {
	if err := d.call(p); err != nil {
		return err
	}
	gs, err := d.stream(s)
	if err != nil {
		return err
	}
	sp := trace.Of(d.dev.Env()).Begin(p.Now(), "cuda", d.dev.Lane(), "stream-sync", "stream", int(s))
	p.Wait(gs.DrainEvent()) // hangs if the stream is wedged at a collective
	sp.End(p.Now())
	if err := d.healthErr(); err != nil {
		return err
	}
	// Surface async op failures (failed collectives, poisoned event
	// waits): the stream is drained but its work did not all succeed.
	if err := gs.AsyncErr(); err != nil {
		trace.Of(d.dev.Env()).Instant(p.Now(), "cuda", d.dev.Lane(), "async-err", "err", err)
		return err
	}
	return nil
}

// StreamWaitEvent makes all future work on s wait for the event's most
// recent record. Waiting on a never-recorded event is a no-op, per CUDA.
func (d *Driver) StreamWaitEvent(p *vclock.Proc, s Stream, ev Event) error {
	if err := d.call(p); err != nil {
		return err
	}
	gs, err := d.stream(s)
	if err != nil {
		return err
	}
	es, ok := d.events[ev]
	if !ok {
		return fmt.Errorf("%w: event %d", ErrBadHandle, ev)
	}
	rec := es.rec // capture the record at call time
	if rec == nil {
		return nil
	}
	gs.Enqueue(&gpu.Op{
		Name: "streamWaitEvent",
		Ev:   rec.Done,
		Exec: func(*gpu.Device) error { return rec.Err }, // a poisoned event poisons the waiting stream
	})
	return nil
}

// EventCreate creates a cudaEvent. See API.
func (d *Driver) EventCreate(p *vclock.Proc) (Event, error) {
	if err := d.call(p); err != nil {
		return 0, err
	}
	h := d.nextEvent
	d.nextEvent++
	d.events[h] = &eventState{}
	return h, nil
}

// EventRecord captures the current tail of stream s into the event. See API.
func (d *Driver) EventRecord(p *vclock.Proc, ev Event, s Stream) error {
	if err := d.call(p); err != nil {
		return err
	}
	es, ok := d.events[ev]
	if !ok {
		return fmt.Errorf("%w: event %d", ErrBadHandle, ev)
	}
	gs, err := d.stream(s)
	if err != nil {
		return err
	}
	// The record op completes with the stream's accumulated async error:
	// an event recorded after a failed collective is poisoned, and the
	// poison travels to whoever synchronizes with (or waits on) it — the
	// async-error propagation a NCCL watchdog relies on. It waits for
	// nothing: the stream's order is the whole of it.
	es.rec = &gpu.Op{
		Name: "eventRecord",
		Ev:   d.dev.Env().DoneEvent(),
		Exec: func(*gpu.Device) error { return gs.AsyncErr() },
	}
	gs.Enqueue(es.rec)
	return nil
}

// EventQuery reports whether the event's recorded work has completed.
// See API.
func (d *Driver) EventQuery(p *vclock.Proc, ev Event) (bool, error) {
	if err := d.call(p); err != nil {
		return false, err
	}
	es, ok := d.events[ev]
	if !ok {
		return false, fmt.Errorf("%w: event %d", ErrBadHandle, ev)
	}
	if es.rec == nil {
		return true, nil // unrecorded events report complete
	}
	return es.rec.Done.Triggered(), es.rec.Err
}

// EventDestroy destroys a cudaEvent. See API.
func (d *Driver) EventDestroy(p *vclock.Proc, ev Event) error {
	if err := d.call(p); err != nil {
		return err
	}
	if _, ok := d.events[ev]; !ok {
		return fmt.Errorf("%w: event %d", ErrBadHandle, ev)
	}
	delete(d.events, ev)
	return nil
}

// Launch asynchronously enqueues a kernel. See API.
func (d *Driver) Launch(p *vclock.Proc, lp LaunchParams, s Stream) error {
	if err := d.call(p); err != nil {
		return err
	}
	fn, ok := d.kernels[lp.Kernel]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownKernel, lp.Kernel)
	}
	gs, err := d.stream(s)
	if err != nil {
		return err
	}
	lo := d.getLaunch()
	lo.kernel = lp.Kernel
	lo.fn = fn
	for _, bh := range lp.Bufs {
		gb, err := d.buf(bh)
		if err != nil {
			lo.release()
			return err
		}
		lo.bufs = append(lo.bufs, gb)
	}
	lo.iargs = append(lo.iargs[:0], lp.IArgs...)
	lo.fargs = append(lo.fargs[:0], lp.FArgs...)
	lo.op.Dur = lp.Dur
	gs.EnqueueAsync(&lo.op)
	return nil
}

// DeviceSynchronize blocks until every stream drains. See API.
func (d *Driver) DeviceSynchronize(p *vclock.Proc) error {
	if err := d.call(p); err != nil {
		return err
	}
	// Deterministic order: ascending handle.
	for h := Stream(0); h < d.nextStream; h++ {
		if gs, ok := d.streams[h]; ok {
			p.Wait(gs.DrainEvent())
		}
	}
	return d.healthErr()
}

// BufChecksum hashes a buffer's contents. See API.
func (d *Driver) BufChecksum(p *vclock.Proc, b Buf) (uint64, error) {
	if err := d.call(p); err != nil {
		return 0, err
	}
	gb, err := d.buf(b)
	if err != nil {
		return 0, err
	}
	return gb.Data.Checksum(), nil
}

// CommInit rendezvouses with the other ranks and returns a communicator
// handle. See API.
func (d *Driver) CommInit(p *vclock.Proc, key string, gen, nranks, rank int) (Comm, error) {
	if err := d.call(p); err != nil {
		return 0, err
	}
	nc, err := d.engine.CommInitRank(p, key, gen, nranks, rank, d.dev)
	if err != nil {
		return 0, err
	}
	h := d.nextComm
	d.nextComm++
	d.comms[h] = nc
	return h, nil
}

// CommDestroy invalidates a communicator handle. See API.
func (d *Driver) CommDestroy(p *vclock.Proc, c Comm) error {
	if err := d.call(p); err != nil {
		return err
	}
	nc, ok := d.comms[c]
	if !ok {
		return fmt.Errorf("%w: comm %d", ErrBadHandle, c)
	}
	nc.Destroy()
	delete(d.comms, c)
	return nil
}

// collectiveArgs resolves common collective-call handles.
func (d *Driver) collectiveArgs(c Comm, b Buf, s Stream) (*nccl.Comm, *gpu.Buffer, *gpu.Stream, error) {
	nc, ok := d.comms[c]
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: comm %d", ErrBadHandle, c)
	}
	gb, err := d.buf(b)
	if err != nil {
		return nil, nil, nil, err
	}
	gs, err := d.stream(s)
	if err != nil {
		return nil, nil, nil, err
	}
	return nc, gb, gs, nil
}

// AllReduce enqueues a sum-allreduce. See API.
func (d *Driver) AllReduce(p *vclock.Proc, c Comm, b Buf, s Stream) error {
	if err := d.call(p); err != nil {
		return err
	}
	nc, gb, gs, err := d.collectiveArgs(c, b, s)
	if err != nil {
		return err
	}
	_, err = nc.AllReduce(gs, gb)
	return err
}

// AllGather enqueues an allgather. See API.
func (d *Driver) AllGather(p *vclock.Proc, c Comm, in, out Buf, s Stream) error {
	if err := d.call(p); err != nil {
		return err
	}
	nc, inBuf, gs, err := d.collectiveArgs(c, in, s)
	if err != nil {
		return err
	}
	outBuf, err := d.buf(out)
	if err != nil {
		return err
	}
	_, err = nc.AllGather(gs, inBuf, outBuf)
	return err
}

// ReduceScatter enqueues a reduce-scatter. See API.
func (d *Driver) ReduceScatter(p *vclock.Proc, c Comm, in, out Buf, s Stream) error {
	if err := d.call(p); err != nil {
		return err
	}
	nc, inBuf, gs, err := d.collectiveArgs(c, in, s)
	if err != nil {
		return err
	}
	outBuf, err := d.buf(out)
	if err != nil {
		return err
	}
	_, err = nc.ReduceScatter(gs, inBuf, outBuf)
	return err
}

// Send enqueues a point-to-point send. See API.
func (d *Driver) Send(p *vclock.Proc, c Comm, b Buf, peer int, s Stream) error {
	if err := d.call(p); err != nil {
		return err
	}
	nc, gb, gs, err := d.collectiveArgs(c, b, s)
	if err != nil {
		return err
	}
	_, err = nc.Send(gs, gb, peer)
	return err
}

// Recv enqueues a point-to-point receive. See API.
func (d *Driver) Recv(p *vclock.Proc, c Comm, b Buf, peer int, s Stream) error {
	if err := d.call(p); err != nil {
		return err
	}
	nc, gb, gs, err := d.collectiveArgs(c, b, s)
	if err != nil {
		return err
	}
	_, err = nc.Recv(gs, gb, peer)
	return err
}

// healthErr maps a lost or sticky device onto its error. A corrupt driver
// context is not one here: its streams still drain and its memory still
// reads (§4.2 strategy 2), so only call refuses it.
func (d *Driver) healthErr() error {
	switch d.dev.Health() {
	case gpu.Hard:
		return gpu.ErrDeviceLost
	case gpu.Sticky:
		return gpu.ErrSticky
	default:
		return nil
	}
}
