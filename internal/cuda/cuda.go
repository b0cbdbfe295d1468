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
	"slices"

	"jitckpt/internal/dense"
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

// record is the device-side state of a cudaEvent: the op of its most recent
// EventRecord, with that op's completion embedded. op.Done is nil while the
// event was never recorded; otherwise done is the event's completion and
// op.Err its poison. The event's next EventRecord reuses the record once it
// has completed and no StreamWaitEvent op still waits on it.
type record struct {
	op      gpu.Op
	done    vclock.Event
	gs      *gpu.Stream // the stream recorded on: its async error is the record's
	waiters int
}

func (r *record) exec(*gpu.Device) error { return r.gs.AsyncErr() }

// waitOp is one StreamWaitEvent's op: its stream waits for rec and takes on
// rec's error. Pooled like launchOp: the stream returns it at completion.
type waitOp struct {
	d    *Driver
	op   gpu.Op
	done vclock.Event
	rec  *record
}

func (w *waitOp) exec(*gpu.Device) error { return w.rec.op.Err }

func (w *waitOp) release() {
	w.rec.waiters--
	w.rec, w.op.Err = nil, nil
	w.d.waits.Put(w)
}

// d2hOp is one MemcpyD2H's op, pooled: its caller waits for it, takes the
// copy and hands it back.
type d2hOp struct {
	op   gpu.Op
	done vclock.Event
	src  *gpu.Buffer
	out  []float32
}

func (o *d2hOp) exec(*gpu.Device) error {
	o.out = append([]float32(nil), o.src.Data...)
	return nil
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
}

func (d *Driver) getLaunch() *launchOp {
	lo, fresh := d.launches.Get()
	if fresh {
		lo.d = d
		lo.op.Namer, lo.op.Exec, lo.op.Free = lo, lo.exec, lo.release
	}
	return lo
}

func (lo *launchOp) release() {
	clear(lo.bufs)
	lo.bufs = lo.bufs[:0]
	lo.fn = nil
	lo.op.Name = ""
	lo.op.Err = nil
	lo.d.launches.Put(lo)
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
	lo.args.Bufs = slices.Grow(lo.args.Bufs[:0], len(lo.bufs))
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

	// Handle 0 is the default stream and, in every other space, invalid.
	streams dense.Table[*gpu.Stream]
	events  dense.Table[*record]
	bufs    dense.Table[int] // device buffer IDs: the device may have forgotten one
	comms   dense.Table[*nccl.Comm]

	launches gpu.FreeList[launchOp]
	waits    gpu.FreeList[waitOp]
	d2hs     gpu.FreeList[d2hOp]
}

var _ API = (*Driver)(nil)

// NewDriver creates a driver for dev with the default stream pre-created.
func NewDriver(dev *gpu.Device, engine *nccl.Engine, kernels Registry, params Params) (*Driver, error) {
	gs, err := dev.NewStream()
	if err != nil {
		return nil, err
	}
	d := &Driver{
		dev:     dev,
		engine:  engine,
		kernels: kernels,
		params:  params,
		events:  dense.Start[*record](1),
		bufs:    dense.Start[int](1),
		comms:   dense.Start[*nccl.Comm](1),
	}
	d.streams.Add(gs)
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
	if gs, ok := d.streams.At(int(s)); ok {
		return gs, nil
	}
	return nil, fmt.Errorf("%w: stream %d", ErrBadHandle, s)
}

func (d *Driver) buf(b Buf) (*gpu.Buffer, error) {
	if id, ok := d.bufs.At(int(b)); ok {
		return d.dev.Buf(id)
	}
	return nil, fmt.Errorf("%w: buf %d", ErrBadHandle, b)
}

func (d *Driver) event(ev Event) (*record, error) {
	if r, ok := d.events.At(int(ev)); ok {
		return r, nil
	}
	return nil, fmt.Errorf("%w: event %d", ErrBadHandle, ev)
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
	return Buf(d.bufs.Add(gb.ID)), nil
}

// Free releases device memory. See API.
func (d *Driver) Free(p *vclock.Proc, b Buf) error {
	if err := d.call(p); err != nil {
		return err
	}
	id, ok := d.bufs.At(int(b))
	if !ok {
		return fmt.Errorf("%w: buf %d", ErrBadHandle, b)
	}
	d.bufs.Delete(int(b))
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
	o, fresh := d.d2hs.Get()
	if fresh {
		o.op.Name, o.op.Exec = "memcpyD2H", o.exec
	}
	o.src, o.op.Dur, o.op.Err = gb, gpu.TransferTime(gb.ModelBytes, d.params.D2HBandwidth), nil
	d.dev.Env().InitEvent(&o.done, "op")
	o.op.Done = &o.done
	gs.Enqueue(&o.op)
	p.Wait(&o.done) // cudaMemcpy D2H is synchronous: hangs if the stream is wedged
	out, err := o.out, o.op.Err
	o.src, o.out = nil, nil
	d.d2hs.Put(o)
	if err != nil {
		return nil, err
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
	return Stream(d.streams.Add(gs)), nil
}

// StreamDestroy destroys a stream, dropping queued work. See API.
func (d *Driver) StreamDestroy(p *vclock.Proc, s Stream) error {
	if err := d.call(p); err != nil {
		return err
	}
	gs, err := d.stream(s)
	if err != nil {
		return err
	}
	d.streams.Delete(int(s))
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
	rec, err := d.event(ev) // the record at call time
	if err != nil || rec.op.Done == nil {
		return err
	}
	w, fresh := d.waits.Get()
	if fresh {
		w.d = d
		w.op.Name, w.op.Exec, w.op.Free = "streamWaitEvent", w.exec, w.release
	}
	w.rec = rec
	rec.waiters++
	w.op.Ev = &rec.done // a poisoned event poisons the waiting stream
	d.dev.Env().InitEvent(&w.done, "op")
	w.op.Done = &w.done
	gs.Enqueue(&w.op)
	return nil
}

// EventCreate creates a cudaEvent. See API.
func (d *Driver) EventCreate(p *vclock.Proc) (Event, error) {
	if err := d.call(p); err != nil {
		return 0, err
	}
	return Event(d.events.Add(&record{})), nil
}

// EventRecord captures the current tail of stream s into the event. See API.
func (d *Driver) EventRecord(p *vclock.Proc, ev Event, s Stream) error {
	if err := d.call(p); err != nil {
		return err
	}
	r, err := d.event(ev)
	if err != nil {
		return err
	}
	gs, err := d.stream(s)
	if err != nil {
		return err
	}
	if r.op.Done != nil && (!r.done.Triggered() || r.waiters > 0) {
		r = &record{}
		d.events.Set(int(ev), r)
	}
	// The record op completes with the stream's accumulated async error:
	// an event recorded after a failed collective is poisoned, and the
	// poison travels to whoever synchronizes with (or waits on) it — the
	// async-error propagation a NCCL watchdog relies on. It waits for
	// nothing: the stream's order is the whole of it.
	if r.op.Exec == nil {
		r.op.Name, r.op.Ev, r.op.Exec = "eventRecord", d.dev.Env().DoneEvent(), r.exec
	}
	r.gs, r.op.Err = gs, nil
	d.dev.Env().InitEvent(&r.done, "op")
	r.op.Done = &r.done
	gs.Enqueue(&r.op)
	return nil
}

// EventQuery reports whether the event's recorded work has completed.
// See API.
func (d *Driver) EventQuery(p *vclock.Proc, ev Event) (bool, error) {
	if err := d.call(p); err != nil {
		return false, err
	}
	r, err := d.event(ev)
	if err != nil || r.op.Done == nil {
		return err == nil, err // unrecorded events report complete
	}
	return r.done.Triggered(), r.op.Err
}

// EventDestroy destroys a cudaEvent. See API.
func (d *Driver) EventDestroy(p *vclock.Proc, ev Event) error {
	if err := d.call(p); err != nil {
		return err
	}
	if _, err := d.event(ev); err != nil {
		return err
	}
	d.events.Delete(int(ev))
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
	lo.bufs = slices.Grow(lo.bufs, len(lp.Bufs))
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
	d.streams.Each(func(_ int, gs *gpu.Stream) { p.Wait(gs.DrainEvent()) })
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
	return Comm(d.comms.Add(nc)), nil
}

// CommDestroy invalidates a communicator handle. See API.
func (d *Driver) CommDestroy(p *vclock.Proc, c Comm) error {
	if err := d.call(p); err != nil {
		return err
	}
	nc, ok := d.comms.At(int(c))
	if !ok {
		return fmt.Errorf("%w: comm %d", ErrBadHandle, c)
	}
	nc.Destroy()
	d.comms.Delete(int(c))
	return nil
}

// collectiveArgs resolves common collective-call handles.
func (d *Driver) collectiveArgs(c Comm, b Buf, s Stream) (*nccl.Comm, *gpu.Buffer, *gpu.Stream, error) {
	nc, ok := d.comms.At(int(c))
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
