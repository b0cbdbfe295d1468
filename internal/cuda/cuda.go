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
// All handles (Buf, Stream, Event, Comm) are plain integers so that a call
// is plain data that can cross the device-proxy wire (§4, Figure 2) and so the
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

// LaunchParams describes one kernel launch. Everything in it is plain
// data; Call.CloneInto copies its slices.
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

	Doer
}

// Doer runs calls held as data. Its Do runs c as the API method c.Op names
// would: how the interception layer, replay and the proxy server hand a
// call on, and what an Adapter packs the typed methods' calls for. The Call
// goes by value: a pointer handed to an interface method would move every
// caller's Call to the heap.
type Doer interface {
	Do(p *vclock.Proc, c Call) (Result, error)
}

// Params models host-side API costs and PCIe bandwidths.
type Params struct {
	// CallLatency is the host cost of issuing any API call. The caller
	// pays it as Driver.Latency says: an async call's is owed, and paid at
	// the caller's next synchronising call.
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
	d       *Driver
	ev      Event // the event whose record this is, or was
}

func (r *record) exec(*gpu.Device) error { return r.gs.AsyncErr() }

// finished tells the driver's watcher that the record completed, while it is
// still its event's.
func (r *record) finished() {
	if w := r.d.watch; w != nil {
		if cur, _ := r.d.events.At(int(r.ev)); cur == r {
			w.EventDone(r.ev)
		}
	}
}

// state is what an EventQuery of the record answers: whether its work
// completed, and the error it completed with. An unrecorded event reports
// complete.
func (r *record) state() (bool, error) {
	if r.op.Done == nil {
		return true, nil
	}
	return r.done.Triggered(), r.op.Err
}

// EventState is EventQuery's answer for ev now, in zero time and without the
// call: the interception layer's watchdog reads its watched events with it
// at each poll's tick.
func (d *Driver) EventState(ev Event) (bool, error) {
	if d.dev.Health() == gpu.DriverCorrupt {
		return false, gpu.ErrCorrupt
	}
	if err := d.healthErr(); err != nil {
		return false, err
	}
	rec, err := lookup(&d.events, "event", int(ev))
	if err != nil {
		return false, err
	}
	return rec.state()
}

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
// Its typed API methods are the embedded Adapter's, all over Do.
type Driver struct {
	Adapter

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

	launchBufs []*gpu.Buffer // resolve's scratch for a launch's buffers
	step       Pending       // Step's: its calls never wait, so it is free again when Step returns

	watch Watcher // told what moves an EventQuery's answer; nil: nobody
}

// A Watcher is told, in zero time, of each change that can move an
// EventQuery's answer (EventState): the interception layer's watchdog sleeps
// until one of them could matter to a poll. Each is called at the instant
// of its change, from whatever process made it, and must not block.
type Watcher interface {
	// EventDone: ev's record, the one EventQuery reads, completed now.
	EventDone(ev Event)
	// EventRecorded: ev was recorded again now, so its record is pending.
	EventRecorded(ev Event)
	// HealthChanged: the device's health changed now or, over the device
	// proxy, the server went down.
	HealthChanged()
}

// Watch makes w the driver's watcher (nil: none), for its events and its
// device's health.
func (d *Driver) Watch(w Watcher) {
	d.watch = w
	var fn func()
	if w != nil {
		fn = w.HealthChanged
	}
	d.dev.OnHealth(fn)
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
	d.Adapter = Adapt(d)
	d.streams.Add(gs)
	return d, nil
}

// BufData reads a buffer's contents directly from the device context,
// bypassing streams. It is infrastructure-side only (not part of API): the
// recovery controller uses it to salvage parameter state from a device
// whose driver is corrupt or whose streams are wedged — the caller charges
// the transfer time explicitly. It fails when GPU state is not accessible
// (sticky error) or the device is lost, the §4.2 strategy-3 cases.
//
// The result is a view of device memory, not a copy: it holds the buffer's
// contents until the caller next yields, after which kernels, copies and a
// repair may change or drop it. A caller that only encodes the contents
// does so before yielding; one that keeps them copies them. It settles the
// device first (gpu.Device.Settle), so every op completed before now shows.
func (d *Driver) BufData(b Buf) (tensor.Vector, error) {
	if err := d.healthErr(); err != nil {
		return nil, err
	}
	gb, err := d.buffer(b)
	if err != nil {
		return nil, err
	}
	d.dev.Settle()
	return gb.Data, nil
}

// Engine exposes the collective engine.
func (d *Driver) Engine() *nccl.Engine { return d.engine }

// buffer resolves a buffer handle: the driver's table names a device buffer
// ID, which the device may have forgotten since (a repair: ErrNoSuchBuf).
func (d *Driver) buffer(b Buf) (*gpu.Buffer, error) {
	id, err := lookup(&d.bufs, "buf", int(b))
	if err != nil {
		return nil, err
	}
	return d.dev.Buf(id)
}

// objs are the device objects a call's fields name.
type objs struct {
	buf, buf2 *gpu.Buffer
	gs        *gpu.Stream
	rec       *record
	nc        *nccl.Comm
	fn        KernelFunc
	bufs      []*gpu.Buffer // a launch's, in the driver's scratch slice
}

// resolve looks up the device object behind every field of c that its op
// reads, as the op table's uses column names them, in Handles.Translate's
// order after a launch's kernel. It stops at the first miss.
func (d *Driver) resolve(c *Call) (o objs, err error) {
	uses := c.Op.Info().uses
	if uses&useKernel != 0 {
		var ok bool
		if o.fn, ok = d.kernels[c.Launch.Kernel]; !ok {
			return o, fmt.Errorf("%w: %q", ErrUnknownKernel, c.Launch.Kernel)
		}
	}
	if uses&useBuf != 0 {
		o.buf, err = d.buffer(c.Buf)
	}
	if uses&useBuf2 != 0 && err == nil {
		o.buf2, err = d.buffer(c.Buf2)
	}
	if uses&useStream != 0 && err == nil {
		o.gs, err = lookup(&d.streams, "stream", int(c.Stream))
	}
	if uses&useEvent != 0 && err == nil {
		o.rec, err = lookup(&d.events, "event", int(c.Event))
	}
	if uses&useComm != 0 && err == nil {
		o.nc, err = lookup(&d.comms, "comm", int(c.Comm))
	}
	if uses&useLaunchBufs != 0 && err == nil {
		o.bufs = d.launchBufs[:0]
		for _, b := range c.Launch.Bufs {
			var gb *gpu.Buffer
			if gb, err = d.buffer(b); err != nil {
				clear(o.bufs) // the scratch keeps no buffer reachable
				break
			}
			o.bufs = append(o.bufs, gb)
		}
		d.launchBufs = o.bufs
	}
	return o, err
}

// Latency is the call-latency rule, the one every caller of the driver
// follows before Start: it returns what the caller p sleeps before a call of
// op. An async op (the op table's Async column: launches, H2D copies, event
// records and waits, collectives) returns once queued, as the device runs
// it behind the host's back, so its CallLatency is added to p's clock debt
// and it sleeps nothing. Any other op synchronises: p sleeps its debt and
// its own CallLatency, once. The debt is p's own, never the driver's: two
// processes calling one driver never pay each other's.
func (d *Driver) Latency(p *vclock.Proc, op Op) vclock.Time {
	if op.Info().Async {
		p.Owe(d.params.CallLatency)
		return 0
	}
	return p.Settle() + d.params.CallLatency
}

// Do implements API: it runs one call. It charges the host API latency as
// Latency says and maps device health onto API errors: both sticky errors
// and driver corruption poison every subsequent API call, as in real CUDA;
// the difference the recovery paths exploit is that a corrupt context's
// device *memory* remains readable through the proxy server's privileged
// BufData path (§4.2 strategy 2: "the GPU is still accessible"), while a
// sticky context's is not (strategy 3). It then resolves the objects the
// call names and executes the op: Do is the coroutine loop over the steps a
// Pending takes, blocking where they wait. Outputs are returned even
// alongside an error.
func (d *Driver) Do(p *vclock.Proc, c Call) (Result, error) {
	if lat := d.Latency(p, c.Op); lat > 0 {
		p.Sleep(lat)
	}
	var k Pending
	for d.Start(p, &c, &k); k.waits; k.Resume(p) {
		p.Await(k.until)
	}
	return k.r, k.err
}

// Step runs c, a call that never waits, in steps, for a caller with no
// stack to block on: the interception layer's watchdog, a callback process,
// and its EventQuery. Step 0 sleeps the latency Latency gives, when there
// is one; the next step runs the call. Each reports the wait before the
// step after it or, when there is none, the call's outputs.
func (d *Driver) Step(p *vclock.Proc, c *Call, n int) (vclock.Until, bool, Result, error) {
	if n == 0 {
		if lat := d.Latency(p, c.Op); lat > 0 {
			return vclock.Until{D: lat}, true, Result{}, nil
		}
	}
	k := &d.step
	if d.Start(p, c, k); k.waits {
		panic(fmt.Sprintf("cuda: Driver.Step runs only calls that never wait, not %v", c.Op))
	}
	return vclock.Until{}, false, k.r, k.err
}

// Pending is one driver call in progress, for a caller that runs it in
// steps because it has no stack to block on: a device proxy handler, which
// is a callback process. Start runs the call up to its first wait; while
// Waits reports one, the caller waits for it and calls Resume. Four ops
// wait: MemcpyD2H for its copy, StreamSynchronize for its stream's drain,
// DeviceSynchronize for each stream's drain in ascending handle order, and
// CommInit for the rendezvous and the bootstrap (nccl.Init). Do runs the
// same steps, so each op body is written once.
type Pending struct {
	d     *Driver
	op    Op
	waits bool
	until vclock.Until
	r     Result
	err   error

	od  *d2hOp      // MemcpyD2H's copy
	gs  *gpu.Stream // StreamSynchronize's stream,
	sp  trace.Span  // and its span
	pos int         // DeviceSynchronize: the stream-table position waited on
	ci  nccl.Init   // CommInit's rendezvous
}

// Waits reports whether the call is stopped at a wait, and what for.
func (k *Pending) Waits() (vclock.Until, bool) { return k.until, k.waits }

// Result returns the finished call's outputs, which come even alongside an
// error.
func (k *Pending) Result() (Result, error) { return k.r, k.err }

// Start runs c on d into k, up to its first wait. The call latency comes
// before it, and is the caller's to charge by Latency, as Do does.
func (d *Driver) Start(p *vclock.Proc, c *Call, k *Pending) {
	k.d, k.op, k.waits, k.r, k.err = d, c.Op, false, Result{}, nil
	if d.dev.Health() == gpu.DriverCorrupt {
		k.err = gpu.ErrCorrupt
		return
	}
	if k.err = d.healthErr(); k.err != nil {
		return
	}
	o, err := d.resolve(c)
	if k.err = err; err != nil {
		return
	}
	r := &k.r
	switch c.Op {
	case OpMalloc:
		var gb *gpu.Buffer
		if gb, k.err = d.dev.Alloc(c.Bytes, c.Elems, c.Tag); k.err == nil {
			r.Handle = d.bufs.Add(gb.ID)
		}
	case OpFree:
		d.bufs.Delete(int(c.Buf))
		k.err = d.dev.Free(o.buf.ID)
	case OpMemcpyH2D:
		lo := d.getLaunch()
		lo.bufs = append(lo.bufs, o.buf)
		lo.host = append(lo.host[:0], c.Data...) // capture at call time
		lo.op.Name = "memcpyH2D"
		lo.op.Dur = gpu.TransferTime(o.buf.ModelBytes, d.params.H2DBandwidth)
		o.gs.EnqueueAsync(&lo.op)
	case OpMemcpyD2H:
		od, fresh := d.d2hs.Get()
		if fresh {
			od.op.Name, od.op.Exec = "memcpyD2H", od.exec
		}
		od.src, od.op.Dur, od.op.Err = o.buf, gpu.TransferTime(o.buf.ModelBytes, d.params.D2HBandwidth), nil
		d.dev.Env().InitEvent(&od.done, "op")
		od.op.Done = &od.done
		o.gs.Enqueue(&od.op)
		k.od = od
		k.wait(&od.done) // cudaMemcpy D2H is synchronous: hangs if the stream is wedged
	case OpStreamCreate:
		var gs *gpu.Stream
		if gs, k.err = d.dev.NewStream(); k.err == nil {
			r.Handle = d.streams.Add(gs)
		}
	case OpStreamDestroy: // drops queued work
		d.streams.Delete(int(c.Stream))
		k.err = d.dev.DestroyStream(o.gs.ID)
	case OpStreamSynchronize:
		k.gs = o.gs
		k.sp = trace.Of(d.dev.Env()).Begin(p.Now(), "cuda", d.dev.Lane(), "stream-sync", "stream", int(c.Stream))
		k.wait(o.gs.DrainEvent()) // hangs if the stream is wedged at a collective
	case OpStreamWaitEvent:
		// Future work on the stream waits for the event's record at call
		// time; a never-recorded event is no wait, per CUDA.
		if o.rec.op.Done == nil {
			break
		}
		w, fresh := d.waits.Get()
		if fresh {
			w.d = d
			w.op.Name, w.op.Exec, w.op.Free = "streamWaitEvent", w.exec, w.release
		}
		w.rec = o.rec
		o.rec.waiters++
		w.op.Ev = &o.rec.done // a poisoned event poisons the waiting stream
		d.dev.Env().InitEvent(&w.done, "op")
		w.op.Done = &w.done
		o.gs.Enqueue(&w.op)
	case OpEventCreate:
		rec := &record{d: d}
		r.Handle = d.events.Add(rec)
		rec.ev = Event(r.Handle)
	case OpEventRecord:
		rec := o.rec
		if rec.op.Done != nil && (!rec.done.Triggered() || rec.waiters > 0) {
			rec = &record{d: d, ev: c.Event}
			d.events.Set(int(c.Event), rec)
		}
		// The record op completes with the stream's accumulated async error:
		// an event recorded after a failed collective is poisoned, and the
		// poison travels to whoever synchronizes with (or waits on) it — the
		// async-error propagation a NCCL watchdog relies on. It waits for
		// nothing: the stream's order is the whole of it.
		if rec.op.Exec == nil {
			rec.op.Name, rec.op.Ev, rec.op.Exec, rec.op.Free = "eventRecord", d.dev.Env().DoneEvent(), rec.exec, rec.finished
		}
		rec.gs, rec.op.Err = o.gs, nil
		d.dev.Env().InitEvent(&rec.done, "op")
		rec.op.Done = &rec.done
		o.gs.Enqueue(&rec.op)
		if d.watch != nil {
			d.watch.EventRecorded(c.Event)
		}
	case OpEventQuery:
		r.Bool, k.err = o.rec.state()
	case OpEventDestroy:
		d.events.Delete(int(c.Event))
	case OpLaunch:
		lo := d.getLaunch()
		lo.kernel = c.Launch.Kernel
		lo.fn = o.fn
		lo.bufs = append(lo.bufs, o.bufs...)
		clear(o.bufs)
		lo.iargs = append(lo.iargs[:0], c.Launch.IArgs...)
		lo.fargs = append(lo.fargs[:0], c.Launch.FArgs...)
		lo.op.Dur = c.Launch.Dur
		o.gs.EnqueueAsync(&lo.op)
	case OpDeviceSynchronize:
		k.pos = -1
		k.Resume(p)
	case OpBufChecksum:
		d.dev.Settle()
		r.U64 = o.buf.Data.Checksum()
	case OpCommInit: // rendezvouses with the other ranks
		k.initStep(d.engine.StartInit(&k.ci, c.Key, c.Gen, c.NRanks, c.Rank, d.dev))
	case OpCommDestroy:
		o.nc.Destroy()
		d.comms.Delete(int(c.Comm))
	case OpAllReduce:
		_, k.err = o.nc.AllReduce(o.gs, o.buf)
	case OpAllGather:
		_, k.err = o.nc.AllGather(o.gs, o.buf, o.buf2)
	case OpReduceScatter:
		_, k.err = o.nc.ReduceScatter(o.gs, o.buf, o.buf2)
	case OpSend:
		_, k.err = o.nc.Send(o.gs, o.buf, c.Peer)
	case OpRecv:
		_, k.err = o.nc.Recv(o.gs, o.buf, c.Peer)
	default:
		k.err = fmt.Errorf("cuda: unknown op %v", c.Op)
	}
}

// Resume runs the call on from the wait it stopped at, to its next wait or
// its end.
func (k *Pending) Resume(p *vclock.Proc) {
	d := k.d
	k.waits = false
	switch k.op {
	case OpMemcpyD2H:
		od := k.od
		if k.err = od.op.Err; k.err == nil {
			k.r.Data = od.out
		}
		od.src, od.out = nil, nil
		d.d2hs.Put(od)
	case OpStreamSynchronize:
		k.sp.End(p.Now())
		// Surface async op failures (failed collectives, poisoned event
		// waits): the stream is drained but its work did not all succeed.
		if k.err = d.healthErr(); k.err == nil {
			if k.err = k.gs.AsyncErr(); k.err != nil {
				trace.Of(d.dev.Env()).Instant(p.Now(), "cuda", d.dev.Lane(), "async-err", "err", k.err)
			}
		}
	case OpDeviceSynchronize:
		// Each stream's drain in ascending handle order, as dense.Table.Each
		// visits them: a stream made during an earlier wait is waited for
		// too. Past the last one the call is done.
		pos, gs, ok := d.streams.Next(k.pos + 1)
		if !ok {
			k.err = d.healthErr()
			break
		}
		k.pos = pos
		k.wait(gs.DrainEvent())
	case OpCommInit:
		k.initStep(k.ci.Step())
	}
}

func (k *Pending) wait(ev *vclock.Event) { k.waits, k.until = true, vclock.Until{Ev: ev} }

// initStep takes a CommInit on from a step of its rendezvous.
func (k *Pending) initStep(waits bool) {
	if k.waits, k.until = waits, k.ci.Until; !waits {
		if k.err = k.ci.Err; k.err == nil {
			k.r.Handle = k.d.comms.Add(k.ci.Comm)
		}
	}
}

// healthErr maps a lost or sticky device onto its error. A corrupt driver
// context is not one here: its streams still drain and its memory still
// reads (§4.2 strategy 2), so only a call's start refuses it.
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
