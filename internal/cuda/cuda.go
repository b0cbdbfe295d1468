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
// does so before yielding; one that keeps them copies them.
func (d *Driver) BufData(b Buf) (tensor.Vector, error) {
	if err := d.healthErr(); err != nil {
		return nil, err
	}
	gb, err := d.buffer(b)
	if err != nil {
		return nil, err
	}
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

// Do implements API: it runs one call. It charges the fixed host API
// latency and maps device health onto API errors: both sticky errors and
// driver corruption poison every subsequent API call, as in real CUDA; the
// difference the recovery paths exploit is that a corrupt context's device
// *memory* remains readable through the proxy server's privileged BufData
// path (§4.2 strategy 2: "the GPU is still accessible"), while a sticky
// context's is not (strategy 3). It then resolves the objects the call
// names and executes the op. Outputs are returned even alongside an error.
func (d *Driver) Do(p *vclock.Proc, c Call) (r Result, err error) {
	if d.params.CallLatency > 0 {
		p.Sleep(d.params.CallLatency)
	}
	if d.dev.Health() == gpu.DriverCorrupt {
		return r, gpu.ErrCorrupt
	}
	if err = d.healthErr(); err != nil {
		return r, err
	}
	o, err := d.resolve(&c)
	if err != nil {
		return r, err
	}
	switch c.Op {
	case OpMalloc:
		var gb *gpu.Buffer
		if gb, err = d.dev.Alloc(c.Bytes, c.Elems, c.Tag); err == nil {
			r.Handle = d.bufs.Add(gb.ID)
		}
	case OpFree:
		d.bufs.Delete(int(c.Buf))
		err = d.dev.Free(o.buf.ID)
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
		p.Wait(&od.done) // cudaMemcpy D2H is synchronous: hangs if the stream is wedged
		if err = od.op.Err; err == nil {
			r.Data = od.out
		}
		od.src, od.out = nil, nil
		d.d2hs.Put(od)
	case OpStreamCreate:
		var gs *gpu.Stream
		if gs, err = d.dev.NewStream(); err == nil {
			r.Handle = d.streams.Add(gs)
		}
	case OpStreamDestroy: // drops queued work
		d.streams.Delete(int(c.Stream))
		err = d.dev.DestroyStream(o.gs.ID)
	case OpStreamSynchronize:
		sp := trace.Of(d.dev.Env()).Begin(p.Now(), "cuda", d.dev.Lane(), "stream-sync", "stream", int(c.Stream))
		p.Wait(o.gs.DrainEvent()) // hangs if the stream is wedged at a collective
		sp.End(p.Now())
		// Surface async op failures (failed collectives, poisoned event
		// waits): the stream is drained but its work did not all succeed.
		if err = d.healthErr(); err == nil {
			if err = o.gs.AsyncErr(); err != nil {
				trace.Of(d.dev.Env()).Instant(p.Now(), "cuda", d.dev.Lane(), "async-err", "err", err)
			}
		}
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
		r.Handle = d.events.Add(&record{})
	case OpEventRecord:
		rec := o.rec
		if rec.op.Done != nil && (!rec.done.Triggered() || rec.waiters > 0) {
			rec = &record{}
			d.events.Set(int(c.Event), rec)
		}
		// The record op completes with the stream's accumulated async error:
		// an event recorded after a failed collective is poisoned, and the
		// poison travels to whoever synchronizes with (or waits on) it — the
		// async-error propagation a NCCL watchdog relies on. It waits for
		// nothing: the stream's order is the whole of it.
		if rec.op.Exec == nil {
			rec.op.Name, rec.op.Ev, rec.op.Exec = "eventRecord", d.dev.Env().DoneEvent(), rec.exec
		}
		rec.gs, rec.op.Err = o.gs, nil
		d.dev.Env().InitEvent(&rec.done, "op")
		rec.op.Done = &rec.done
		o.gs.Enqueue(&rec.op)
	case OpEventQuery:
		r.Bool = true // an unrecorded event reports complete
		if o.rec.op.Done != nil {
			r.Bool, err = o.rec.done.Triggered(), o.rec.op.Err
		}
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
		// Deterministic order: ascending handle.
		d.streams.Each(func(_ int, gs *gpu.Stream) { p.Wait(gs.DrainEvent()) })
		err = d.healthErr()
	case OpBufChecksum:
		r.U64 = o.buf.Data.Checksum()
	case OpCommInit: // rendezvouses with the other ranks
		var nc *nccl.Comm
		if nc, err = d.engine.CommInitRank(p, c.Key, c.Gen, c.NRanks, c.Rank, d.dev); err == nil {
			r.Handle = d.comms.Add(nc)
		}
	case OpCommDestroy:
		o.nc.Destroy()
		d.comms.Delete(int(c.Comm))
	case OpAllReduce:
		_, err = o.nc.AllReduce(o.gs, o.buf)
	case OpAllGather:
		_, err = o.nc.AllGather(o.gs, o.buf, o.buf2)
	case OpReduceScatter:
		_, err = o.nc.ReduceScatter(o.gs, o.buf, o.buf2)
	case OpSend:
		_, err = o.nc.Send(o.gs, o.buf, c.Peer)
	case OpRecv:
		_, err = o.nc.Recv(o.gs, o.buf, c.Peer)
	default:
		err = fmt.Errorf("cuda: unknown op %v", c.Op)
	}
	return r, err
}

// healthErr maps a lost or sticky device onto its error. A corrupt driver
// context is not one here: its streams still drain and its memory still
// reads (§4.2 strategy 2), so only Do refuses it.
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
