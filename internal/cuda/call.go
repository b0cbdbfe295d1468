package cuda

import (
	"fmt"

	"jitckpt/internal/dense"
	"jitckpt/internal/vclock"
)

// A device call as data. The transparent stack (§4, Figure 2) is three
// views of one API call — intercepted, logged for replay (§4.1), forwarded
// to the device proxy (§4.2) — so the call has one representation: an Op,
// its row in the op table and a Call/Result value pair. An Adapter packs a
// typed API call into a Call once; every layer below hands the Call on
// through API.Do, and Driver.Do is the single switch that executes one.

// Op identifies one API method.
type Op uint8

// One Op per API method, in interface order.
const (
	OpMalloc Op = iota
	OpFree
	OpMemcpyH2D
	OpMemcpyD2H
	OpStreamCreate
	OpStreamDestroy
	OpStreamSynchronize
	OpStreamWaitEvent
	OpEventCreate
	OpEventRecord
	OpEventQuery
	OpEventDestroy
	OpLaunch
	OpDeviceSynchronize
	OpBufChecksum
	OpCommInit
	OpCommDestroy
	OpAllReduce
	OpAllGather
	OpReduceScatter
	OpSend
	OpRecv
	numOps
)

// HandleKind names one of the four handle spaces.
type HandleKind uint8

// Handle kinds. NoHandle is the zero value: the op creates/destroys nothing.
const (
	NoHandle HandleKind = iota
	BufHandle
	StreamHandle
	EventHandle
	CommHandle
)

// handleFields is the set of Call fields naming a device object that an op
// reads: its handles, and a launch's kernel. Handles.Translate maps the
// handles; Driver.resolve looks all of them up.
type handleFields uint8

const (
	useBuf handleFields = 1 << iota
	useBuf2
	useStream
	useEvent
	useComm
	useLaunchBufs
	useKernel
)

// OpInfo is one row of the op table.
type OpInfo struct {
	// Name is the API method name (trace event names, watchdog messages).
	Name string
	// Async ops are fire-and-forget on the proxy client: the call returns
	// once the request is queued; a failure poisons its stream and surfaces
	// at the next synchronizing call on it. Their call latency is owed, not
	// slept (Driver.Latency).
	Async bool
	// Tracked ops are watched by the interception layer's watchdog: one
	// that never returns is a hang (§4.2). CommInit is deliberately not
	// tracked — rendezvous legitimately blocks until the last rank arrives.
	Tracked bool
	// Mutating ops change device state: they are what the replay log
	// records and what the §4.2.2 ignore window swallows. The rest are
	// queries, which are not needed to reproduce state.
	Mutating bool
	// Creates / Destroys name the handle kind the op gives birth to (in
	// Result.Handle) or retires (Call.Handle of that kind).
	Creates, Destroys HandleKind

	uses handleFields
}

var opTable = [numOps]OpInfo{
	OpMalloc:            {Name: "Malloc", Tracked: true, Mutating: true, Creates: BufHandle},
	OpFree:              {Name: "Free", Tracked: true, Mutating: true, Destroys: BufHandle, uses: useBuf},
	OpMemcpyH2D:         {Name: "MemcpyH2D", Async: true, Mutating: true, uses: useBuf | useStream},
	OpMemcpyD2H:         {Name: "MemcpyD2H", Tracked: true, uses: useBuf | useStream},
	OpStreamCreate:      {Name: "StreamCreate", Tracked: true, Mutating: true, Creates: StreamHandle},
	OpStreamDestroy:     {Name: "StreamDestroy", Tracked: true, Mutating: true, Destroys: StreamHandle, uses: useStream},
	OpStreamSynchronize: {Name: "StreamSynchronize", Tracked: true, uses: useStream},
	OpStreamWaitEvent:   {Name: "StreamWaitEvent", Async: true, Mutating: true, uses: useStream | useEvent},
	OpEventCreate:       {Name: "EventCreate", Tracked: true, Mutating: true, Creates: EventHandle},
	OpEventRecord:       {Name: "EventRecord", Async: true, Mutating: true, uses: useEvent | useStream},
	OpEventQuery:        {Name: "EventQuery", uses: useEvent},
	OpEventDestroy:      {Name: "EventDestroy", Tracked: true, Mutating: true, Destroys: EventHandle, uses: useEvent},
	OpLaunch:            {Name: "Launch", Async: true, Mutating: true, uses: useKernel | useStream | useLaunchBufs},
	OpDeviceSynchronize: {Name: "DeviceSynchronize", Tracked: true},
	OpBufChecksum:       {Name: "BufChecksum", Tracked: true, uses: useBuf},
	OpCommInit:          {Name: "CommInit", Mutating: true, Creates: CommHandle},
	OpCommDestroy:       {Name: "CommDestroy", Tracked: true, Mutating: true, Destroys: CommHandle, uses: useComm},
	OpAllReduce:         {Name: "AllReduce", Async: true, Mutating: true, uses: useComm | useBuf | useStream},
	OpAllGather:         {Name: "AllGather", Async: true, Mutating: true, uses: useComm | useBuf | useBuf2 | useStream},
	OpReduceScatter:     {Name: "ReduceScatter", Async: true, Mutating: true, uses: useComm | useBuf | useBuf2 | useStream},
	OpSend:              {Name: "Send", Async: true, Mutating: true, uses: useComm | useBuf | useStream},
	OpRecv:              {Name: "Recv", Async: true, Mutating: true, uses: useComm | useBuf | useStream},
}

// Info returns the op's table row; an out-of-range op gets a row with only
// a name, so it is never async, tracked or recorded.
func (o Op) Info() OpInfo {
	if o < numOps {
		return opTable[o]
	}
	return OpInfo{Name: fmt.Sprintf("Op(%d)", uint8(o))}
}

// String renders the API method name.
func (o Op) String() string { return o.Info().Name }

// Call is one API invocation's inputs. Fields are a union across ops;
// unused fields are zero. Everything in it crosses the proxy wire and the
// replay log, each of which keeps a clone (CloneInto).
type Call struct {
	Op Op

	Bytes  int64
	Elems  int
	Tag    string
	Buf    Buf
	Buf2   Buf
	Stream Stream
	Event  Event
	Comm   Comm
	Data   []float32
	Launch LaunchParams
	Key    string
	Gen    int
	NRanks int
	Rank   int
	Peer   int
}

// CloneInto sets *dst to c with its argument slices copied — Data,
// Launch.Bufs, Launch.IArgs and Launch.FArgs — so dst owns nothing the caller
// may reuse once the call returns: the proxy wire captures a call this way
// when it is made (§4.2), the replay log when it records one (§4.1). An empty
// slice comes out nil and costs nothing.
func (c *Call) CloneInto(dst *Call) {
	*dst = *c
	dst.Data = append([]float32(nil), c.Data...)
	dst.Launch.Bufs = append([]Buf(nil), c.Launch.Bufs...)
	dst.Launch.IArgs = append([]int64(nil), c.Launch.IArgs...)
	dst.Launch.FArgs = append([]float32(nil), c.Launch.FArgs...)
}

// Handle returns the call's handle of kind k — for a destruction op, the
// object it retires.
func (c *Call) Handle(k HandleKind) int {
	switch k {
	case BufHandle:
		return int(c.Buf)
	case StreamHandle:
		return int(c.Stream)
	case EventHandle:
		return int(c.Event)
	case CommHandle:
		return int(c.Comm)
	}
	return 0
}

// Result is one API invocation's outputs, a union like Call. Handle is the
// new object's handle for creation ops, in the space Op.Info().Creates
// names.
type Result struct {
	Handle int
	Data   []float32
	Bool   bool
	U64    uint64
}

// Handles is a handle table: per handle space, from the handles a caller
// holds to the handles the device currently knows. The interception layer's
// virtual→physical table is one; recovery replays the creation log into a
// clone of it and the layer adopts the clone (§4.2). The caller's handles
// are dense counters, so each space is a dense.Table.
type Handles struct {
	to [CommHandle + 1]dense.Table[int]
}

// NewHandles returns a table holding only the default stream, which always
// exists and maps to itself.
func NewHandles() *Handles {
	h := &Handles{}
	h.Bind(StreamHandle, int(DefaultStream), int(DefaultStream))
	return h
}

// Clone returns an independent copy of the table.
func (h *Handles) Clone() *Handles {
	c := &Handles{}
	for k := range h.to {
		c.to[k] = h.to[k].Clone()
	}
	return c
}

// Lookup returns what handle v of space k is bound to in h, as a handle of
// v's type.
func Lookup[H ~int](h *Handles, k HandleKind, v H) (H, bool) {
	to, ok := h.to[k].At(int(v))
	return H(to), ok
}

// Bind maps handle from to handle to in space k.
func (h *Handles) Bind(k HandleKind, from, to int) { h.to[k].Set(from, to) }

// Unbind removes handle from from space k.
func (h *Handles) Unbind(k HandleKind, from int) { h.to[k].Delete(from) }

// translate maps *v through space k in place.
func translate[H ~int](h *Handles, k HandleKind, space string, v *H) error {
	to, err := lookup(&h.to[k], space, int(*v))
	if err == nil {
		*v = H(to)
	}
	return err
}

// Translate maps, in place, every handle field c's op reads through the
// table. A launch's buffers are translated into bufs[:0], grown as needed,
// never into the slice c held, which stays the caller's: c.Launch.Bufs is
// that slice afterwards, for the caller to reuse once the call is done. A
// handle the table does not hold is an ErrBadHandle, and c is then left
// partly translated.
func (h *Handles) Translate(c *Call, bufs []Buf) error {
	uses := c.Op.Info().uses
	var err error
	if uses&useBuf != 0 {
		err = translate(h, BufHandle, "virtual buf", &c.Buf)
	}
	if uses&useBuf2 != 0 && err == nil {
		err = translate(h, BufHandle, "virtual buf", &c.Buf2)
	}
	if uses&useStream != 0 && err == nil {
		err = translate(h, StreamHandle, "virtual stream", &c.Stream)
	}
	if uses&useEvent != 0 && err == nil {
		err = translate(h, EventHandle, "virtual event", &c.Event)
	}
	if uses&useComm != 0 && err == nil {
		err = translate(h, CommHandle, "virtual comm", &c.Comm)
	}
	if uses&useLaunchBufs != 0 && err == nil {
		bufs = append(bufs[:0], c.Launch.Bufs...)
		c.Launch.Bufs = bufs
		for i := range bufs {
			if err = translate(h, BufHandle, "virtual buf", &bufs[i]); err != nil {
				break
			}
		}
	}
	return err
}

// lookup returns what handle h names in t; a handle t does not hold is an
// ErrBadHandle in the named space.
func lookup[T any](t *dense.Table[T], space string, h int) (T, error) {
	v, ok := t.At(h)
	if !ok {
		return v, unmapped(space, h)
	}
	return v, nil
}

func unmapped(space string, h int) error {
	return fmt.Errorf("%w: %s %d", ErrBadHandle, space, h)
}

// Adapter implements API's typed methods on top of a Doer: each method packs
// its arguments into a Call and unpacks the Result. The interception layer,
// the proxy client and the driver embed one over themselves and write only
// their Do, so an API implementation is its Do.
type Adapter struct {
	next Doer
}

// Adapt returns an Adapter over next. The Call is handed over by value, so
// it never escapes to the heap on its way through.
func Adapt(next Doer) Adapter { return Adapter{next: next} }

// err runs a call whose only output is its error.
func (a Adapter) err(p *vclock.Proc, c *Call) error {
	_, err := a.next.Do(p, *c)
	return err
}

// Malloc implements API.
func (a Adapter) Malloc(p *vclock.Proc, bytes int64, elems int, tag string) (Buf, error) {
	r, err := a.next.Do(p, Call{Op: OpMalloc, Bytes: bytes, Elems: elems, Tag: tag})
	return Buf(r.Handle), err
}

// Free implements API.
func (a Adapter) Free(p *vclock.Proc, b Buf) error { return a.err(p, &Call{Op: OpFree, Buf: b}) }

// MemcpyH2D implements API.
func (a Adapter) MemcpyH2D(p *vclock.Proc, dst Buf, src []float32, s Stream) error {
	return a.err(p, &Call{Op: OpMemcpyH2D, Buf: dst, Data: src, Stream: s})
}

// MemcpyD2H implements API.
func (a Adapter) MemcpyD2H(p *vclock.Proc, src Buf, s Stream) ([]float32, error) {
	r, err := a.next.Do(p, Call{Op: OpMemcpyD2H, Buf: src, Stream: s})
	return r.Data, err
}

// StreamCreate implements API.
func (a Adapter) StreamCreate(p *vclock.Proc) (Stream, error) {
	r, err := a.next.Do(p, Call{Op: OpStreamCreate})
	return Stream(r.Handle), err
}

// StreamDestroy implements API.
func (a Adapter) StreamDestroy(p *vclock.Proc, s Stream) error {
	return a.err(p, &Call{Op: OpStreamDestroy, Stream: s})
}

// StreamSynchronize implements API.
func (a Adapter) StreamSynchronize(p *vclock.Proc, s Stream) error {
	return a.err(p, &Call{Op: OpStreamSynchronize, Stream: s})
}

// StreamWaitEvent implements API.
func (a Adapter) StreamWaitEvent(p *vclock.Proc, s Stream, ev Event) error {
	return a.err(p, &Call{Op: OpStreamWaitEvent, Stream: s, Event: ev})
}

// EventCreate implements API.
func (a Adapter) EventCreate(p *vclock.Proc) (Event, error) {
	r, err := a.next.Do(p, Call{Op: OpEventCreate})
	return Event(r.Handle), err
}

// EventRecord implements API.
func (a Adapter) EventRecord(p *vclock.Proc, ev Event, s Stream) error {
	return a.err(p, &Call{Op: OpEventRecord, Event: ev, Stream: s})
}

// EventQuery implements API.
func (a Adapter) EventQuery(p *vclock.Proc, ev Event) (bool, error) {
	r, err := a.next.Do(p, Call{Op: OpEventQuery, Event: ev})
	return r.Bool, err
}

// EventDestroy implements API.
func (a Adapter) EventDestroy(p *vclock.Proc, ev Event) error {
	return a.err(p, &Call{Op: OpEventDestroy, Event: ev})
}

// Launch implements API.
func (a Adapter) Launch(p *vclock.Proc, lp LaunchParams, s Stream) error {
	return a.err(p, &Call{Op: OpLaunch, Launch: lp, Stream: s})
}

// DeviceSynchronize implements API.
func (a Adapter) DeviceSynchronize(p *vclock.Proc) error {
	return a.err(p, &Call{Op: OpDeviceSynchronize})
}

// BufChecksum implements API.
func (a Adapter) BufChecksum(p *vclock.Proc, b Buf) (uint64, error) {
	r, err := a.next.Do(p, Call{Op: OpBufChecksum, Buf: b})
	return r.U64, err
}

// CommInit implements API.
func (a Adapter) CommInit(p *vclock.Proc, key string, gen, nranks, rank int) (Comm, error) {
	r, err := a.next.Do(p, Call{Op: OpCommInit, Key: key, Gen: gen, NRanks: nranks, Rank: rank})
	return Comm(r.Handle), err
}

// CommDestroy implements API.
func (a Adapter) CommDestroy(p *vclock.Proc, c Comm) error {
	return a.err(p, &Call{Op: OpCommDestroy, Comm: c})
}

// AllReduce implements API.
func (a Adapter) AllReduce(p *vclock.Proc, c Comm, b Buf, s Stream) error {
	return a.err(p, &Call{Op: OpAllReduce, Comm: c, Buf: b, Stream: s})
}

// AllGather implements API.
func (a Adapter) AllGather(p *vclock.Proc, c Comm, in, out Buf, s Stream) error {
	return a.err(p, &Call{Op: OpAllGather, Comm: c, Buf: in, Buf2: out, Stream: s})
}

// ReduceScatter implements API.
func (a Adapter) ReduceScatter(p *vclock.Proc, c Comm, in, out Buf, s Stream) error {
	return a.err(p, &Call{Op: OpReduceScatter, Comm: c, Buf: in, Buf2: out, Stream: s})
}

// Send implements API.
func (a Adapter) Send(p *vclock.Proc, c Comm, b Buf, peer int, s Stream) error {
	return a.err(p, &Call{Op: OpSend, Comm: c, Buf: b, Peer: peer, Stream: s})
}

// Recv implements API.
func (a Adapter) Recv(p *vclock.Proc, c Comm, b Buf, peer int, s Stream) error {
	return a.err(p, &Call{Op: OpRecv, Comm: c, Buf: b, Peer: peer, Stream: s})
}
