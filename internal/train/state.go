package train

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"unsafe"

	"jitckpt/internal/cuda"
	"jitckpt/internal/tensor"
	"jitckpt/internal/vclock"
)

// ModelState is the checkpointable training state of one rank: parameter
// and optimizer tensors keyed by their stable names, plus the host CPU
// state (iteration number) needed to resume. Two ranks at the same
// pipeline/tensor/shard position produce interchangeable ModelStates —
// the replica redundancy JIT checkpointing exploits.
type ModelState struct {
	Iter    int
	Rank    int
	Tensors map[string]tensor.Vector
}

// TensorName builds the stable checkpoint name of a buffer: its
// interception-layer tag plus sequence. It is identical across replicas
// and across re-allocations (§4.3's call-stack-hash naming).
func TensorName(tag string, seq int) string { return fmt.Sprintf("%s#%d", tag, seq) }

// stateBuf is one entry of the worker's model-state list: a parameter or
// optimizer buffer under its checkpoint name, TensorName(tag, 0). The list
// holds, per local layer, the weight, the first moment and, under Adam, the
// second moment, in allocation order.
type stateBuf struct {
	name string
	buf  cuda.Buf
	grad cuda.Buf // a weight's gradient, which the gradient ring keeps; 0 for a moment
}

// tag returns the allocation tag the entry's name was built from, as a prefix
// of the name: the device keeps it, and error texts quote it.
func (s stateBuf) tag() string { return s.name[:strings.LastIndexByte(s.name, '#')] }

// SaveModelState copies every parameter and optimizer buffer to the host.
// It uses only D2H memcpys — deliberately no collectives, per §3.2's rule
// for checkpoint functions called during failure handling.
func (w *Worker) SaveModelState(p *vclock.Proc) (*ModelState, error) {
	ms := &ModelState{Iter: w.iter, Rank: w.cfg.Rank, Tensors: make(map[string]tensor.Vector, len(w.state))}
	for _, s := range w.state {
		data, err := w.cfg.API.MemcpyD2H(p, s.buf, w.compute)
		if err != nil {
			return nil, fmt.Errorf("train: save %s: %w", s.tag(), err)
		}
		ms.Tensors[s.name] = data
	}
	return ms, nil
}

// statePeeker is the privileged zero-time buffer read some device APIs
// expose outside the cuda.API interface (cuda.Driver.BufData, and the
// interception layer's virtual-handle passthrough). The in-memory tiers use
// it to capture state at a minibatch boundary without touching the worker's
// streams; the caller charges transfer time separately. What it returns is
// a view of device memory, valid until the caller next yields.
type statePeeker interface {
	BufData(b cuda.Buf) (tensor.Vector, error)
}

// PeekModelState captures the rank's parameter and optimizer state through
// the privileged BufData path, without issuing stream work or charging
// virtual time. It is only meaningful at a minibatch boundary (after
// RunIter returns, the compute stream is synchronized, so buffer contents
// are the post-optimizer state of the iteration just finished and Iter
// names the next minibatch). Callers model the actual D2H staging cost
// themselves — that is what lets replication overlap the next minibatch.
//
// The tensors are views of the device buffers, not copies: they hold the
// boundary's state only until the caller next yields, when the next
// minibatch may start writing them. A caller that only encodes them does so
// before yielding; one that keeps them copies them.
func (w *Worker) PeekModelState() (*ModelState, error) {
	pk, ok := w.cfg.API.(statePeeker)
	if !ok {
		return nil, fmt.Errorf("train: device API %T has no privileged buffer read", w.cfg.API)
	}
	ms := &ModelState{Iter: w.iter, Rank: w.cfg.Rank, Tensors: make(map[string]tensor.Vector, len(w.state))}
	for _, s := range w.state {
		data, err := pk.BufData(s.buf)
		if err != nil {
			return nil, fmt.Errorf("train: peek %s: %w", s.tag(), err)
		}
		ms.Tensors[s.name] = data
	}
	return ms, nil
}

// LoadModelState restores parameter and optimizer buffers from a saved
// state (typically a replica's) and fast-forwards the iteration counter.
func (w *Worker) LoadModelState(p *vclock.Proc, ms *ModelState) error {
	for _, s := range w.state {
		data, ok := ms.Tensors[s.name]
		if !ok {
			return fmt.Errorf("train: checkpoint missing tensor %s", s.tag())
		}
		if err := w.cfg.API.MemcpyH2D(p, s.buf, data, w.compute); err != nil {
			return err
		}
	}
	if err := w.cfg.API.StreamSynchronize(p, w.compute); err != nil {
		return err
	}
	w.iter = ms.Iter
	if w.gradRing != nil {
		w.gradRing.Reset()
	}
	return nil
}

// stateMagic opens every encoded ModelState: "JMS" plus the layout version.
const stateMagic = "JMS\x01"

// Encode serializes a ModelState for a checkpoint store. The layout is
// fixed and little-endian: stateMagic, Iter and Rank as 64-bit two's
// complement, a 32-bit tensor count, then per tensor in ascending name
// order a 32-bit name length, the name, a 32-bit element count and each
// element's IEEE-754 bits in 32 bits. Go's map order never reaches the
// bytes, so they — and with them a checkpoint's checksums and the byte a
// chaos bit-flip lands on — are a function of the state alone.
func (ms *ModelState) Encode() ([]byte, error) { return ms.AppendEncode(nil) }

// EncodedLen returns the length of ms's encoding, or the error Encode
// would return.
func (ms *ModelState) EncodedLen() (int, error) {
	_, size, err := ms.layout()
	return size, err
}

// layout returns the tensor names in encoding order and the encoded size.
func (ms *ModelState) layout() (names []string, size int, err error) {
	names = ms.names()
	size = len(stateMagic) + 8 + 8 + 4
	for _, n := range names {
		if uint64(len(n)) > math.MaxUint32 || uint64(len(ms.Tensors[n])) > math.MaxUint32 {
			return nil, 0, fmt.Errorf("train: encode model state: tensor %.40q does not fit the 32-bit layout", n)
		}
		size += 4 + len(n) + 4 + 4*len(ms.Tensors[n])
	}
	return names, size, nil
}

// AppendEncode appends ms's encoding (see Encode) to b, growing it at most
// once: a b with room for EncodedLen more bytes is filled in place.
func (ms *ModelState) AppendEncode(b []byte) ([]byte, error) {
	names, size, err := ms.layout()
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if cap(b)-len(b) < size {
		b = append(make([]byte, 0, len(b)+size), b...)
	}
	b = append(b, stateMagic...)
	b = le.AppendUint64(b, uint64(ms.Iter))
	b = le.AppendUint64(b, uint64(ms.Rank))
	b = le.AppendUint32(b, uint32(len(names)))
	for _, n := range names {
		v := ms.Tensors[n]
		b = le.AppendUint32(b, uint32(len(n)))
		b = append(b, n...)
		b = le.AppendUint32(b, uint32(len(v)))
		putFloats(b[len(b):len(b)+4*len(v)], v)
		b = b[:len(b)+4*len(v)]
	}
	return b, nil
}

// DecodeModelState deserializes a ModelState written by Encode. It accepts
// exactly what Encode emits — names strictly ascending, no trailing bytes —
// and bounds every count by the bytes that remain, so damaged input is an
// error, never a panic or an allocation larger than the input warrants.
func DecodeModelState(b []byte) (*ModelState, error) {
	le := binary.LittleEndian
	if len(b) < len(stateMagic)+16 || string(b[:len(stateMagic)]) != stateMagic {
		return nil, errors.New("train: decode model state: not a version-1 encoded state")
	}
	b = b[len(stateMagic):]
	ms := &ModelState{Iter: int(int64(le.Uint64(b))), Rank: int(int64(le.Uint64(b[8:])))}
	b = b[16:]
	// count consumes a 32-bit count of items that take at least size bytes
	// each, refusing one the bytes that remain cannot hold.
	count := func(size int) (int, error) {
		if len(b) < 4 || uint64(le.Uint32(b)) > uint64(len(b)-4)/uint64(size) {
			return 0, fmt.Errorf("train: decode model state: cut short, or a count too large for the %d bytes left", len(b))
		}
		n := int(le.Uint32(b))
		b = b[4:]
		return n, nil
	}
	tensors, err := count(8) // a tensor is at least its two counts
	if err != nil {
		return nil, err
	}
	ms.Tensors = make(map[string]tensor.Vector, tensors)
	prev := ""
	for i := 0; i < tensors; i++ {
		n, err := count(1)
		if err != nil {
			return nil, err
		}
		name := string(b[:n])
		b = b[n:]
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("train: decode model state: name %.40q does not sort after %.40q", name, prev)
		}
		prev = name
		if n, err = count(4); err != nil {
			return nil, err
		}
		v := make(tensor.Vector, n)
		getFloats(v, b[:4*n])
		b = b[4*n:]
		ms.Tensors[name] = v
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("train: decode model state: %d trailing bytes", len(b))
	}
	return ms, nil
}

// nativeLE reports whether the host keeps a float32's bits in the layout's
// byte order, little-endian. Then a tensor's encoding is its memory, and
// putFloats and getFloats copy it in one move; a big-endian host converts
// element by element. Tests force it false to run the loops here too.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes is v's memory as 4*len(v) bytes.
func floatBytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// putFloats writes v's IEEE-754 bits into w, 4*len(v) bytes, little-endian.
// Without nativeLE, four elements go per trip through a window cut once per
// tensor, which lets the compiler drop the per-element bounds checks and
// length updates that appending each element costs.
func putFloats(w []byte, v []float32) {
	if nativeLE {
		copy(w[:4*len(v)], floatBytes(v))
		return
	}
	le := binary.LittleEndian
	for len(v) >= 4 && len(w) >= 16 {
		le.PutUint32(w[0:], math.Float32bits(v[0]))
		le.PutUint32(w[4:], math.Float32bits(v[1]))
		le.PutUint32(w[8:], math.Float32bits(v[2]))
		le.PutUint32(w[12:], math.Float32bits(v[3]))
		v, w = v[4:], w[16:]
	}
	for i, x := range v {
		le.PutUint32(w[4*i:], math.Float32bits(x))
	}
}

// getFloats is putFloats' inverse: it fills v from 4*len(v) bytes of w.
func getFloats(v []float32, w []byte) {
	if nativeLE {
		copy(floatBytes(v), w[:4*len(v)])
		return
	}
	le := binary.LittleEndian
	for len(v) >= 4 && len(w) >= 16 {
		v[0] = math.Float32frombits(le.Uint32(w[0:]))
		v[1] = math.Float32frombits(le.Uint32(w[4:]))
		v[2] = math.Float32frombits(le.Uint32(w[8:]))
		v[3] = math.Float32frombits(le.Uint32(w[12:]))
		v, w = v[4:], w[16:]
	}
	for i := range v {
		v[i] = math.Float32frombits(le.Uint32(w[4*i:]))
	}
}

// names returns the tensor names in sorted order.
func (ms *ModelState) names() []string {
	names := make([]string, 0, len(ms.Tensors))
	for n := range ms.Tensors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Checksum returns a content hash of the state, name-ordered, for
// comparing replicas and validating recovery.
func (ms *ModelState) Checksum() uint64 {
	var sum uint64 = 1469598103934665603
	for _, n := range ms.names() {
		sum ^= ms.Tensors[n].Checksum()
		sum *= 1099511628211
	}
	return sum
}

// ModelStateBytes returns the modelled byte size of the rank's parameter
// plus optimizer state — the volume a checkpoint must move.
func (w *Worker) ModelStateBytes() int64 {
	return w.cfg.Model.ParamBytesPerGPU + w.cfg.Model.OptBytesPerGPU
}

// Snapshot is the worker's host CPU state captured by the CRIU-style
// process checkpoint: everything needed to resume the loop at a minibatch
// boundary. GPU-side state travels separately (JIT checkpoint files).
type Snapshot struct {
	Iter int
	Gen  int
}

// Snapshot captures the worker's CPU-side state.
func (w *Worker) Snapshot() Snapshot { return Snapshot{Iter: w.iter, Gen: w.gen} }
