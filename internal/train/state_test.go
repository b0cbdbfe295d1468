package train

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"jitckpt/internal/tensor"
)

// probeState is the state the repo benchmark's codec probe times: layers ×
// {param, adam m, adam v} tensors of hidden² floats.
func probeState(layers, hidden int) *ModelState {
	ms := &ModelState{Iter: 7, Rank: 0, Tensors: map[string]tensor.Vector{}}
	for l := 0; l < layers; l++ {
		for _, name := range []string{ParamTensorName(l), OptMTensorName(l), OptVTensorName(l)} {
			v := tensor.NewVector(hidden * hidden)
			for i := range v {
				v[i] = float32(i%251)*0.001 + float32(l)
			}
			ms.Tensors[name] = v
		}
	}
	return ms
}

// TestModelStateLayoutPinned pins the encoding byte for byte: checkpoints
// outlive the process that wrote them, so the layout is a contract.
func TestModelStateLayoutPinned(t *testing.T) {
	ms := &ModelState{Iter: 258, Rank: -2, Tensors: map[string]tensor.Vector{
		"b": {1, -2},
		"a": {},
	}}
	want := []byte{
		'J', 'M', 'S', 1,
		0x02, 0x01, 0, 0, 0, 0, 0, 0, // Iter 258
		0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // Rank -2
		2, 0, 0, 0, // two tensors
		1, 0, 0, 0, 'a', 0, 0, 0, 0,
		1, 0, 0, 0, 'b', 2, 0, 0, 0,
		0x00, 0x00, 0x80, 0x3f, // 1
		0x00, 0x00, 0x00, 0xc0, // -2
	}
	got, err := ms.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding\n got %x\nwant %x", got, want)
	}
}

func TestModelStateRoundTripIsIdentity(t *testing.T) {
	nan := math.Float32frombits(0x7fc12345) // quiet NaN with a payload
	snan := math.Float32frombits(0x7f800001)
	negZero := math.Float32frombits(0x80000000)
	for name, ms := range map[string]*ModelState{
		"no tensors": {Iter: 3, Rank: 1, Tensors: map[string]tensor.Vector{}},
		"odd values": {Iter: math.MaxInt32, Rank: 0, Tensors: map[string]tensor.Vector{
			"":      {nan, snan, negZero, float32(math.Inf(-1)), math.SmallestNonzeroFloat32},
			"empty": {},
			"w#0":   {1.5},
		}},
		"probe": probeState(2, 8),
	} {
		raw, err := ms.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecodeModelState(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Iter != ms.Iter || got.Rank != ms.Rank || len(got.Tensors) != len(ms.Tensors) {
			t.Fatalf("%s: decoded iter %d rank %d with %d tensors", name, got.Iter, got.Rank, len(got.Tensors))
		}
		for n, v := range ms.Tensors {
			// Equal compares bit patterns, so NaN payloads and -0 count.
			if w, ok := got.Tensors[n]; !ok || !w.Equal(v) {
				t.Errorf("%s: tensor %q came back as %v, want %v", name, n, w, v)
			}
		}
		again, err := got.Encode()
		if err != nil || !bytes.Equal(again, raw) {
			t.Errorf("%s: re-encoding the decoded state differs (err %v)", name, err)
		}
	}
}

// TestDecodeAcceptsOnlyCanonicalForm feeds DecodeModelState encodings that
// Encode can never emit; each must be an error, so two byte strings never
// decode to the same state and a checksum over the bytes identifies it.
func TestDecodeAcceptsOnlyCanonicalForm(t *testing.T) {
	le := binary.LittleEndian
	tensorRec := func(b []byte, name string, elems ...uint32) []byte {
		b = le.AppendUint32(b, uint32(len(name)))
		b = append(b, name...)
		b = le.AppendUint32(b, uint32(len(elems)))
		for _, e := range elems {
			b = le.AppendUint32(b, e)
		}
		return b
	}
	header := func(magic string, count uint32) []byte {
		b := append([]byte(nil), magic...)
		b = le.AppendUint64(b, 1)
		b = le.AppendUint64(b, 0)
		return le.AppendUint32(b, count)
	}
	valid := tensorRec(tensorRec(header(stateMagic, 2), "a", 1), "b", 2)
	if _, err := DecodeModelState(valid); err != nil {
		t.Fatalf("the well-formed baseline does not decode: %v", err)
	}
	hugeCount := tensorRec(header(stateMagic, 2), "a")
	le.PutUint32(hugeCount[len(hugeCount)-4:], math.MaxUint32)
	for name, raw := range map[string][]byte{
		"empty input":        nil,
		"short header":       valid[:10],
		"wrong magic":        tensorRec(header("JMX\x01", 1), "a", 1),
		"wrong version":      tensorRec(header("JMS\x02", 1), "a", 1),
		"unsorted names":     tensorRec(tensorRec(header(stateMagic, 2), "b", 2), "a", 1),
		"duplicate names":    tensorRec(tensorRec(header(stateMagic, 2), "a", 1), "a", 2),
		"trailing byte":      append(append([]byte(nil), valid...), 0),
		"truncated element":  valid[:len(valid)-1],
		"missing tensor":     tensorRec(header(stateMagic, 2), "a", 1),
		"count past the end": header(stateMagic, math.MaxUint32),
		"elements past end":  hugeCount,
		"name past the end":  le.AppendUint32(header(stateMagic, 1), math.MaxUint32),
		"name length cut":    append(header(stateMagic, 1), 1, 0),
		"element count cut":  append(le.AppendUint32(header(stateMagic, 1), 0), 1, 0, 0),
	} {
		if ms, err := DecodeModelState(raw); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, ms)
		}
	}
}

func TestEncodeAllocBudget(t *testing.T) {
	ms := probeState(4, 16) // 12 tensors
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ms.Encode(); err != nil {
			t.Fatal(err)
		}
	})
	// The name list and the output slice.
	if allocs > 3 {
		t.Errorf("Encode of a 12-tensor state allocates %.0f objects, budget is 3", allocs)
	}
}

// FuzzDecodeModelState throws arbitrary bytes at the decoder: it must not
// panic, must not allocate more than a small multiple of the input, and
// whatever it accepts must re-encode to exactly the input.
func FuzzDecodeModelState(f *testing.F) {
	for _, ms := range []*ModelState{
		{Tensors: map[string]tensor.Vector{}},
		{Iter: 5, Rank: 3, Tensors: map[string]tensor.Vector{"a": {1, 2, 3}, "b": {}}},
		probeState(1, 4),
	} {
		raw, err := ms.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-1])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		// The map's buckets for count ≤ len/8 entries dominate a hostile
		// input's cost; 16× plus a page covers them with room to spare.
		// TotalAlloc is process-wide and the fuzz worker's own goroutines
		// allocate now and then, so an over-budget reading is re-taken: the
		// decode is deterministic and noise only ever adds.
		budget := 16*uint64(len(raw)) + 4096
		var ms *ModelState
		var err error
		grew := uint64(math.MaxUint64)
		for try := 0; try < 5 && grew > budget; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ms, err = DecodeModelState(raw)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(raw), grew, budget)
		}
		if err != nil {
			return
		}
		again, err := ms.Encode()
		if err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("accepted input re-encodes differently (err %v)\n in %x\nout %x", err, raw, again)
		}
	})
}

// TestFloatCodecPathsAgree holds putFloats and getFloats to the layout's
// per-element definition at every length from 0 to 67, with the one-copy
// path off and, on a little-endian host, on: each element's IEEE-754 bits
// land little-endian, nothing past 4*len(v) bytes is written, and decoding
// gives back the same bits, NaN payloads, signed zeros, infinities and
// subnormals included.
func TestFloatCodecPathsAgree(t *testing.T) {
	defer func(had bool) { nativeLE = had }(nativeLE)
	special := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x7fc12345, 0xffc00001, 0x7f800001, 0xff912345, // quiet and signalling NaNs with payloads
		0x00000001, 0x807fffff, 0x00400000, // subnormals
		0x3f800000, 0xc0000000, 0x7f7fffff, 0x00800000,
	}
	for _, native := range []bool{false, nativeLE} {
		nativeLE = native
		for n := 0; n <= 67; n++ {
			v := make([]float32, n)
			for i := range v {
				bits := special[(i*7+n)%len(special)]
				if i%3 == 2 {
					bits = uint32(i*2654435761 + n)
				}
				v[i] = math.Float32frombits(bits)
			}
			want := make([]byte, 4*n+4)
			for i, x := range v {
				binary.LittleEndian.PutUint32(want[4*i:], math.Float32bits(x))
			}
			copy(want[4*n:], "tail")
			w := make([]byte, 4*n+4)
			copy(w[4*n:], "tail")
			putFloats(w, v)
			if !bytes.Equal(w, want) {
				t.Fatalf("native %v, %d floats: putFloats wrote\n%x\nwant\n%x", native, n, w, want)
			}
			got := make([]float32, n+1)
			got[n] = 42
			getFloats(got[:n], w)
			for i, x := range v {
				if math.Float32bits(got[i]) != math.Float32bits(x) {
					t.Fatalf("native %v, %d floats: getFloats[%d] = %#08x, want %#08x",
						native, n, i, math.Float32bits(got[i]), math.Float32bits(x))
				}
			}
			if got[n] != 42 {
				t.Fatalf("native %v, %d floats: getFloats wrote past its %d elements", native, n, n)
			}
		}
	}
}

func BenchmarkStateEncode(b *testing.B) {
	ms := probeState(4, 128)
	raw, _ := ms.Encode()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ms.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStateDecode(b *testing.B) {
	raw, _ := probeState(4, 128).Encode()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeModelState(raw); err != nil {
			b.Fatal(err)
		}
	}
}
