package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"unsafe"
)

func TestGFFieldAxioms(t *testing.T) {
	// Inverses and division round-trip for every non-zero element.
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a*inv(a) = %d for a=%d", got, a)
		}
		for b := 1; b < 256; b++ {
			q := gfDiv(byte(a), byte(b))
			if back := gfMul(q, byte(b)); back != byte(a) {
				t.Fatalf("(%d/%d)*%d = %d", a, b, b, back)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {-1, 2}, {4, -1}, {200, 100}} {
		if _, err := New(bad[0], bad[1]); err == nil {
			t.Errorf("New(%d,%d) accepted", bad[0], bad[1])
		}
	}
	if _, err := New(1, 0); err != nil {
		t.Errorf("New(1,0): %v", err)
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 8; n++ {
		// Random Cauchy matrices are always invertible.
		m := newMatrix(n, n)
		xs := rng.Perm(255)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m[i][j] = gfInv(byte(xs[i]+1) ^ byte(xs[n+j]+1))
			}
		}
		inv, err := m.invert()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// m·inv must be the identity.
		cols := make([][]byte, n)
		for j := range cols {
			col := make([]byte, n)
			for i := 0; i < n; i++ {
				col[i] = inv[i][j]
			}
			cols[j] = col
		}
		for j := 0; j < n; j++ {
			prod := make([][]byte, n)
			for i := range prod {
				prod[i] = make([]byte, 1)
			}
			in := make([][]byte, n)
			for i := range in {
				in[i] = []byte{cols[j][i]}
			}
			m.mulVec(prod, in)
			for i := 0; i < n; i++ {
				want := byte(0)
				if i == j {
					want = 1
				}
				if prod[i][0] != want {
					t.Fatalf("n=%d: (m·inv)[%d][%d] = %d", n, i, j, prod[i][0])
				}
			}
		}
	}
	// Singular matrices must be rejected.
	s := matrix{{1, 2}, {1, 2}}
	if _, err := s.invert(); err == nil {
		t.Fatal("singular matrix inverted")
	}
}

// eraseSubsets enumerates every subset of {0..n-1} with ≤ max elements.
func eraseSubsets(n, max int) [][]int {
	var out [][]int
	var walk func(start int, cur []int)
	walk = func(start int, cur []int) {
		out = append(out, append([]int(nil), cur...))
		if len(cur) == max {
			return
		}
		for i := start; i < n; i++ {
			walk(i+1, append(cur, i))
		}
	}
	walk(0, nil)
	return out
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, km := range [][2]int{{1, 0}, {1, 2}, {2, 1}, {3, 2}, {4, 2}, {5, 3}} {
		k, m := km[0], km[1]
		c, err := New(k, m)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 1+rng.Intn(200))
		rng.Read(data)
		tight, roomy := payloads(c, data)
		frags, err := c.Encode(c.Split(tight))
		if err != nil {
			t.Fatal(err)
		}
		// A payload whose capacity holds the padding stripes to the same
		// fragments, without a copy.
		inPlace, err := c.Encode(c.Split(roomy))
		if err != nil {
			t.Fatal(err)
		}
		for i := range frags {
			if !bytes.Equal(inPlace[i], frags[i]) {
				t.Fatalf("k=%d m=%d: fragment %d differs between a tight and a roomy payload", k, m, i)
			}
		}
		for _, erase := range eraseSubsets(k+m, m) {
			work := make([][]byte, len(frags))
			for i, f := range frags {
				work[i] = append([]byte(nil), f...)
			}
			for _, e := range erase {
				work[e] = nil
			}
			if err := c.Reconstruct(work); err != nil {
				t.Fatalf("k=%d m=%d erase=%v: %v", k, m, erase, err)
			}
			for i := range frags {
				if !bytes.Equal(work[i], frags[i]) {
					t.Fatalf("k=%d m=%d erase=%v: fragment %d differs", k, m, erase, i)
				}
			}
			got, err := c.Join(work[:k], len(data))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("k=%d m=%d erase=%v: payload differs", k, m, erase)
			}
		}
	}
}

func TestReconstructBeyondBudgetFails(t *testing.T) {
	c, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the stripe that did not make it")
	frags, err := c.Encode(c.Split(data))
	if err != nil {
		t.Fatal(err)
	}
	work := make([][]byte, len(frags))
	for i, f := range frags {
		work[i] = append([]byte(nil), f...)
	}
	work[0], work[2], work[4] = nil, nil, nil // 3 erasures > m=2
	if err := c.Reconstruct(work); !errors.Is(err, ErrTooManyErasures) {
		t.Fatalf("got %v, want ErrTooManyErasures", err)
	}
}

// payloads returns data in the two shapes Split sees: a tight copy (no spare
// capacity) and a roomy one whose spare capacity holds the k-shard padding,
// filled with junk that Split must zero.
func payloads(c *Codec, data []byte) (tight, roomy []byte) {
	tight = append(make([]byte, 0, len(data)), data...)
	roomy = make([]byte, len(data), c.k*c.ShardLen(len(data)))
	copy(roomy, data)
	for i := len(roomy); i < cap(roomy); i++ {
		roomy[:cap(roomy)][i] = 0xee
	}
	return tight, roomy
}

// checkSplit asserts Split's contract for one payload: k shards of
// ShardLen bytes laid end to end in one buffer, that buffer being the
// payload's own when its capacity holds the padding, zero padding, and
// Join(Split(x)) == x.
func checkSplit(t *testing.T, c *Codec, payload []byte) {
	t.Helper()
	want := append([]byte(nil), payload...)
	roomy := cap(payload) >= c.k*c.ShardLen(len(payload))
	shards := c.Split(payload)
	if len(shards) != c.k {
		t.Fatalf("Split gave %d shards, want %d", len(shards), c.k)
	}
	shardLen := c.ShardLen(len(want))
	padded := unsafe.Slice(unsafe.SliceData(shards[0]), c.k*shardLen)
	for i, s := range shards {
		if len(s) != shardLen || cap(s) != shardLen {
			t.Fatalf("shard %d has len %d cap %d, want both %d", i, len(s), cap(s), shardLen)
		}
		if &s[0] != &padded[i*shardLen] {
			t.Fatalf("shard %d does not follow shard %d in one buffer", i, i-1)
		}
	}
	if aliased := &padded[0] == unsafe.SliceData(payload); aliased != roomy {
		t.Fatalf("len %d cap %d: shards alias the payload = %v, want %v", len(payload), cap(payload), aliased, roomy)
	}
	if !bytes.Equal(padded[:len(want)], want) {
		t.Fatal("the padded buffer does not start with the payload")
	}
	for i, b := range padded[len(want):] {
		if b != 0 {
			t.Fatalf("padding byte %d is %#x, want 0", i, b)
		}
	}
	got, err := c.Join(shards, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("len %d: Join(Split(x)) differs from x", len(want))
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	for _, k := range []int{1, 3, 4} {
		c, err := New(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 3, 4, 5, 16, 17, 1023} {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i * 31)
			}
			tight, roomy := payloads(c, data)
			checkSplit(t, c, tight)
			checkSplit(t, c, roomy)
		}
	}
}

func TestEncodeShapeErrors(t *testing.T) {
	c, _ := New(2, 1)
	if _, err := c.Encode([][]byte{{1}}); err == nil {
		t.Error("short shard set accepted")
	}
	if _, err := c.Encode([][]byte{{1, 2}, {3}}); err == nil {
		t.Error("ragged shards accepted")
	}
	if err := c.Reconstruct(make([][]byte, 2)); err == nil {
		t.Error("wrong fragment count accepted")
	}
}

// BenchmarkEncodeRS42 is the repo benchmark's erasure probe: RS(4,2) parity
// over 1 MiB shards, throughput in payload bytes.
func BenchmarkEncodeRS42(b *testing.B) {
	const shardLen = 1 << 20
	c, err := New(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4*shardLen)
	for i := range payload {
		payload[i] = byte(i*7 + i>>9)
	}
	data := c.Split(payload)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}
