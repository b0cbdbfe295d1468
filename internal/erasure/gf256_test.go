package erasure

import (
	"math/rand"
	"testing"
)

// TestMulAddMatchesTable holds mulAdd to the product table for every
// constant at every length from 0 to 100, from unaligned starts, with the
// SSSE3 path off and, where the CPU has it, on: each byte of dst becomes its
// old value xor c*src, and nothing past len(src) is written.
func TestMulAddMatchesTable(t *testing.T) {
	defer func(had bool) { hasSSSE3 = had }(hasSSSE3)
	rng := rand.New(rand.NewSource(34))
	src := make([]byte, 104)
	before := make([]byte, 105)
	dst := make([]byte, 105)
	for _, wide := range []bool{false, hasSSSE3} {
		hasSSSE3 = wide
		for c := 0; c < 256; c++ {
			for n := 0; n <= 100; n++ {
				off := rng.Intn(4)
				rng.Read(src)
				rng.Read(before)
				copy(dst, before)
				s, d := src[off:off+n], dst[off:]
				mulAdd(d, s, byte(c))
				for i := range dst {
					want := before[i]
					if i >= off && i < off+n {
						want ^= gfMulTable[c][src[i]]
					}
					if dst[i] != want {
						t.Fatalf("SSSE3 %v, c=%d, %d bytes from %d: dst[%d] = %#02x, want %#02x", wide, c, n, off, i, dst[i], want)
					}
				}
			}
		}
	}
}

var sinkByte byte

// BenchmarkMulAdd times one multiply-add of a 48 KiB shard.
func BenchmarkMulAdd(b *testing.B) {
	src := make([]byte, 48<<10)
	dst := make([]byte, len(src))
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulAdd(dst, src, 0x53)
	}
	sinkByte = dst[0]
}
