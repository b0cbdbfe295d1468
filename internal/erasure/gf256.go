// Package erasure implements systematic Reed-Solomon erasure coding over
// GF(2^8), stdlib-only. A stripe of k data shards is extended with m
// parity shards such that the original data is recoverable from *any* k
// of the k+m fragments — the MDS property the peer shelter leans on to
// turn "replica present" into "reconstructable".
//
// The generator is the k×k identity stacked over an m×k Cauchy block
// (rows 1/(x_i ⊕ y_j) with x and y drawn from disjoint field subsets):
// every square submatrix of a Cauchy matrix is invertible, and combined
// with the identity rows this makes every k-row subset of the full
// (k+m)×k matrix invertible — decode is a single k×k inversion over
// GF(2^8) applied to any k surviving fragments.
package erasure

import "encoding/binary"

// gf256 carries the log/exp tables for the field GF(2^8) with the
// conventional AES-adjacent primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d) and generator 2.
var (
	gfExp [512]byte // exp table doubled so mul needs no mod
	gfLog [256]int
	// gfMulTable[c][b] = c*b: shard-sized multiply-accumulate loops do one
	// lookup per byte instead of two log lookups and an add, and no caller
	// builds a constant's row more than once.
	gfMulTable [256][256]byte
	// gfNibbles[c] is c's product with every low nibble (bytes 0–15) and
	// every high nibble (bytes 16–31): c*b = lo[b&15] ^ hi[b>>4], since the
	// product distributes over xor. mulAddWide looks both up sixteen bytes
	// at a time with PSHUFB.
	gfNibbles [256][32]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := 1; c < 256; c++ {
		for b := 1; b < 256; b++ {
			gfMulTable[c][b] = gfExp[gfLog[c]+gfLog[b]]
		}
		for i := 0; i < 16; i++ {
			gfNibbles[c][i] = gfMulTable[c][i]
			gfNibbles[c][16+i] = gfMulTable[c][i<<4]
		}
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte { return gfMulTable[a][b] }

// gfDiv divides a by b (b must be non-zero).
func gfDiv(a, b byte) byte {
	if a == 0 {
		return 0
	}
	if b == 0 {
		panic("erasure: division by zero in GF(2^8)")
	}
	return gfExp[gfLog[a]+255-gfLog[b]]
}

// gfInv returns the multiplicative inverse of a non-zero element.
func gfInv(a byte) byte {
	if a == 0 {
		panic("erasure: zero has no inverse in GF(2^8)")
	}
	return gfExp[255-gfLog[a]]
}

// mulAdd accumulates dst[i] ^= c*src[i] over a shard. dst must be at least
// as long as src. Where the CPU has SSSE3 the first len(src) &^ 15 bytes go
// sixteen at a time through mulAddWide (gf256_amd64.s); mulAddGo does the
// rest, or all of it.
func mulAdd(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	dst = dst[:len(src)]
	n := 0
	if hasSSSE3 {
		n = mulAddWide(dst, src, &gfNibbles[c])
	}
	mulAddGo(dst[n:], src[n:], c)
}

// mulAddGo is mulAdd in Go. Eight products are looked up and packed into one
// word, so dst sees one 64-bit load, xor and store per eight bytes instead of
// eight read-modify-writes.
func mulAddGo(dst, src []byte, c byte) {
	t := &gfMulTable[c]
	dst = dst[:len(src)]
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s, d := src[i:i+8:i+8], dst[i:i+8:i+8]
		p := uint64(t[s[0]]) | uint64(t[s[1]])<<8 | uint64(t[s[2]])<<16 | uint64(t[s[3]])<<24 |
			uint64(t[s[4]])<<32 | uint64(t[s[5]])<<40 | uint64(t[s[6]])<<48 | uint64(t[s[7]])<<56
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^p)
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= t[src[i]]
	}
}
