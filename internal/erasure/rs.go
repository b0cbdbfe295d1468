package erasure

import (
	"errors"
	"fmt"
	"slices"
)

// ErrTooManyErasures is returned by Reconstruct when fewer than k
// fragments survive: the stripe is information-theoretically gone and no
// amount of decoding recovers it.
var ErrTooManyErasures = errors.New("erasure: too many erasures, stripe unrecoverable")

// Codec is a systematic Reed-Solomon code with k data and m parity
// shards. Fragments 0..k-1 are the data shards verbatim; fragments
// k..k+m-1 are parity. Safe for concurrent use (immutable after New).
type Codec struct {
	k, m int
	// gen is the (k+m)×k generator: identity over Cauchy.
	gen matrix
}

// New builds a codec. k must be ≥1, m ≥0, and k+m ≤ 255 (the field has
// only 255 non-zero evaluation points).
func New(k, m int) (*Codec, error) {
	if k < 1 {
		return nil, fmt.Errorf("erasure: k=%d data shards, need at least 1", k)
	}
	if m < 0 {
		return nil, fmt.Errorf("erasure: m=%d parity shards, cannot be negative", m)
	}
	if k+m > 255 {
		return nil, fmt.Errorf("erasure: k+m=%d exceeds the 255 fragments GF(2^8) supports", k+m)
	}
	gen := newMatrix(k+m, k)
	for i := 0; i < k; i++ {
		gen[i][i] = 1
	}
	// Cauchy block: rows x_i = k+i, columns y_j = j. The x and y sets are
	// disjoint, so every entry 1/(x_i ⊕ y_j) is defined and every square
	// submatrix is invertible (the Cauchy determinant is a product of
	// non-zero differences) — which, together with the identity rows,
	// makes any k of the k+m fragments sufficient to decode.
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			gen[k+i][j] = gfInv(byte(k+i) ^ byte(j))
		}
	}
	return &Codec{k: k, m: m, gen: gen}, nil
}

// ShardLen returns the per-shard length used for a payload of dataLen
// bytes: ceil(dataLen/k), minimum 1 so zero-length payloads still
// produce well-formed fragments.
func (c *Codec) ShardLen(dataLen int) int {
	n := (dataLen + c.k - 1) / c.k
	if n < 1 {
		n = 1
	}
	return n
}

// Split pads data to k equal shards of ShardLen(len(data)) bytes and
// returns them as consecutive slices of one padded buffer: data's own
// backing array when its capacity holds k·ShardLen bytes, else one new
// buffer with data copied in. The padding is zeroed, so the caller's spare
// capacity may hold anything. The shards alias the buffer (each capped at
// its own end), so neither data nor a shard may change while the other is
// in use.
func (c *Codec) Split(data []byte) [][]byte {
	shardLen := c.ShardLen(len(data))
	padded := slices.Grow(data, c.k*shardLen-len(data))[:c.k*shardLen]
	clear(padded[len(data):])
	shards := make([][]byte, c.k)
	for i := range shards {
		shards[i] = padded[i*shardLen : (i+1)*shardLen : (i+1)*shardLen]
	}
	return shards
}

// Join reassembles the original payload of dataLen bytes from k data
// shards (the inverse of Split).
func (c *Codec) Join(shards [][]byte, dataLen int) ([]byte, error) {
	if len(shards) != c.k {
		return nil, fmt.Errorf("erasure: Join wants %d data shards, got %d", c.k, len(shards))
	}
	shardLen := c.ShardLen(dataLen)
	out := make([]byte, 0, dataLen)
	for i := 0; i < c.k && len(out) < dataLen; i++ {
		if len(shards[i]) != shardLen {
			return nil, fmt.Errorf("erasure: shard %d is %d bytes, want %d", i, len(shards[i]), shardLen)
		}
		take := dataLen - len(out)
		if take > shardLen {
			take = shardLen
		}
		out = append(out, shards[i][:take]...)
	}
	return out, nil
}

// Encode computes the full fragment set (k data + m parity) from k data
// shards of equal length. The returned slice aliases the input data
// shards in positions 0..k-1 and holds fresh parity in k..k+m-1, the m
// parity shards cut from one allocation, each capped at its own end.
func (c *Codec) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("erasure: Encode wants %d data shards, got %d", c.k, len(data))
	}
	shardLen := len(data[0])
	for i, s := range data {
		if len(s) != shardLen {
			return nil, fmt.Errorf("erasure: shard %d is %d bytes, want %d", i, len(s), shardLen)
		}
	}
	frags := make([][]byte, c.k+c.m)
	copy(frags, data)
	parity := make([]byte, c.m*shardLen)
	for i := range c.m {
		frags[c.k+i] = parity[i*shardLen : (i+1)*shardLen : (i+1)*shardLen]
	}
	c.gen[c.k:].mulVec(frags[c.k:], data)
	return frags, nil
}

// Reconstruct fills in missing fragments. frags must have length k+m;
// nil entries are erasures. If at least k fragments are present, every
// nil entry (data and parity alike) is recomputed in place and the full
// set returned; with fewer than k survivors it returns
// ErrTooManyErasures. Present fragments are trusted — corrupted ones
// must be nil-ed (erased) by the caller first, which is what the peer
// shelter's per-fragment checksums are for.
func (c *Codec) Reconstruct(frags [][]byte) error {
	if len(frags) != c.k+c.m {
		return fmt.Errorf("erasure: Reconstruct wants %d fragments, got %d", c.k+c.m, len(frags))
	}
	present := make([]int, 0, c.k)
	shardLen := -1
	for i, f := range frags {
		if f == nil {
			continue
		}
		if shardLen < 0 {
			shardLen = len(f)
		} else if len(f) != shardLen {
			return fmt.Errorf("erasure: fragment %d is %d bytes, want %d", i, len(f), shardLen)
		}
		if len(present) < c.k {
			present = append(present, i)
		}
	}
	if len(present) < c.k {
		return fmt.Errorf("%w: %d of %d fragments survive, need %d",
			ErrTooManyErasures, len(present), c.k+c.m, c.k)
	}
	// Fast path: all data shards intact ⇒ recompute only missing parity.
	dataIntact := true
	for i := 0; i < c.k; i++ {
		if frags[i] == nil {
			dataIntact = false
			break
		}
	}
	if !dataIntact {
		// Build the k×k submatrix of generator rows for the chosen
		// survivors, invert it, and multiply to recover the data shards.
		sub := newMatrix(c.k, c.k)
		in := make([][]byte, c.k)
		for r, fi := range present {
			copy(sub[r], c.gen[fi])
			in[r] = frags[fi]
		}
		dec, err := sub.invert()
		if err != nil {
			// Unreachable for a Cauchy-systematic generator; guard anyway.
			return err
		}
		data := make([][]byte, c.k)
		for i := range data {
			data[i] = make([]byte, shardLen)
		}
		dec.mulVec(data, in)
		for i := 0; i < c.k; i++ {
			if frags[i] == nil {
				frags[i] = data[i]
			}
		}
	}
	// Recompute any missing parity from the (now complete) data shards.
	for i := 0; i < c.m; i++ {
		if frags[c.k+i] != nil {
			continue
		}
		par := make([]byte, shardLen)
		for j := 0; j < c.k; j++ {
			mulAdd(par, frags[j], c.gen[c.k+i][j])
		}
		frags[c.k+i] = par
	}
	return nil
}
