package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// FuzzReedSolomon drives random (k, m, payload, erasure-set) round trips,
// once from a payload with no spare capacity and once from one whose
// capacity already holds the padding (Split's two cases, each first held to
// checkSplit): any ≤m erasures must decode to exactly the original bytes,
// and >m erasures must return an error — never silently wrong data.
func FuzzReedSolomon(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(1), []byte("hello stripe"))
	f.Add(int64(2), uint8(4), uint8(2), []byte{0})
	f.Add(int64(3), uint8(1), uint8(3), []byte{})
	f.Add(int64(4), uint8(7), uint8(0), bytes.Repeat([]byte{0xa5}, 300))
	f.Fuzz(func(t *testing.T, seed int64, kRaw, mRaw uint8, data []byte) {
		k := 1 + int(kRaw)%12
		m := int(mRaw) % 6
		c, err := New(k, m)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", k, m, err)
		}
		tight, roomy := payloads(c, data)
		for _, payload := range [][]byte{tight, roomy} {
			checkSplit(t, c, payload)
			roundTrip(t, c, rand.New(rand.NewSource(seed)), payload)
		}
	})
}

// roundTrip stripes payload, then erases up to m fragments (which must
// reconstruct exactly) and m+1 (which must fail).
func roundTrip(t *testing.T, c *Codec, rng *rand.Rand, payload []byte) {
	t.Helper()
	k, m := c.k, c.m
	data := append([]byte(nil), payload...)
	frags, err := c.Encode(c.Split(payload))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	// ≤ m erasures: exact recovery.
	nerase := rng.Intn(m + 1)
	work := make([][]byte, len(frags))
	for i, fr := range frags {
		work[i] = append([]byte(nil), fr...)
	}
	for _, e := range rng.Perm(k + m)[:nerase] {
		work[e] = nil
	}
	if err := c.Reconstruct(work); err != nil {
		t.Fatalf("k=%d m=%d erase=%d: %v", k, m, nerase, err)
	}
	for i := range frags {
		if !bytes.Equal(work[i], frags[i]) {
			t.Fatalf("k=%d m=%d: fragment %d reconstructed wrong", k, m, i)
		}
	}
	got, err := c.Join(work[:k], len(data))
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("k=%d m=%d: payload mismatch after decode", k, m)
	}

	// > m erasures: must error, never fabricate bytes.
	over := make([][]byte, len(frags))
	for i, fr := range frags {
		over[i] = append([]byte(nil), fr...)
	}
	for _, e := range rng.Perm(k + m)[:m+1] {
		over[e] = nil
	}
	if err := c.Reconstruct(over); !errors.Is(err, ErrTooManyErasures) {
		t.Fatalf("k=%d m=%d with %d erasures: got %v, want ErrTooManyErasures", k, m, m+1, err)
	}
}
