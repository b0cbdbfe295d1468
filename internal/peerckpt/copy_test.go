package peerckpt

import (
	"runtime"
	"testing"

	"jitckpt/internal/tensor"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// viewPeeker hands out one prebuilt state the way train.Worker's peek hands
// out device views: without copying anything.
type viewPeeker struct{ ms *train.ModelState }

func (v *viewPeeker) PeekModelState() (*train.ModelState, error) { return v.ms, nil }

// bigView is a state of about 1 MiB, so a ship's byte copies dwarf its
// bookkeeping.
func bigView(rank int) *viewPeeker {
	v := tensor.NewVector(1 << 18)
	tensor.NewRNG(5).FillUniform(v, 1)
	return &viewPeeker{&train.ModelState{Rank: rank, Tensors: map[string]tensor.Vector{"param.L0.w#0": v}}}
}

// shipAlloc returns the bytes one offer allocates, from the peek to the
// last fragment or copy committed, and the length S of the state's
// encoding. The shelter's hosts and the replicator are warmed by an
// earlier offer, so what is measured is the steady-state ship.
func shipAlloc(t *testing.T, params Params, hosts []int) (alloc, encoded uint64) {
	t.Helper()
	env := vclock.NewEnv(1)
	s := mustShelter(t, env, params)
	pk := bigView(0)
	n, err := pk.ms.EncodedLen()
	if err != nil {
		t.Fatal(err)
	}
	rep := s.NewReplicator(0, nil, hosts, 1e6, 2e9)
	var m0, m1 runtime.MemStats
	env.Go("drive", func(p *vclock.Proc) {
		for it := 1; it <= 3; it++ {
			pk.ms.Iter = it
			if it == 3 {
				runtime.ReadMemStats(&m0)
			}
			rep.Offer(pk)
			p.Sleep(vclock.Second)
		}
		runtime.ReadMemStats(&m1)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Offers - s.Stats().Skips; got != 3 {
		t.Fatalf("%d offers shipped, want 3", got)
	}
	return m1.TotalAlloc - m0.TotalAlloc, uint64(n)
}

// TestShipCopiesEachByteOnce pins the shelter's byte path: a ship encodes
// the peeked state once, into a buffer the stripe's data fragments are
// slices of, and the host stores keep what they are given. Only parity
// (m/k of the state in RS(k,m)) and metadata come on top. At five copies of
// the state — clone, encode, split, one store copy per fragment or host —
// either bound fails.
func TestShipCopiesEachByteOnce(t *testing.T) {
	const slack = 4 << 10
	striped := testParams()
	striped.DataShards, striped.ParityShards = 4, 2
	alloc, s := shipAlloc(t, striped, []int{1, 2, 3, 4, 5, 6})
	t.Logf("RS(4,2) ship: %d bytes allocated for a %d-byte state (%.2f S)", alloc, s, float64(alloc)/float64(s))
	if limit := s*16/10 + slack; alloc > limit {
		t.Errorf("one RS(4,2) ship allocates %d bytes, limit is 1.6 S + 4 KiB = %d", alloc, limit)
	}

	replicated := testParams()
	replicated.Copies = 2
	alloc, s = shipAlloc(t, replicated, []int{1, 2})
	t.Logf("two-copy ship: %d bytes allocated for a %d-byte state (%.2f S)", alloc, s, float64(alloc)/float64(s))
	if limit := s*11/10 + slack; alloc > limit {
		t.Errorf("one replicated ship to two hosts allocates %d bytes, limit is 1.1 S + 4 KiB = %d", alloc, limit)
	}
}

// BenchmarkShipStripe times one RS(4,2) ship of a 1 MiB state, from the peek
// through the six fragment commits, in state bytes.
func BenchmarkShipStripe(b *testing.B) {
	env := vclock.NewEnv(1)
	params := testParams()
	params.DataShards, params.ParityShards = 4, 2
	s, err := NewShelter(env, "job", params, Availability{})
	if err != nil {
		b.Fatal(err)
	}
	pk := bigView(0)
	n, err := pk.ms.EncodedLen()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	rep := s.NewReplicator(0, nil, []int{1, 2, 3, 4, 5, 6}, 1e6, 2e9)
	env.Go("drive", func(p *vclock.Proc) {
		for i := 0; i < b.N; i++ {
			pk.ms.Iter = i
			rep.Offer(pk)
			p.Sleep(vclock.Second)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
