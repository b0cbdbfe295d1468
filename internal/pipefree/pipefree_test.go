package pipefree

import (
	"errors"
	"testing"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/gpu"
	"jitckpt/internal/tensor"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// pipeTopo is the canonical test geometry: four pipeline stages, one rank
// (and one node) per stage.
var pipeTopo = train.Topology{D: 1, P: 4, T: 1}

func testState(iter, rank int) *train.ModelState {
	rng := tensor.NewRNG(uint64(iter*100 + rank + 1))
	v := tensor.NewVector(16)
	rng.FillUniform(v, 1)
	return &train.ModelState{
		Iter: iter, Rank: rank,
		Tensors: map[string]tensor.Vector{train.ParamTensorName(rank): v},
	}
}

// fakePeeker serves successive iterations' states for one rank.
type fakePeeker struct {
	rank int
	iter int
}

func (f *fakePeeker) PeekModelState() (*train.ModelState, error) {
	return testState(f.iter, f.rank), nil
}

// mustGuard builds the tier over pipeTopo with rank == node placement.
func mustGuard(t *testing.T, env *vclock.Env) *Guard {
	t.Helper()
	g, err := New(env, "job", pipeTopo, func(rank int) int { return rank })
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// offerAll drives every rank's keeper through iters boundaries with ample
// idle time between offers.
func offerAll(t *testing.T, env *vclock.Env, g *Guard, iters int) []*Keeper {
	t.Helper()
	keepers := make([]*Keeper, pipeTopo.World())
	for r := range keepers {
		keepers[r] = g.NewKeeper(r, nil, 1e6, 2e9)
	}
	env.Go("drive", func(p *vclock.Proc) {
		for it := 1; it <= iters; it++ {
			for r, k := range keepers {
				k.Offer(&fakePeeker{rank: r, iter: it})
			}
			p.Sleep(vclock.Second)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return keepers
}

func TestValidation(t *testing.T) {
	env := vclock.NewEnv(1)
	if _, err := New(env, "job", train.Topology{D: 2, P: 1, T: 1}, func(int) int { return 0 }); err == nil {
		t.Error("single-stage topology must be rejected")
	}
}

// TestHostRanksWrapAround: each stage's bundle goes to the next stage at the
// same (d, t) coordinates, and the last stage's to the first.
func TestHostRanksWrapAround(t *testing.T) {
	topo := train.Topology{D: 2, P: 4, T: 1}
	g, err := New(vclock.NewEnv(1), "job", topo, func(rank int) int { return rank })
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < topo.World(); r++ {
		d, p, tt := topo.Coords(r)
		if got, want := g.HostRank(r), topo.Rank(d, (p+1)%topo.P, tt); got != want {
			t.Errorf("HostRank(%d) = %d, want %d", r, got, want)
		}
	}
	if got, want := g.HostRank(topo.Rank(1, 3, 0)), topo.Rank(1, 0, 0); got != want {
		t.Errorf("last stage's host = %d, want the first stage's %d", got, want)
	}
}

func TestRetainRebuildZeroReadsBitExact(t *testing.T) {
	env := vclock.NewEnv(1)
	g := mustGuard(t, env)
	st := checkpoint.NewStore(env, "disk", checkpoint.DiskParams())
	offerAll(t, env, g, 3)
	// Each offer commits a self-bundle plus one neighbor bundle.
	if s := g.Stats(); s.Commits != 24 || s.Skips != 0 {
		t.Fatalf("stats = %+v, want 24 commits / 0 skips", s)
	}
	if cov := g.CoveredPositions(pipeTopo); len(cov) != pipeTopo.PositionCount() {
		t.Fatalf("covered %d positions, want %d", len(cov), pipeTopo.PositionCount())
	}

	// Stage 1's node dies: its bundle on node 2 survives and rebuilds it.
	g.MarkNodeLost(1)
	env.Go("restore", func(p *vclock.Proc) {
		plan, err := checkpoint.AssembleRestore(p, g.RestoreCandidates(), pipeTopo, pipeTopo.World())
		if err != nil {
			t.Error(err)
			return
		}
		if plan.Iter != 3 {
			t.Errorf("plan iter = %d, want newest 3", plan.Iter)
		}
		for r := 0; r < pipeTopo.World(); r++ {
			t0 := p.Now()
			got, err := plan.For[r].Load(p)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			if p.Now() == t0 {
				t.Errorf("rank %d load charged no virtual time", r)
			}
			want := testState(3, r)
			for name, wv := range want.Tensors {
				if !got.Tensors[name].Equal(wv) {
					t.Errorf("rank %d tensor %s not bit-exact after rebuild", r, name)
				}
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if st.ReadBytes() != 0 {
		t.Fatalf("checkpoint store served %d bytes during checkpoint-free recovery", st.ReadBytes())
	}
	s := g.Stats()
	if s.Rebuilds+s.SelfReloads != 4 || s.Rebuilds < 1 || s.RebuildTime == 0 {
		t.Fatalf("stats = %+v, want 4 loads incl. ≥1 neighbor rebuild with time charged", s)
	}
}

// TestDoubleFaultUncoversStage is the fallback precondition: with
// redundancy 1, losing a stage AND its hosting neighbor leaves the stage's
// position uncovered, so assembly over the pipe-free tier alone fails and
// the harness must fall back to disk.
func TestDoubleFaultUncoversStage(t *testing.T) {
	env := vclock.NewEnv(1)
	g := mustGuard(t, env)
	offerAll(t, env, g, 2)
	g.MarkNodeLost(1) // stage 1 dies...
	g.MarkNodeLost(2) // ...and so does the node hosting its bundle
	cov := g.CoveredPositions(pipeTopo)
	if cov[pipeTopo.PositionKey(1)] {
		t.Fatal("stage 1 still covered after double fault")
	}
	if !cov[pipeTopo.PositionKey(2)] {
		t.Fatal("stage 2 uncovered: its neighbor bundle on node 3 should survive")
	}
	env.Go("restore", func(p *vclock.Proc) {
		_, err := checkpoint.AssembleRestore(p, g.RestoreCandidates(), pipeTopo, pipeTopo.World())
		if !errors.Is(err, checkpoint.ErrUnassembled) {
			t.Errorf("assembly over uncovered tier: err = %v, want ErrUnassembled", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOfferIsAsyncBusySkipsAndRetention(t *testing.T) {
	env := vclock.NewEnv(1)
	g := mustGuard(t, env)
	// A 1 GB bundle stages over 2 GB/s D2H: 500 ms in flight before the link.
	k := g.NewKeeper(0, nil, 1e9, 2e9)
	env.Go("drive", func(pp *vclock.Proc) {
		t0 := pp.Now()
		k.Offer(&fakePeeker{rank: 0, iter: 1})
		if pp.Now() != t0 {
			t.Error("Offer charged time on the caller")
		}
		pp.Sleep(100 * vclock.Millisecond)
		k.Offer(&fakePeeker{rank: 0, iter: 2}) // in flight: skipped
		pp.Sleep(10 * vclock.Second)
		for it := 3; it <= 6; it++ {
			k.Offer(&fakePeeker{rank: 0, iter: it})
			pp.Sleep(10 * vclock.Second)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.Skips != 1 || s.Commits != 10 {
		t.Fatalf("stats = %+v, want 1 skip / 10 commits (5 offers × self+neighbor)", s)
	}
	// Retention: only the newest two iters remain as candidates.
	iters := map[int]bool{}
	for _, c := range g.RestoreCandidates() {
		iters[c.Iter] = true
	}
	if len(iters) != 2 || !iters[5] || !iters[6] {
		t.Fatalf("retained iters = %v, want {5, 6}", iters)
	}
	if s.BytesRetained != 4e9 {
		t.Fatalf("BytesRetained = %d, want 4e9 (2 iters × self+neighbor × 1 GB)", s.BytesRetained)
	}
}

func TestCaptureAbortsWhenDeviceDies(t *testing.T) {
	env := vclock.NewEnv(1)
	g := mustGuard(t, env)
	dev := gpu.NewDevice(env, 0, 0, 1<<30)
	// 1 GB at 2 GB/s D2H: 500 ms staging — the device dies at 100 ms.
	k := g.NewKeeper(0, dev, 1e9, 2e9)
	env.Go("drive", func(p *vclock.Proc) {
		k.Offer(&fakePeeker{rank: 0, iter: 1})
		p.Sleep(100 * vclock.Millisecond)
		dev.InjectHard()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.AbortedCaptures != 1 || s.Commits != 0 {
		t.Fatalf("stats = %+v, want 1 aborted / 0 commits", s)
	}
}

// TestOfferSelfOnlyWhenHostsLost: with every hosting neighbor's node lost,
// offers still retain the local self-bundle (the stage stays restorable on
// its own node) but nothing ships over the link.
func TestOfferSelfOnlyWhenHostsLost(t *testing.T) {
	env := vclock.NewEnv(1)
	g := mustGuard(t, env)
	g.MarkNodeLost(1) // rank 0's only neighbor host (redundancy 1)
	k := g.NewKeeper(0, nil, 1e6, 2e9)
	env.Go("drive", func(p *vclock.Proc) {
		k.Offer(&fakePeeker{rank: 0, iter: 1})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if s := g.Stats(); s.Skips != 0 || s.Commits != 1 {
		t.Fatalf("stats = %+v, want 0 skips / 1 self-only commit", s)
	}
	if !g.CoveredPositions(pipeTopo)[pipeTopo.PositionKey(0)] {
		t.Fatal("stage 0 should stay covered by its self-bundle")
	}
}

// heldBytes sums the modelled size of every bundle the guard still holds.
func heldBytes(g *Guard) int64 {
	var total int64
	for _, hosts := range g.bundles {
		for _, list := range hosts {
			for _, b := range list {
				total += b.bytes
			}
		}
	}
	return total
}

// TestBytesRetainedTracksHeldBundles: BytesRetained is "the bundle volume
// currently held" — it must not grow when a restore rewinds the iteration
// and the same boundaries are offered again (the bundle is replaced, not
// added), and it must shrink when a host's bundles die with their node.
func TestBytesRetainedTracksHeldBundles(t *testing.T) {
	env := vclock.NewEnv(1)
	g := mustGuard(t, env)
	keepers := make([]*Keeper, pipeTopo.World())
	for r := range keepers {
		keepers[r] = g.NewKeeper(r, nil, 1e6, 2e9)
	}
	check := func(step string) {
		t.Helper()
		if got, want := g.Stats().BytesRetained, heldBytes(g); got != want || want == 0 {
			t.Errorf("%s: BytesRetained = %d, held bundles sum to %d", step, got, want)
		}
	}
	env.Go("drive", func(p *vclock.Proc) {
		offer := func(it int) {
			for r, k := range keepers {
				k.Offer(&fakePeeker{rank: r, iter: it})
			}
			p.Sleep(vclock.Second)
		}
		for it := 1; it <= 3; it++ {
			offer(it)
		}
		check("after three boundaries")
		// A restore rewinds to iteration 2: boundaries 2 and 3 run again.
		offer(2)
		check("after re-offering iteration 2")
		offer(3)
		check("after re-offering iteration 3")
		g.MarkNodeLost(1)
		check("after losing node 1")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
