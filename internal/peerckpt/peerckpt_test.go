package peerckpt

import (
	"testing"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/tensor"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

func testState(iter, rank int) *train.ModelState {
	rng := tensor.NewRNG(uint64(iter*100 + rank + 1))
	v := tensor.NewVector(16)
	rng.FillUniform(v, 1)
	return &train.ModelState{
		Iter: iter, Rank: rank,
		Tensors: map[string]tensor.Vector{"param.L0.w#0": v},
	}
}

func testImage(t *testing.T, iter, rank int) checkpoint.RankImage {
	t.Helper()
	data, err := testState(iter, rank).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return checkpoint.RankImage{Iter: iter, Rank: rank, Data: data}
}

// fakePeeker serves successive iterations' states for one rank.
type fakePeeker struct {
	rank int
	iter int
}

func (f *fakePeeker) PeekModelState() (*train.ModelState, error) {
	return testState(f.iter, f.rank), nil
}

func testParams() Params {
	return Params{LinkBandwidth: 1e9, Copies: 1}
}

// mustShelter builds a shelter without availability checks, failing the
// test on a validation error.
func mustShelter(t *testing.T, env *vclock.Env, p Params) *Shelter {
	t.Helper()
	s, err := NewShelter(env, "job", p, Availability{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCommitValidityAndRetention(t *testing.T) {
	env := vclock.NewEnv(1)
	s := mustShelter(t, env, testParams())
	pk := &fakePeeker{rank: 3}
	rep := s.NewReplicator(3, nil, []int{1}, 1e6, 2e9)
	env.Go("drive", func(p *vclock.Proc) {
		for it := 1; it <= 5; it++ {
			pk.iter = it
			rep.Offer(pk)
			p.Sleep(vclock.Second) // plenty for 1MB at ~GB/s
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.Host(1)
	if st == nil {
		t.Fatal("host 1 missing")
	}
	// All five offers should have committed (1s gap >> transfer time).
	if got := s.Stats(); got.Commits != 5 || got.Skips != 0 {
		t.Fatalf("stats = %+v, want 5 commits / 0 skips", got)
	}
	// Retention keeps only the newest two iterations for the rank.
	for it := 1; it <= 5; it++ {
		dir := checkpoint.RankDir("job", PolicyName, it, 3)
		has := checkpoint.HasComplete(st, dir)
		want := it >= 4
		if has != want {
			t.Errorf("iter %d sheltered=%v, want %v", it, has, want)
		}
	}
	// The newest entry must be readable and checksum-valid.
	env2done := false
	env.Go("read", func(p *vclock.Proc) {
		dir := checkpoint.RankDir("job", PolicyName, 5, 3)
		ms, err := checkpoint.ReadRank(p, st, dir)
		if err != nil {
			t.Errorf("ReadRank: %v", err)
			return
		}
		if ms.Iter != 5 || ms.Rank != 3 {
			t.Errorf("read iter %d rank %d", ms.Iter, ms.Rank)
		}
		env2done = true
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !env2done {
		t.Fatal("read proc did not run")
	}
}

func TestOfferIsAsyncAndBusySkips(t *testing.T) {
	env := vclock.NewEnv(1)
	s := mustShelter(t, env, testParams())
	pk := &fakePeeker{rank: 0, iter: 1}
	// 1 GB over a 1 GB/s link with 2 GB/s D2H staging: ~1.5 s in flight.
	rep := s.NewReplicator(0, nil, []int{2}, 1e9, 2e9)
	env.Go("drive", func(p *vclock.Proc) {
		t0 := p.Now()
		rep.Offer(pk)
		if p.Now() != t0 {
			t.Error("Offer charged time on the caller")
		}
		p.Sleep(100 * vclock.Millisecond)
		pk.iter = 2
		rep.Offer(pk) // previous transfer still in flight
		p.Sleep(10 * vclock.Second)
		pk.iter = 3
		rep.Offer(pk) // idle again
		p.Sleep(10 * vclock.Second)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	got := s.Stats()
	if got.Offers != 3 || got.Skips != 1 || got.Commits != 2 {
		t.Fatalf("stats = %+v, want 3 offers / 1 skip / 2 commits", got)
	}
	// The skipped iteration 2 must not exist; 1 was pruned by retention
	// (two kept: iters > 3-2); 3 must exist.
	st := s.Host(2)
	for it, want := range map[int]bool{1: false, 2: false, 3: true} {
		dir := checkpoint.RankDir("job", PolicyName, it, 0)
		if checkpoint.HasComplete(st, dir) != want {
			t.Errorf("iter %d sheltered=%v, want %v", it, !want, want)
		}
	}
}

func TestMarkNodeLostRemovesCoverage(t *testing.T) {
	env := vclock.NewEnv(1)
	s := mustShelter(t, env, testParams())
	topo := train.Topology{D: 2, P: 2, T: 1}
	env.Go("w", func(p *vclock.Proc) {
		// Shelter ranks 0..3 split across nodes 5 and 6.
		for rank := 0; rank < 4; rank++ {
			node := 5 + rank%2
			if err := s.commit(p, node, testImage(t, 7, rank), 1e6); err != nil {
				t.Errorf("commit rank %d: %v", rank, err)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if cov := s.CoveredPositions(topo); len(cov) != topo.PositionCount() {
		t.Fatalf("covered %d positions, want %d: %v", len(cov), topo.PositionCount(), cov)
	}
	if got := len(s.survivingNodes()); got != 2 {
		t.Fatalf("surviving hosts = %d, want 2", got)
	}
	s.MarkNodeLost(5)
	cov := s.CoveredPositions(topo)
	for rank := 0; rank < 4; rank++ {
		key := topo.PositionKey(rank)
		want := rank%2 == 1 // node 6 survivors
		if cov[key] != want {
			t.Errorf("position %s covered=%v, want %v", key, cov[key], want)
		}
	}
	if got := len(s.survivingNodes()); got != 1 {
		t.Fatalf("surviving hosts after loss = %d, want 1", got)
	}
	if s.Host(5) != nil {
		t.Fatal("lost node still serves a host store")
	}
	// Commits routed at a lost node must fail, and the shelter must not
	// resurrect it.
	env.Go("w2", func(p *vclock.Proc) {
		if err := s.commit(p, 5, testImage(t, 8, 0), 1e6); err == nil {
			t.Error("commit to lost node succeeded")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFlushTargetNeverOwnNode(t *testing.T) {
	env := vclock.NewEnv(1)
	s := mustShelter(t, env, testParams())
	// Materialize hosts 0..3.
	for n := 0; n < 4; n++ {
		s.Host(n)
	}
	for own := 0; own < 4; own++ {
		for _, assigned := range [][]int{{(own + 1) % 4}, {own}, nil} {
			st := FlushTarget{s, own, assigned}.SaveStore()
			if st == nil {
				t.Fatalf("own=%d assigned=%v: no store", own, assigned)
			}
			if st == s.Host(own) {
				t.Fatalf("own=%d assigned=%v: flushed to own node", own, assigned)
			}
		}
	}
	// Prefer the assigned host when it survives.
	if st := (FlushTarget{s, 0, []int{2}}).SaveStore(); st != s.Host(2) {
		t.Fatal("did not prefer surviving assigned host")
	}
	// Fall past a lost assigned host.
	s.MarkNodeLost(2)
	if st := (FlushTarget{s, 0, []int{2}}).SaveStore(); st == nil || st == s.Host(0) {
		t.Fatal("no fallback past lost assigned host")
	}
	// All peers lost: only own node remains → nil.
	s.MarkNodeLost(1)
	s.MarkNodeLost(3)
	if st := (FlushTarget{s, 0, []int{1, 2, 3}}).SaveStore(); st != nil {
		t.Fatal("FlushTarget resolved to a store with no surviving peer")
	}
}

func TestCopiesFanOut(t *testing.T) {
	env := vclock.NewEnv(1)
	p := testParams()
	p.Copies = 2
	s := mustShelter(t, env, p)
	pk := &fakePeeker{rank: 1, iter: 4}
	rep := s.NewReplicator(1, nil, []int{7, 9}, 1e6, 2e9)
	env.Go("drive", func(p *vclock.Proc) {
		rep.Offer(pk)
		p.Sleep(vclock.Second)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{7, 9} {
		dir := checkpoint.RankDir("job", PolicyName, 4, 1)
		if !checkpoint.HasComplete(s.Host(n), dir) {
			t.Errorf("copy missing on node %d", n)
		}
	}
	if got := s.Stats(); got.Commits != 2 || got.BytesSheltered != 2e6 {
		t.Fatalf("stats = %+v, want 2 commits / 2e6 bytes", got)
	}
}

func TestPiggybackAccounting(t *testing.T) {
	env := vclock.NewEnv(1)
	s := mustShelter(t, env, testParams())
	for i := 0; i < 3; i++ {
		s.NotePiggyback(1 << 20)
	}
	got := s.Stats()
	if got.PiggybackWaves != 3 || got.PiggybackBytes != 3<<20 {
		t.Fatalf("piggyback stats = %+v", got)
	}
}

func TestParamsDefaults(t *testing.T) {
	s := mustShelter(t, vclock.NewEnv(1), Params{})
	if s.Params() != DefaultParams() {
		t.Fatalf("zero params resolved to %+v", s.Params())
	}
	if got := s.Params(); got.Copies != 1 || got.Striped() {
		t.Fatalf("default shelter %+v, want one replicated copy", got)
	}
}
