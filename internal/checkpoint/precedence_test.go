package checkpoint

import (
	"errors"
	"strings"
	"testing"

	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// assembleJIT assembles from the "jit" namespace of disk followed by extra,
// in that order — the shape every harness restore has.
func assembleJIT(p *vclock.Proc, disk *Store, extra []Candidate, topo train.Topology, writerWorld int) (*RestorePlan, error) {
	return AssembleRestore(p, append(StoreCandidates(disk, "job", "jit"), extra...), topo, writerWorld)
}

// TestAssembleRestorePrecedence pins the assembler's contract over one
// ordered candidate list: per position the first probing-valid candidate
// wins, a failing probe falls through to the next, a position already
// covered is not probed again, writerWorld filters writer ranks, and an
// iteration with an uncovered position is rejected with an
// assemble-fallback instant.
func TestAssembleRestorePrecedence(t *testing.T) {
	topo := train.Topology{D: 2, P: 2, T: 1} // ranks 0..3, positions p0 (0,2) and p1 (1,3)
	env := vclock.NewEnv(1)
	rec := trace.New()
	trace.Attach(env, rec)
	disk := NewStore(env, "disk", TmpfsParams())

	probes := map[string]int{}
	fake := func(tier string, iter, rank int, valid bool) Candidate {
		desc := tier + ":" + RankDir("job", tier, iter, rank)
		return Candidate{
			Iter: iter, Rank: rank, Desc: desc,
			Probe: func(*vclock.Proc) bool { probes[desc]++; return valid },
			Load:  func(*vclock.Proc) (*train.ModelState, error) { return testState(iter, rank, 1), nil },
		}
	}
	tierOf := func(c Candidate) string { return c.Desc[:strings.IndexByte(c.Desc, ':')] }

	runProc(t, env, func(p *vclock.Proc) {
		// Iteration 7: p0 is offered by a store entry, a stripe and a
		// bundle; p1 only by a stripe whose probe fails and a bundle.
		if err := WriteRank(p, disk, RankDir("job", "jit", 7, 0), testState(7, 0, 1), 32); err != nil {
			t.Fatal(err)
		}
		extra := []Candidate{
			fake("stripe", 7, 0, true),
			fake("stripe", 7, 1, false),
			fake("bundle", 7, 0, true),
			fake("bundle", 7, 1, true),
			// Iteration 9 is newer but only writer ranks 4 and 5 hold it.
			fake("stripe", 9, 4, true),
			fake("stripe", 9, 5, true),
		}

		plan, err := assembleJIT(p, disk, extra, topo, topo.World())
		if err != nil {
			t.Fatal(err)
		}
		if plan.Iter != 7 {
			t.Fatalf("iter = %d, want 7 (iteration 9's writers are outside writerWorld)", plan.Iter)
		}
		for r, want := range []string{"disk", "bundle", "disk", "bundle"} {
			if got := tierOf(plan.For[r]); got != want {
				t.Errorf("rank %d restores from %q, want %q", r, plan.For[r].Desc, want)
			}
		}
		if n := probes[extra[1].Desc]; n != 1 {
			t.Errorf("failing p1 stripe probed %d times, want 1", n)
		}
		if n := probes[extra[0].Desc] + probes[extra[2].Desc]; n != 0 {
			t.Errorf("p0 was covered by the store entry, yet later candidates were probed %d times", n)
		}
		if n := probes[extra[4].Desc] + probes[extra[5].Desc]; n != 0 {
			t.Errorf("writer ranks beyond writerWorld were probed %d times", n)
		}
		fb := trace.NewQuery(rec).Instants("ckpt", "assemble-fallback")
		if len(fb) != 1 || fb[0].Args["iter"] != "9" {
			t.Errorf("assemble-fallback instants = %+v, want one for iter 9", fb)
		}

		// A store entry that fails deep validation falls through to the
		// next candidate in list order.
		if !disk.Corrupt(RankDir("job", "jit", 7, 0) + "/model.bin") {
			t.Fatal("corrupt failed")
		}
		plan, err = assembleJIT(p, disk, extra, topo, topo.World())
		if err != nil {
			t.Fatal(err)
		}
		if got := tierOf(plan.For[0]); plan.Iter != 7 || got != "stripe" {
			t.Errorf("after corruption: iter %d, rank 0 from %q; want iter 7 from the stripe", plan.Iter, plan.For[0].Desc)
		}

		// Admitting the wider era's writers makes iteration 9 assemble.
		plan, err = assembleJIT(p, disk, extra, topo, 6)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Iter != 9 || plan.For[0].Rank != 4 || plan.For[3].Rank != 5 {
			t.Errorf("writerWorld 6: iter %d, rank 0 <- writer %d, rank 3 <- writer %d; want 9, 4, 5",
				plan.Iter, plan.For[0].Rank, plan.For[3].Rank)
		}

		// No iteration covers every position: both are rejected.
		if _, err := assembleJIT(p, disk, extra[:1], topo, topo.World()); !errors.Is(err, ErrUnassembled) {
			t.Errorf("err = %v, want ErrUnassembled", err)
		}
	})
}
