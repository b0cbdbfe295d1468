package core

import (
	"fmt"
	"math"
	"testing"

	"jitckpt/internal/failure"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// TestElasticShrink pins the shrink planner: the largest divisor D' < D
// that fits, never fewer pipeline stages or tensor slots, FSDP shard
// groups kept whole, the minNodes floor, and no plan without capacity.
func TestElasticShrink(t *testing.T) {
	type row struct {
		cur                          train.Topology
		perNode, freeNodes, minNodes int
		want                         train.Topology // zero: no viable shape
		nodes                        int
	}
	d4 := train.Topology{D: 4, P: 1, T: 1}
	d2 := train.Topology{D: 2, P: 1, T: 1}
	cases := []struct {
		name string
		rows []row
	}{
		{"PicksLargestDivisor", []row{{d4, 2, 1, 0, d2, 1}}},
		{"NeverDropsPipelineOrTensor", []row{
			// 1 node × 4 GPUs holds D'=1's whole P·T=4 group ...
			{train.Topology{D: 2, P: 2, T: 2}, 4, 1, 0, train.Topology{D: 1, P: 2, T: 2}, 1},
			// ... 2 GPUs cannot hold even one.
			{train.Topology{D: 2, P: 2, T: 2}, 2, 1, 0, train.Topology{}, 0},
		}},
		{"RespectsFSDPShardGroup", []row{
			// D'=2 is the only divisor keeping the shard group of 2 whole,
			// so room for one rank is no room at all.
			{train.Topology{D: 4, P: 1, T: 1, FSDPShard: 2}, 2, 1, 0, train.Topology{D: 2, P: 1, T: 1, FSDPShard: 2}, 1},
			{train.Topology{D: 4, P: 1, T: 1, FSDPShard: 2}, 1, 1, 0, train.Topology{}, 0},
		}},
		{"MinNodes", []row{
			// Peer shelter needs two failure domains: the 2-rank plan spans
			// 2 nodes although it fits on one, and one free node is none.
			{d4, 2, 2, 2, d2, 2},
			{d4, 2, 1, 2, train.Topology{}, 0},
		}},
		{"NoCapacity", []row{
			{d4, 0, 1, 0, train.Topology{}, 0},
			{d4, 2, 0, 0, train.Topology{}, 0},
			{train.Topology{D: 1, P: 1, T: 1}, 2, 4, 0, train.Topology{}, 0},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, r := range tc.rows {
				got, nodes, ok := shrink(r.cur, r.perNode, r.freeNodes, r.minNodes)
				if ok != (r.want != train.Topology{}) || got != r.want || nodes != r.nodes {
					t.Errorf("shrink(%+v, perNode=%d, free=%d, min=%d) = %+v on %d nodes, ok=%v; want %+v on %d",
						r.cur, r.perNode, r.freeNodes, r.minNodes, got, nodes, ok, r.want, r.nodes)
				}
			}
		})
	}
}

// degradedWL is testWL reshaped to the degraded topology an elastic
// shrink of testWL produces: half the data-parallel width on one node.
func degradedWL() workload.Workload {
	wl := testWL()
	wl.Name = "tiny-degraded"
	wl.Nodes, wl.PerNode = 1, 2
	wl.Topo = train.Topology{D: 2, P: 1, T: 1}
	return wl
}

// TestElasticDegradedBitExact is the acceptance scenario: with zero
// spares and a permanent node failure, an elastic job shrinks to half
// width and completes in degraded mode — and its degraded-era losses are
// bit-identical to an oracle job launched at the reduced world size from
// the same restored checkpoint (same store, same step, same
// gradient-accumulation factor).
func TestElasticDegradedBitExact(t *testing.T) {
	const iters = 12
	wl := testWL()
	res, q := reconciled(t, JobConfig{
		WL: wl, Policy: PolicyElasticJIT, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout: 2 * vclock.Second, SpareNodes: 0,
		IterFailures: injectAt(wl, 5.3, 1, failure.NodeDown),
	})
	if !res.Completed {
		t.Fatalf("elastic job did not complete; incarnations=%d", res.Incarnations)
	}
	if res.Accounting.DegradedIters == 0 {
		t.Fatal("no degraded iterations recorded — the job never shrank")
	}
	if n := len(q.Instants("elastic", "shrink")); n != 1 {
		t.Fatalf("shrink instants = %d, want 1", n)
	}
	// The shrink must have happened inside a recovery episode: after the
	// failure was detected, before the degraded incarnation began (trace
	// invariant 5 checks the ordering; here we check it exists at all).
	if len(q.Instants("fail", "detected")) == 0 {
		t.Fatal("no detection instant before the shrink")
	}

	// Oracle: a job whose FULL shape is the degraded one, with the same
	// accumulation factor, restoring from the elastic run's store.
	oracle := mustRun(t, JobConfig{
		WL: degradedWL(), Policy: PolicyUserJIT, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout: 2 * vclock.Second,
		Accum:       2,
		DiskStore:   res.Disk,
		// Admit the elastic run's full-width writers during assembly.
		RestoreWriterWorld: wl.Topo.World(),
	})
	if !oracle.Completed || oracle.Incarnations != 1 {
		t.Fatalf("oracle did not complete cleanly; incarnations=%d", oracle.Incarnations)
	}
	// The oracle's first executed iteration is the restore point both runs
	// resumed from.
	restored := iters
	for i := range oracle.Loss {
		if i < restored {
			restored = i
		}
	}
	if restored >= iters-3 {
		t.Fatalf("restore point %d leaves too little degraded era to compare", restored)
	}
	// Compare strictly after the restore point: the elastic run may have
	// recorded the restore iteration's loss at full width before the
	// failure killed the reference rank.
	for i := restored + 1; i < iters; i++ {
		ev, eok := res.Loss[i]
		ov, ook := oracle.Loss[i]
		if !eok || !ook {
			t.Fatalf("iter %d: loss missing (elastic=%v oracle=%v)", i, eok, ook)
		}
		if math.Float32bits(ev) != math.Float32bits(ov) {
			t.Fatalf("iter %d: elastic loss %v != oracle loss %v (not bit-exact)", i, ev, ov)
		}
	}
}

// TestElasticExpandAfterRepair drives the full state machine: shrink on a
// permanent node failure with no spares, run degraded, then re-expand to
// full width when the failure plan repairs the node mid-run.
func TestElasticExpandAfterRepair(t *testing.T) {
	const iters = 20
	wl := testWL()
	inj := append(injectAt(wl, 5.3, 1, failure.NodeDown),
		IterInjection{Iter: 9, Frac: 0.5, Rank: 0, Kind: failure.NodeRepaired})
	res, q := reconciled(t, JobConfig{
		WL: wl, Policy: PolicyElasticJIT, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout: 2 * vclock.Second, SpareNodes: 0,
		IterFailures: inj,
	})
	if !res.Completed {
		t.Fatalf("job did not complete; incarnations=%d", res.Incarnations)
	}
	if n := len(q.Instants("elastic", "shrink")); n != 1 {
		t.Fatalf("shrink instants = %d, want 1", n)
	}
	if n := len(q.Instants("elastic", "expand")); n != 1 {
		t.Fatalf("expand instants = %d, want 1", n)
	}
	if res.Accounting.DegradedIters == 0 {
		t.Fatal("no degraded iterations recorded")
	}
	// Completion at full width: three incarnations (full, degraded,
	// re-expanded), and every loss iteration present.
	if res.Incarnations != 3 {
		t.Fatalf("incarnations = %d, want 3 (full, degraded, expanded)", res.Incarnations)
	}
	for i := 0; i < iters; i++ {
		if _, ok := res.Loss[i]; !ok {
			t.Fatalf("iter %d: no loss recorded", i)
		}
	}
}

// TestTransparentNoViablePlacementEager is the satellite fix: with spares
// exhausted, the transparent hard-error path must classify the episode as
// no-viable-placement eagerly — before burning JIT-checkpoint, CRIU, and
// restore time on attempts that can never assemble a placement — mark it
// terminal, and end the run there.
func TestTransparentNoViablePlacementEager(t *testing.T) {
	wl := testWL()
	res, q := checkedRun(t, JobConfig{
		WL: wl, Policy: PolicyTransparentJIT, Iters: 12, Seed: 1,
		HangTimeout: 2 * vclock.Second, SpareNodes: 0,
		IterFailures: injectAt(wl, 5.3, 1, failure.NodeDown),
	})
	last := checkEndedAtGiveUp(t, res, q)
	if last.Kind != KindNoViablePlacement {
		t.Fatalf("kind = %q, want %q", last.Kind, KindNoViablePlacement)
	}
	if !last.Terminal() {
		t.Fatalf("no-viable-placement must be terminal: %+v", last)
	}
	if last.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (eager classification, no retries)", last.Attempts)
	}
}

// TestElasticChaosSoakGrid is the chaos-soak variant for the elastic
// path: zero spares, a permanent node failure, and a RackDown striking
// mid-restore of the degraded incarnation — nested shrinks. Every run
// must satisfy the trace invariants (checkedRun) and reconcile its
// accounting exactly against the trace at whatever world size it ends at;
// the repaired variants must additionally re-expand and complete at full
// width.
func TestElasticChaosSoakGrid(t *testing.T) {
	const iters = 18
	wl := testWL()
	wl.Name = "tiny-4n"
	wl.Nodes, wl.PerNode = 4, 1

	// Iteration-anchored repairs exercise the mid-run expand request; the
	// absolute-time plan exercises AwaitRepair (the peer variant cannot
	// shrink below two failure domains, so it waits for capacity instead
	// of training through the repair iteration).
	repairIter := []IterInjection{
		{Iter: 11, Frac: 0.3, Rank: 0, Kind: failure.NodeRepaired},
		{Iter: 11, Frac: 0.6, Rank: 0, Kind: failure.NodeRepaired},
		{Iter: 12, Frac: 0.3, Rank: 0, Kind: failure.NodeRepaired},
	}
	// The three repairs land close together so full capacity returns while
	// the degraded restart still has iterations left to train through.
	repairPlan := failure.Plan{Injections: []failure.Injection{
		{At: 300 * vclock.Second, Target: 0, Kind: failure.NodeRepaired},
		{At: 300*vclock.Second + 200*vclock.Millisecond, Target: 0, Kind: failure.NodeRepaired},
		{At: 300*vclock.Second + 400*vclock.Millisecond, Target: 0, Kind: failure.NodeRepaired},
	}}
	cases := []struct {
		name    string
		policy  Policy
		repairs []IterInjection
		plan    failure.Plan
		// wantFull: the run must re-expand and complete at full width.
		// Otherwise it must either complete degraded or stall waiting at
		// the horizon — both with exact accounting.
		wantFull bool
	}{
		{"jit-degraded-finish", PolicyElasticJIT, nil, failure.Plan{}, false},
		{"jit-repair-expand", PolicyElasticJIT, repairIter, failure.Plan{}, true},
		{"peer-degraded", PolicyElasticPeer, nil, failure.Plan{}, false},
		{"peer-repair-expand", PolicyElasticPeer, nil, repairPlan, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			inj := append(injectAt(wl, float64(iters)/3, 3, failure.NodeDown), tc.repairs...)
			res, q := reconciled(t, JobConfig{
				WL: wl, Policy: tc.policy, Iters: iters, Seed: 1, CollectLoss: true,
				HangTimeout: 2 * vclock.Second, SpareNodes: 0,
				IterFailures: inj,
				Failures:     tc.plan,
				Chaos: &ChaosConfig{
					PhaseInjections: []failure.PhaseInjection{{
						Phase:      failure.PhaseRestore,
						Rank:       -1, // first rank restoring in the degraded incarnation
						Occurrence: 2,  // occurrence 1 is the degraded restore wave's start
						Delay:      100 * vclock.Millisecond,
						Target:     -1,
						Kind:       failure.RackDown,
					}},
				},
			})
			shrinks := len(q.Instants("elastic", "shrink"))
			expands := len(q.Instants("elastic", "expand"))
			if shrinks == 0 {
				t.Fatal("no elastic shrink recorded")
			}
			if tc.wantFull {
				if !res.Completed {
					t.Fatalf("repaired run did not complete; incarnations=%d shrinks=%d expands=%d",
						res.Incarnations, shrinks, expands)
				}
				if expands == 0 {
					t.Fatal("repaired run never re-expanded")
				}
				for i := 0; i < iters; i++ {
					if _, ok := res.Loss[i]; !ok {
						t.Fatalf("iter %d: no loss recorded", i)
					}
				}
			}
			if res.Completed && res.Accounting.DegradedIters == 0 {
				t.Fatal("completed without any degraded iterations despite capacity loss")
			}
			t.Logf("%s: completed=%v incarnations=%d shrinks=%d expands=%d acct=%s",
				tc.name, res.Completed, res.Incarnations, shrinks, expands, res.Accounting.String())
		})
	}
}

// TestElasticPolicyNamespaceIsolated ensures the planned elastic saves
// land in their own namespace and the combined restore path prefers the
// newest assemblable iteration across namespaces.
func TestElasticPolicyNamespaceIsolated(t *testing.T) {
	const iters = 20
	wl := testWL()
	inj := append(injectAt(wl, 5.3, 1, failure.NodeDown),
		IterInjection{Iter: 9, Frac: 0.5, Rank: 0, Kind: failure.NodeRepaired})
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyElasticJIT, Iters: iters, Seed: 1,
		HangTimeout: 2 * vclock.Second, SpareNodes: 0,
		IterFailures: inj,
	})
	if !res.Completed {
		t.Fatalf("job did not complete; incarnations=%d", res.Incarnations)
	}
	if len(res.Disk.List(fmt.Sprintf("job/ckpt/%s/", ElasticPolicyName))) == 0 {
		t.Fatal("no elastic-namespace checkpoints written by the expand stop")
	}
	if len(res.Disk.List(fmt.Sprintf("job/ckpt/%s/", JITPolicyName))) == 0 {
		t.Fatal("JIT-namespace checkpoints missing")
	}
}
