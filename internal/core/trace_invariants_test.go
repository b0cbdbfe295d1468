package core

import (
	"fmt"
	"math/rand"
	"testing"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/failure"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// checkedRun executes cfg with a fresh recorder and asserts the trace
// invariants of trace.CheckInvariants over the resulting log.
func checkedRun(t *testing.T, cfg JobConfig) (*RunResult, *trace.Query) {
	t.Helper()
	rec := trace.New()
	cfg.Recorder = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	q := trace.NewQuery(rec)
	if err := trace.CheckInvariants(q); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	return res, q
}

// TestTraceInvariantsChaosSoak replays the chaos-soak grid (the four
// comparison policies under store corruption plus two seeded fault
// injections per run) with the recorder attached and asserts, per run,
// the trace invariants: mutation/checkpoint exclusion, every recovery
// episode ending in a valid restore, just-in-time checkpoints beginning
// only after detection, and well-formed span nesting.
func TestTraceInvariantsChaosSoak(t *testing.T) {
	wl := testWL()
	const iters = 18

	seeds := []int64{3, 7, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	kinds := []failure.Kind{
		failure.GPUHard, failure.GPUSticky, failure.NetworkHang,
		failure.NodeDown, failure.StorageFault,
	}
	for _, policy := range []Policy{PolicyPCDisk, PolicyUserJIT, PolicyPeerShelter, PolicyJITWithPeer, PolicyMultiStepDisk} {
		for _, seed := range seeds {
			policy, seed := policy, seed
			t.Run(fmt.Sprintf("%v/seed%d", policy, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed * 131))
				var injections []IterInjection
				hard := 0
				for _, at := range []int{iters / 3, 2 * iters / 3} {
					kind := kinds[rng.Intn(len(kinds))]
					if kind == failure.GPUHard || kind == failure.NodeDown {
						hard++
						if hard > 2 {
							kind = failure.GPUSticky
						}
					}
					rank := 1 + rng.Intn(wl.Topo.World()-1)
					if kind == failure.NodeDown {
						rank = 2 + rng.Intn(2)
					}
					injections = append(injections, IterInjection{
						Iter: at, Frac: 0.1 + 0.8*rng.Float64(), Rank: rank, Kind: kind,
					})
				}
				cfg := JobConfig{
					WL: wl, Policy: policy, Iters: iters, Seed: 1,
					HangTimeout: 2 * vclock.Second, SpareNodes: 4,
					IterFailures: injections,
					Chaos: &ChaosConfig{
						DiskChaos:    checkpoint.RandomChaos(rand.New(rand.NewSource(seed*17)), 0.12),
						ShelterChaos: checkpoint.RandomChaos(rand.New(rand.NewSource(seed*29)), 0.12),
					},
				}
				if policy.Info().Periodic {
					cfg.CkptInterval = 4 * wl.Minibatch
				}
				res, q := checkedRun(t, cfg)
				if !res.Completed {
					t.Fatalf("did not complete (injections %+v)", injections)
				}
				// The failure plan is visible in the trace: every applied
				// injection left an instant.
				applied := len(q.Instants("fail", "inject")) + len(q.Instants("fail", "inject-skip"))
				if applied != len(injections) {
					t.Fatalf("trace shows %d injections, plan had %d", applied, len(injections))
				}
			})
		}
	}
}

// TestTraceInvariantsTransparentSoak runs the transparent-mode soak (the
// same seeded multi-failure draws as TestSoakRandomFailures) under the
// invariant checker: recovery episodes must each contain a valid restore
// even when three faults land in one run.
func TestTraceInvariantsTransparentSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	wl := testWL()
	const iters = 24
	kinds := []failure.Kind{
		failure.NetworkHang, failure.GPUSticky, failure.DriverCorrupt, failure.GPUHard,
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed * 977))
		var injections []IterInjection
		hardCount := 0
		iterAt := 3
		for len(injections) < 3 && iterAt < iters-4 {
			kind := kinds[rng.Intn(len(kinds))]
			if kind == failure.GPUHard {
				hardCount++
				if hardCount > 2 {
					kind = failure.GPUSticky
				}
			}
			injections = append(injections, IterInjection{
				Iter: iterAt,
				Frac: 0.1 + 0.8*rng.Float64(),
				Rank: 1 + rng.Intn(wl.Topo.World()-1),
				Kind: kind,
			})
			iterAt += 4 + rng.Intn(4)
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, q := checkedRun(t, JobConfig{
				WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1,
				HangTimeout: 2 * vclock.Second, SpareNodes: 3,
				IterFailures: injections,
			})
			if !res.Completed {
				t.Fatalf("did not complete (injections %+v)", injections)
			}
			// Every recovery episode the harness reported appears in the
			// trace as a closed core/recovery span.
			eps := q.Spans("core", "recovery")
			if len(eps) != len(res.Reports) {
				t.Fatalf("trace has %d recovery episodes, result reported %d", len(eps), len(res.Reports))
			}
			for _, ep := range eps {
				if ep.Open {
					t.Fatalf("recovery episode left open: %+v", ep)
				}
			}
		})
	}
}

// TestTraceInvariantsMidRecovery drives the mid-recovery chaos scenarios
// (a second fault landing while a restore, a communicator re-init, or a
// transparent recovery attempt is already in flight) under the invariant
// checker. These are exactly the timelines where a naive "restore happens
// right after detection" model breaks; the per-episode invariants must
// still hold.
func TestTraceInvariantsMidRecovery(t *testing.T) {
	wl := testWL()
	const iters = 14
	cases := []struct {
		name string
		cfg  JobConfig
	}{
		{"userjit-fault-during-restore", JobConfig{
			WL: wl, Policy: PolicyUserJIT, Iters: iters, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 3,
			IterFailures: injectAt(wl, 6.5, 1, failure.GPUHard),
			Chaos: &ChaosConfig{
				PhaseInjections: []failure.PhaseInjection{{
					Phase:      failure.PhaseRestore,
					Rank:       -1,
					Occurrence: 1,
					Delay:      200 * vclock.Millisecond,
					Target:     2,
					Kind:       failure.GPUHard,
				}},
			},
		}},
		{"jitpeer-fault-during-comm-reinit", JobConfig{
			WL: wl, Policy: PolicyJITWithPeer, Iters: iters, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 3,
			IterFailures: injectAt(wl, 6.5, 1, failure.GPUHard),
			Chaos: &ChaosConfig{
				PhaseInjections: []failure.PhaseInjection{{
					Phase:      failure.PhaseCommInit,
					Rank:       -1,
					Occurrence: 1,
					Target:     -1,
					Kind:       failure.NetworkHang,
				}},
			},
		}},
		{"transparent-reentrant-recovery", JobConfig{
			WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1,
			HangTimeout:  2 * vclock.Second,
			IterFailures: injectAt(wl, 5.3, 1, failure.NetworkHang),
			Chaos: &ChaosConfig{
				PhaseInjections: []failure.PhaseInjection{{
					Phase:      failure.PhaseCommInit,
					Rank:       -1,
					Occurrence: 1,
					Target:     -1,
					Kind:       failure.NetworkHang,
				}},
			},
		}},
		{"multistep-fault-during-slice-write", JobConfig{
			WL: wl, Policy: PolicyMultiStepDisk, Iters: iters, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 2,
			CkptInterval: 4 * wl.Minibatch, MultiStepSlices: 4,
			Chaos: &ChaosConfig{
				PhaseInjections: []failure.PhaseInjection{{
					Phase:      failure.PhaseSliceWrite,
					Rank:       -1,
					Occurrence: 6,
					Target:     -1,
					Kind:       failure.GPUHard,
				}},
			},
		}},
		{"multistep-fault-during-reconcile", JobConfig{
			WL: wl, Policy: PolicyMultiStepDisk, Iters: iters, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 3,
			CkptInterval: 4 * wl.Minibatch, MultiStepSlices: 2,
			IterFailures: injectAt(wl, 8.5, 1, failure.GPUHard),
			Chaos: &ChaosConfig{
				PhaseInjections: []failure.PhaseInjection{{
					Phase:      failure.PhaseReconcile,
					Rank:       -1,
					Occurrence: 1,
					Target:     2,
					Kind:       failure.GPUHard,
				}},
			},
		}},
		{"pipefree-fault-during-stage-rebuild", JobConfig{
			WL: pipeWL(), Policy: PolicyPipeFree, Iters: iters, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 3,
			CkptInterval: 3 * pipeWL().Minibatch, MultiStepSlices: 2,
			IterFailures: injectAt(pipeWL(), 5.5, 1, failure.NodeDown),
			Chaos: &ChaosConfig{
				PhaseInjections: []failure.PhaseInjection{{
					Phase:      failure.PhaseStageRebuild,
					Rank:       -1,
					Occurrence: 1,
					Target:     3,
					Kind:       failure.GPUHard,
				}},
			},
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, _ := checkedRun(t, tc.cfg)
			if !res.Completed {
				t.Fatal("did not complete")
			}
		})
	}
}
