package core

import (
	"fmt"
	"math/rand"
	"testing"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/failure"
	"jitckpt/internal/vclock"
)

// TestSoakRandomFailures is the randomized endurance test: several
// failures per run with kinds, phases, and target ranks drawn from a
// seeded RNG, across multiple seeds. Every run must finish with a loss
// trajectory bit-identical to the failure-free reference — the paper's
// determinism claim under arbitrary failure placement.
func TestSoakRandomFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	wl := testWL()
	const iters = 24
	ref := referenceLoss(t, wl, iters)

	kinds := []failure.Kind{
		failure.NetworkHang, failure.GPUSticky, failure.DriverCorrupt, failure.GPUHard,
	}
	for seed := int64(1); seed <= 6; seed++ {
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
					kind = failure.GPUSticky // spare pool is finite
				}
			}
			injections = append(injections, IterInjection{
				Iter: iterAt,
				Frac: 0.1 + 0.8*rng.Float64(),
				Rank: 1 + rng.Intn(wl.Topo.World()-1), // never the reference rank
				Kind: kind,
			})
			iterAt += 4 + rng.Intn(4)
		}
		t.Run(t.Name()+string(rune('A'+seed-1)), func(t *testing.T) {
			res := mustRun(t, JobConfig{
				WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1,
				CollectLoss: true, HangTimeout: 2 * vclock.Second, SpareNodes: 3,
				IterFailures: injections,
			})
			if !res.Completed {
				t.Fatalf("seed %d: did not complete (%d recoveries, injections %+v)",
					seed, len(res.Reports), injections)
			}
			if len(res.Reports) != len(injections) {
				t.Fatalf("seed %d: %d recoveries for %d injections", seed, len(res.Reports), len(injections))
			}
			if !lossTracesEqual(t, ref, res.Loss, iters) {
				t.Fatalf("seed %d: loss diverged (injections %+v)", seed, injections)
			}
		})
	}
}

// TestChaosSoak is the randomized chaos endurance suite: every shared
// store (and peer shelter) write passes through a seeded random fault
// hook, and two fault injections per run draw their kind, timing, and
// target from the seed — across the four policies the paper's comparison
// covers. Whatever the chaos layer does, every completed run must be
// bit-identical to the failure-free reference: corruption may cost redo
// work (generation fallback) or an extra incarnation, never state.
func TestChaosSoak(t *testing.T) {
	wl := testWL()
	const iters = 18
	ref := referenceLoss(t, wl, iters)

	seeds := []int64{3, 7, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	kinds := []failure.Kind{
		failure.GPUHard, failure.GPUSticky, failure.NetworkHang,
		failure.NodeDown, failure.StorageFault,
	}
	for _, policy := range []Policy{PolicyPCDisk, PolicyUserJIT, PolicyPeerShelter, PolicyJITWithPeer} {
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
					rank := 1 + rng.Intn(wl.Topo.World()-1) // never the reference rank
					if kind == failure.NodeDown {
						rank = 2 + rng.Intn(2) // keep the reference rank's node up
					}
					injections = append(injections, IterInjection{
						Iter: at, Frac: 0.1 + 0.8*rng.Float64(), Rank: rank, Kind: kind,
					})
				}
				cfg := JobConfig{
					WL: wl, Policy: policy, Iters: iters, Seed: 1, CollectLoss: true,
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
				res := mustRun(t, cfg)
				if !res.Completed {
					t.Fatalf("did not complete (injections %+v)", injections)
				}
				if !lossTracesEqual(t, ref, res.Loss, iters) {
					t.Fatalf("loss diverged under chaos (injections %+v)", injections)
				}
			})
		}
	}
}

// TestSoakUserJITRepeatedHardFailures restarts a user-level job through
// two successive hard failures; the redo bound stays at one minibatch per
// failure.
func TestSoakUserJITRepeatedHardFailures(t *testing.T) {
	wl := testWL()
	const iters = 20
	ref := referenceLoss(t, wl, iters)
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyUserJIT, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout: 2 * vclock.Second, SpareNodes: 4,
		IterFailures: []IterInjection{
			{Iter: 6, Frac: 0.5, Rank: 1, Kind: failure.GPUHard},
			{Iter: 14, Frac: 0.3, Rank: 2, Kind: failure.GPUHard},
		},
	})
	if !res.Completed {
		t.Fatal("job did not complete")
	}
	if res.Incarnations != 3 {
		t.Fatalf("incarnations = %d, want 3", res.Incarnations)
	}
	if res.ItersExecuted > iters+2 {
		t.Fatalf("redid %d minibatches across 2 failures, bound is 2", res.ItersExecuted-iters)
	}
	if !lossTracesEqual(t, ref, res.Loss, iters) {
		t.Fatal("loss diverged across two restarts")
	}
}

// TestSoakPoissonPlanLongRun drives a periodic-checkpointing job with a
// true Poisson failure plan over a long virtual horizon, checking the
// harness survives arbitrary arrival times (failures may land during
// setup, steady state, or checkpointing).
func TestSoakPoissonPlanLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	wl := testWL()
	const iters = 60
	// A ludicrous per-GPU rate so a handful of failures land within the
	// few-minute virtual run.
	plan := failure.PoissonPlan(rand.New(rand.NewSource(5)), wl.Topo.World(),
		400, // failures per GPU-day
		10*vclock.Minute, map[failure.Kind]float64{failure.GPUHard: 1})
	if len(plan.Injections) == 0 {
		t.Fatal("plan sampled no failures")
	}
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyPCDisk, Iters: iters, Seed: 1,
		CkptInterval: 8 * wl.Minibatch,
		HangTimeout:  2 * vclock.Second,
		SpareNodes:   8,
		Failures:     plan,
		Horizon:      2 * vclock.Hour,
	})
	// The job either completes (enough spares) or runs out of nodes; in
	// both cases the harness must terminate cleanly and account sanely.
	if res.Completed {
		if res.ItersExecuted < iters {
			t.Fatalf("completed but executed only %d/%d", res.ItersExecuted, iters)
		}
	}
	if res.Accounting.WastedFraction() < 0 || res.Accounting.WastedFraction() >= 1 {
		t.Fatalf("nonsense accounting: %+v", res.Accounting)
	}
}
