package core

import (
	"strings"
	"testing"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/failure"
	"jitckpt/internal/vclock"
)

// TestGenerationFallbackEndToEnd pins the acceptance criterion end to end:
// every JIT checkpoint written at failure time is silently bit-flipped, so
// restore-time deep validation must reject the newest generation and fall
// back to the older (clean) periodic checkpoint — and the job must still
// converge bit-identically to the failure-free run.
func TestGenerationFallbackEndToEnd(t *testing.T) {
	wl := testWL()
	const iters = 14
	ref := referenceLoss(t, wl, iters)
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyJITWithDaily, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout:  2 * vclock.Second,
		CkptInterval: 5 * wl.Minibatch, // periodic fallback every ~5 iters
		SpareNodes:   2,
		IterFailures: injectAt(wl, 8.5, 1, failure.GPUHard),
		Chaos: &ChaosConfig{
			// Corrupt every JIT-namespace data file: the whole failure-time
			// generation is poisoned. Periodic-namespace writes stay clean.
			DiskChaos: func(path string) checkpoint.WriteOutcome {
				if strings.Contains(path, "/"+JITPolicyName+"/") && strings.Contains(path, "model.bin") {
					return checkpoint.WriteBitFlip
				}
				return checkpoint.WriteOK
			},
		},
	})
	if !res.Completed {
		t.Fatal("job did not complete")
	}
	if res.Incarnations != 2 {
		t.Fatalf("incarnations = %d, want 2", res.Incarnations)
	}
	if !lossTracesEqual(t, ref, res.Loss, iters) {
		t.Fatal("loss diverged after generation fallback")
	}
	// The fallback is observable in the redo bound: restoring from the
	// (corrupt) JIT generation would redo at most 1 minibatch; falling back
	// to the periodic checkpoint at ~iter 5 redoes several.
	if res.ItersExecuted <= iters+1 {
		t.Fatalf("executed %d iters: JIT-level redo bound, corrupt generation was not skipped", res.ItersExecuted)
	}
}

// TestUserJITFaultDuringRestore is the mid-recovery acceptance test for the
// user-level policy: the first incarnation restart is itself hit by a hard
// fault while a rank is restoring. The harness must fail that incarnation
// loudly (not let the half-restored rank diverge) and the next incarnation
// must complete bit-identically.
func TestUserJITFaultDuringRestore(t *testing.T) {
	wl := testWL()
	const iters = 14
	ref := referenceLoss(t, wl, iters)
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyUserJIT, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout: 2 * vclock.Second, SpareNodes: 3,
		IterFailures: injectAt(wl, 6.5, 1, failure.GPUHard),
		Chaos: &ChaosConfig{
			PhaseInjections: []failure.PhaseInjection{{
				Phase:      failure.PhaseRestore,
				Rank:       -1, // the first rank to start restoring
				Occurrence: 1,
				Delay:      200 * vclock.Millisecond, // mid-restore, not at its edge
				Target:     2,
				Kind:       failure.GPUHard,
			}},
		},
	})
	if !res.Completed {
		t.Fatalf("job did not complete; incarnations=%d", res.Incarnations)
	}
	if res.Incarnations != 3 {
		t.Fatalf("incarnations = %d, want 3 (restart + failed restore + clean restart)", res.Incarnations)
	}
	if !lossTracesEqual(t, ref, res.Loss, iters) {
		t.Fatal("loss diverged after fault-during-restore")
	}
}

// TestJITWithPeerFaultDuringCommReinit is the second mid-recovery
// acceptance case: a network hang lands while the restarted incarnation is
// re-initializing its communicators. The setup-phase heartbeat grace must
// detect the wedged rendezvous and restart again rather than hanging until
// the horizon.
func TestJITWithPeerFaultDuringCommReinit(t *testing.T) {
	wl := testWL()
	const iters = 14
	ref := referenceLoss(t, wl, iters)
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyJITWithPeer, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout: 2 * vclock.Second, SpareNodes: 3,
		IterFailures: injectAt(wl, 6.5, 1, failure.GPUHard),
		Chaos: &ChaosConfig{
			PhaseInjections: []failure.PhaseInjection{{
				Phase:      failure.PhaseCommInit,
				Rank:       -1,
				Occurrence: 1,
				Target:     -1, // whichever rank is re-initializing
				Kind:       failure.NetworkHang,
			}},
		},
	})
	if !res.Completed {
		t.Fatalf("job wedged instead of recovering; incarnations=%d", res.Incarnations)
	}
	if res.Incarnations < 3 {
		t.Fatalf("incarnations = %d, want ≥3 (the comm-init hang must cost an incarnation)", res.Incarnations)
	}
	if !lossTracesEqual(t, ref, res.Loss, iters) {
		t.Fatal("loss diverged after fault-during-comm-reinit")
	}
}

// TestTransparentReentrantRecovery pins the re-entrant coordinator: a
// network hang during transparent recovery's communicator re-init wedges
// the first attempt; the per-attempt deadline must kill it and the retry —
// under a fresh generation, with pre-mutation ranks keeping their cheap
// strategy — must succeed, still bit-identically.
func TestTransparentReentrantRecovery(t *testing.T) {
	wl := testWL()
	const iters = 14
	ref := referenceLoss(t, wl, iters)
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1, CollectLoss: true,
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
	})
	if !res.Completed {
		t.Fatalf("job did not complete; reports=%+v", res.Reports)
	}
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1 episode", len(res.Reports))
	}
	if res.Reports[0].Attempts < 2 {
		t.Fatalf("attempts = %d, want ≥2 (the mid-recovery hang must cost an attempt)", res.Reports[0].Attempts)
	}
	if !lossTracesEqual(t, ref, res.Loss, iters) {
		t.Fatal("loss diverged after re-entrant recovery")
	}
}

// TestStorageFaultAbsorbedByRetry: a StorageFault injection opens a window
// of transient shared-store write failures exactly when the periodic
// checkpointer runs; the bounded retry must absorb it with no incarnation
// lost.
func TestStorageFaultAbsorbedByRetry(t *testing.T) {
	wl := testWL()
	const iters = 14
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyPCDisk, Iters: iters, Seed: 1,
		HangTimeout:  2 * vclock.Second,
		CkptInterval: 4 * wl.Minibatch,
		Chaos: &ChaosConfig{
			PhaseInjections: []failure.PhaseInjection{{
				Phase:      failure.PhaseCheckpoint,
				Rank:       -1,
				Occurrence: 1,
				Target:     -1,
				Kind:       failure.StorageFault,
			}},
		},
	})
	if !res.Completed {
		t.Fatal("job did not complete")
	}
	if res.Incarnations != 1 {
		t.Fatalf("incarnations = %d: transient storage fault cost a restart", res.Incarnations)
	}
	if res.Accounting.Checkpoints == 0 {
		t.Fatal("no periodic checkpoints recorded")
	}
}
