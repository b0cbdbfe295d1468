package core

import (
	"math"
	"testing"

	"jitckpt/internal/failure"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// testWL returns a small fast workload: 4 GPUs data-parallel, 50 ms
// minibatches, aggressive timeouts, so whole failure-recovery episodes
// complete in a second of virtual time.
func testWL() workload.Workload {
	return workload.Tiny("tiny", "test", 2, 2, train.Topology{D: 4, P: 1, T: 1}, 0.004, 2, 8)
}

// testWL3D is an 8-GPU 2D-2P-2T variant.
func testWL3D() workload.Workload {
	wl := testWL()
	wl.Name = "tiny-3d"
	wl.Nodes, wl.PerNode = 2, 4
	wl.Topo = train.Topology{D: 2, P: 2, T: 2}
	wl.Layers = 4
	return wl
}

// injectAt builds a single iteration-anchored failure: at iteration
// int(k), frac(k) of a minibatch in.
func injectAt(_ workload.Workload, k float64, rank int, kind failure.Kind) []IterInjection {
	iter := int(k)
	return []IterInjection{{Iter: iter, Frac: k - float64(iter), Rank: rank, Kind: kind}}
}

func mustRun(t *testing.T, cfg JobConfig) *RunResult {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestFailureFreeTransparentRun(t *testing.T) {
	res := mustRun(t, JobConfig{
		WL: testWL(), Policy: PolicyTransparentJIT, Iters: 12, Seed: 1, CollectLoss: true,
	})
	if !res.Completed {
		t.Fatalf("job did not complete: %+v", res.Accounting)
	}
	if len(res.Reports) != 0 {
		t.Fatalf("spurious recoveries: %d", len(res.Reports))
	}
	if len(res.Loss) != 12 {
		t.Fatalf("loss trace has %d entries", len(res.Loss))
	}
	if res.Minibatch <= 0 || res.Minibatch > 4*testWL().Minibatch {
		t.Fatalf("measured minibatch %v implausible", res.Minibatch)
	}
}

func TestFailureFreeUserJITRun(t *testing.T) {
	res := mustRun(t, JobConfig{
		WL: testWL(), Policy: PolicyUserJIT, Iters: 12, Seed: 1, CollectLoss: true,
	})
	if !res.Completed || res.Incarnations != 1 {
		t.Fatalf("completed=%v incarnations=%d", res.Completed, res.Incarnations)
	}
}

// lossTracesEqual compares two loss maps bit for bit over [0, n).
func lossTracesEqual(t *testing.T, a, b map[int]float32, n int) bool {
	t.Helper()
	for i := 0; i < n; i++ {
		av, aok := a[i]
		bv, bok := b[i]
		if !aok || !bok {
			t.Logf("iter %d missing: %v %v", i, aok, bok)
			return false
		}
		if math.Float32bits(av) != math.Float32bits(bv) {
			t.Logf("iter %d: %v vs %v", i, av, bv)
			return false
		}
	}
	return true
}

// referenceLoss runs a failure-free job and returns its loss trace.
func referenceLoss(t *testing.T, wl workload.Workload, iters int) map[int]float32 {
	t.Helper()
	res := mustRun(t, JobConfig{WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1, CollectLoss: true})
	if !res.Completed {
		t.Fatal("reference run did not complete")
	}
	return res.Loss
}

func TestTransparentNetworkHangRecovery(t *testing.T) {
	wl := testWL()
	const iters = 12
	ref := referenceLoss(t, wl, iters)
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout:  2 * vclock.Second,
		IterFailures: injectAt(wl, 5.3, 1, failure.NetworkHang),
	})
	if !res.Completed {
		t.Fatalf("job did not complete; reports=%d", len(res.Reports))
	}
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(res.Reports))
	}
	rep := res.Reports[0]
	if rep.Kind != "transient" {
		t.Fatalf("kind = %s", rep.Kind)
	}
	// §6.2: exact loss match with the failure-free run.
	if !lossTracesEqual(t, ref, res.Loss, iters) {
		t.Fatal("loss trace diverged after network-hang recovery")
	}
	// Table 7 structure: comm re-init dominates.
	phases := phaseDurs(rep)
	if phases["comm-init"] <= phases["replay"] {
		t.Fatalf("comm-init (%v) should dominate replay (%v)", phases["comm-init"], phases["replay"])
	}
}

func TestTransparentStickyErrorRecovery(t *testing.T) {
	wl := testWL()
	const iters = 12
	ref := referenceLoss(t, wl, iters)
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout:  2 * vclock.Second,
		IterFailures: injectAt(wl, 5.3, 2, failure.GPUSticky),
	})
	if !res.Completed {
		t.Fatalf("job did not complete; reports=%+v", res.Reports)
	}
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(res.Reports))
	}
	if !lossTracesEqual(t, ref, res.Loss, iters) {
		t.Fatal("loss trace diverged after sticky-error recovery")
	}
}

func TestTransparentDriverCorruptRecovery(t *testing.T) {
	wl := testWL()
	const iters = 12
	ref := referenceLoss(t, wl, iters)
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout:  2 * vclock.Second,
		IterFailures: injectAt(wl, 5.3, 0, failure.DriverCorrupt),
	})
	if !res.Completed {
		t.Fatalf("job did not complete; reports=%+v", res.Reports)
	}
	if !lossTracesEqual(t, ref, res.Loss, iters) {
		t.Fatal("loss trace diverged after driver-corruption recovery")
	}
}

func TestTransparentHardErrorMigration(t *testing.T) {
	wl := testWL()
	const iters = 12
	ref := referenceLoss(t, wl, iters)
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout: 2 * vclock.Second, SpareNodes: 2,
		IterFailures: injectAt(wl, 5.3, 1, failure.GPUHard),
	})
	if !res.Completed {
		t.Fatalf("job did not complete; reports=%+v", res.Reports)
	}
	if len(res.Reports) != 1 || res.Reports[0].Kind != "hard" {
		t.Fatalf("reports = %+v", res.Reports)
	}
	if !lossTracesEqual(t, ref, res.Loss, iters) {
		t.Fatal("loss trace diverged after hard-error migration")
	}
	// Table 6: healthy ranks (which checkpoint GPU state) take longer
	// than the failed rank (which does not).
	rep := res.Reports[0]
	if rep.HealthyAvg <= rep.FailedAvg {
		t.Fatalf("healthy avg %v should exceed failed avg %v", rep.HealthyAvg, rep.FailedAvg)
	}
}

func TestUserJITRecoversFromHardError(t *testing.T) {
	wl := testWL()
	const iters = 12
	ref := referenceLoss(t, wl, iters)
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyUserJIT, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout: 2 * vclock.Second, SpareNodes: 2,
		IterFailures: injectAt(wl, 5.3, 1, failure.GPUHard),
	})
	if !res.Completed {
		t.Fatal("job did not complete")
	}
	if res.Incarnations != 2 {
		t.Fatalf("incarnations = %d, want 2", res.Incarnations)
	}
	if res.JITCheckpointTime <= 0 {
		t.Fatal("JIT checkpoint time not measured")
	}
	if res.RestoreTime <= 0 {
		t.Fatal("restore time not measured")
	}
	if !lossTracesEqual(t, ref, res.Loss, iters) {
		t.Fatal("loss trace diverged after user-level JIT recovery")
	}
	// At most one minibatch of work redone per failure.
	if res.ItersExecuted > iters+1 {
		t.Fatalf("executed %d iters for %d useful: more than one minibatch redone", res.ItersExecuted, iters)
	}
}

func TestPeriodicPolicyRestartsAndRedoesWork(t *testing.T) {
	wl := testWL()
	const iters = 20
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyPCDisk, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout:  2 * vclock.Second,
		CkptInterval: 5 * wl.Minibatch, // checkpoint every ~5 iterations
		SpareNodes:   2,
		IterFailures: injectAt(wl, 14.5, 1, failure.GPUHard),
	})
	if !res.Completed {
		t.Fatal("job did not complete")
	}
	if res.Incarnations != 2 {
		t.Fatalf("incarnations = %d", res.Incarnations)
	}
	if res.Accounting.Checkpoints == 0 {
		t.Fatal("no periodic checkpoints taken")
	}
	// Redo: failure at ~iter 14 with last checkpoint around iter 10-14:
	// several minibatches redone, more than JIT would redo.
	if res.ItersExecuted <= iters {
		t.Fatalf("expected redone work, executed=%d", res.ItersExecuted)
	}
	if res.Accounting.CkptStall <= 0 {
		t.Fatal("periodic policy should have checkpoint stalls")
	}
}

func TestPolicyNoneLosesEverything(t *testing.T) {
	wl := testWL()
	const iters = 10
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyNone, Iters: iters, Seed: 1,
		HangTimeout: 2 * vclock.Second, SpareNodes: 2,
		IterFailures: injectAt(wl, 6.5, 0, failure.GPUHard),
	})
	if !res.Completed {
		t.Fatal("job did not complete")
	}
	if res.Incarnations != 2 {
		t.Fatalf("incarnations = %d", res.Incarnations)
	}
	// All pre-failure iterations redone.
	if res.ItersExecuted < iters+6 {
		t.Fatalf("executed %d, expected ≥ %d (restart from scratch)", res.ItersExecuted, iters+6)
	}
}

func Test3DTransparentRecovery(t *testing.T) {
	wl := testWL3D()
	const iters = 10
	ref := referenceLoss(t, wl, iters)
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout:  2 * vclock.Second,
		IterFailures: injectAt(wl, 4.3, 3, failure.GPUSticky),
	})
	if !res.Completed {
		t.Fatalf("3D job did not complete; reports=%+v", res.Reports)
	}
	if !lossTracesEqual(t, ref, res.Loss, iters) {
		t.Fatal("3D loss trace diverged after recovery")
	}
}

func TestOptimalIntervalShrinksWithScale(t *testing.T) {
	wl := testWL()
	small := OptimalInterval(wl, 2.0/992)
	wl.Nodes = 200 // 400 GPUs
	big := OptimalInterval(wl, 2.0/992)
	if big >= small {
		t.Fatalf("interval should shrink with more GPUs: %v -> %v", small, big)
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{
		PolicyNone: "none", PolicyPCDisk: "PC_disk", PolicyPCMem: "PC_mem",
		PolicyCheckFreq: "CheckFreq", PolicyPCDaily: "PC_1/day",
		PolicyUserJIT: "UserJIT", PolicyTransparentJIT: "TransparentJIT",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d = %q want %q", p, p.String(), s)
		}
	}
	if len(Solutions()) != 3 {
		t.Error("Table 1 should have 3 rows")
	}
}
