package core

import (
	"strconv"
	"strings"
	"testing"

	"jitckpt/internal/cuda"
	"jitckpt/internal/failure"
	"jitckpt/internal/replay"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

func TestSplitCreationLog(t *testing.T) {
	calls := []replay.Call{
		{Call: cuda.Call{Op: cuda.OpCommInit, Key: "w"}},
		{Call: cuda.Call{Op: cuda.OpStreamCreate}, Created: 1},
		{Call: cuda.Call{Op: cuda.OpMalloc}, Created: 1},
		{Call: cuda.Call{Op: cuda.OpEventCreate}, Created: 1},
		{Call: cuda.Call{Op: cuda.OpMalloc}, Created: 2},
		{Call: cuda.Call{Op: cuda.OpCommInit, Key: "dp"}},
	}
	mallocs, handles, comms := splitCreationLog(calls)
	if len(mallocs) != 2 || mallocs[0].Created != 1 || mallocs[1].Created != 2 {
		t.Fatalf("mallocs = %+v", mallocs)
	}
	if len(handles) != 2 || handles[0].Op != cuda.OpStreamCreate {
		t.Fatalf("handles = %+v", handles)
	}
	if len(comms) != 2 || comms[0].Key != "w" || comms[1].Key != "dp" {
		t.Fatalf("comms = %+v", comms)
	}
}

func TestCRIUImageOfWrongIterationIsRejected(t *testing.T) {
	if err := checkImage(3, train.Snapshot{Iter: 7, Gen: 2}, 7); err != nil {
		t.Fatalf("matching image rejected: %v", err)
	}
	err := checkImage(3, train.Snapshot{Iter: 6, Gen: 2}, 7)
	if err == nil || err.Error() != "core: rank 3 CRIU image is of iteration 6, the worker is at 7" {
		t.Fatalf("stale image: err = %v, want the rank and both iterations named", err)
	}
}

// TestTransparentNoReplicaFailsLoudly: a single-replica job (D=1) hit by
// a sticky error has no healthy copy of its parameter state; transparent
// recovery must fail with a clear report rather than fabricating state.
func TestTransparentNoReplicaFailsLoudly(t *testing.T) {
	wl := testWL()
	wl.Name = "tiny-noreplica"
	wl.Nodes, wl.PerNode = 1, 2
	wl.Topo = train.Topology{D: 2, P: 1, T: 1}
	const iters = 12
	// Kill BOTH replicas with sticky errors at the same instant: strategy
	// 3 for both, and neither has a healthy replica to copy from.
	res, err := Run(JobConfig{
		WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1,
		HangTimeout: 2 * vclock.Second,
		IterFailures: []IterInjection{
			{Iter: 5, Frac: 0.4, Rank: 0, Kind: failure.GPUSticky},
			{Iter: 5, Frac: 0.4, Rank: 1, Kind: failure.GPUSticky},
		},
		Horizon: 10 * vclock.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("job completed despite losing every copy of its state")
	}
	if len(res.Reports) == 0 {
		t.Fatal("no recovery attempt recorded")
	}
	// Per-rank recovery errors surface in the trace; the job-level
	// outcome is an incomplete run, not corrupted training.
}

// phaseDurs indexes a report's Table 7 phases by name, the way the table
// reads them.
func phaseDurs(rep *RecoveryReport) map[string]vclock.Time {
	out := make(map[string]vclock.Time, len(rep.Phases))
	for _, ph := range rep.Phases {
		out[ph.Name] += ph.Dur
	}
	return out
}

// TestRecoveryReportPhases exercises the report accessors.
func TestRecoveryReportPhases(t *testing.T) {
	rep := &RecoveryReport{
		Kind:        "transient",
		DetectedAt:  vclock.Second,
		CompletedAt: 3 * vclock.Second,
		Phases: []PhaseDur{
			{Name: "teardown", Dur: vclock.Second},
			{Name: "comm-init", Dur: vclock.Second},
		},
	}
	if rep.Total() != 2*vclock.Second {
		t.Fatalf("Total = %v", rep.Total())
	}
	if phases := phaseDurs(rep); phases["comm-init"] != vclock.Second || phases["nope"] != 0 {
		t.Fatal("Phase lookup wrong")
	}
}

// TestCoordinatorGenerationMonotonic: each recovery bumps the
// communicator generation, so stale rendezvous arrivals can never satisfy
// a post-recovery initialization.
func TestCoordinatorGenerationMonotonic(t *testing.T) {
	wl := testWL()
	rec := trace.New()
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyTransparentJIT, Iters: 16, Seed: 1,
		HangTimeout: 2 * vclock.Second, SpareNodes: 2,
		IterFailures: []IterInjection{
			{Iter: 4, Frac: 0.4, Rank: 1, Kind: failure.NetworkHang},
			{Iter: 10, Frac: 0.4, Rank: 2, Kind: failure.NetworkHang},
		},
		Recorder: rec,
	})
	if !res.Completed || len(res.Reports) != 2 {
		t.Fatalf("completed=%v reports=%d", res.Completed, len(res.Reports))
	}
	// Episode i re-initializes every communicator under generation i; one
	// (comm, rank) pair seeing a generation twice would let stale
	// rendezvous arrivals satisfy a post-recovery init.
	perGen := make(map[string]int)
	seen := make(map[string]bool)
	for _, sp := range trace.NewQuery(rec).Spans("nccl", "comm-init") {
		gen := sp.Args["gen"]
		if gen == "0" {
			continue // initial job setup
		}
		want := "none"
		for i, rep := range res.Reports {
			if sp.Start >= rep.DetectedAt && sp.Start <= rep.CompletedAt {
				want = strconv.Itoa(i + 1)
			}
		}
		if gen != want {
			t.Fatalf("comm-init %s rank %s at %v: gen %s, want the episode's %s", sp.Lane, sp.Args["rank"], sp.Start, gen, want)
		}
		key := sp.Lane + " rank " + sp.Args["rank"] + " gen " + gen
		if seen[key] {
			t.Fatalf("generation reused: %s", key)
		}
		seen[key] = true
		perGen[gen]++
	}
	if perGen["1"] == 0 || perGen["2"] == 0 || perGen["1"] != perGen["2"] {
		t.Fatalf("comm-inits per generation = %v, want the same nonzero count under 1 and 2", perGen)
	}
}

// TestPolicyNamesIncludeCombined keeps jitsim's policy table honest.
func TestPolicyNamesIncludeCombined(t *testing.T) {
	if !strings.Contains(PolicyJITWithDaily.String(), "UserJIT") {
		t.Fatalf("combined policy name = %q", PolicyJITWithDaily)
	}
	info := PolicyJITWithDaily.Info()
	if !info.Periodic || info.Kind.PolicyName() != "pc_mem" {
		t.Fatal("combined policy must carry a periodic companion")
	}
	if info.JITFlush != FlushDisk {
		t.Fatal("combined policy classification wrong")
	}
}
