package cluster

import (
	"strings"
	"testing"

	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/gpu"
	"jitckpt/internal/scheduler"
	"jitckpt/internal/vclock"
)

// TestRunRejectsBadClusterPlan: a cluster plan's targets are node IDs and
// its kinds node-granular; Run refuses anything else before it builds the
// simulation (a rank-level kind like NetworkHang has no job to land on).
func TestRunRejectsBadClusterPlan(t *testing.T) {
	for _, tc := range []struct {
		inj  failure.Injection
		want string
	}{
		{failure.Injection{At: vclock.Second, Target: 2, Kind: failure.NetworkHang}, "rank-level kind network-hang"},
		{failure.Injection{At: vclock.Second, Target: 2, Kind: failure.StorageFault}, "rank-level kind storage-fault"},
		{failure.Injection{At: vclock.Second, Target: 6, Kind: failure.NodeDown}, "outside [0,6)"},
		{failure.Injection{At: vclock.Second, Target: -1, Kind: failure.RackDown}, "outside [0,6)"},
	} {
		_, err := Run(Config{
			Nodes: 6, PerNode: 2, Seed: 1, Horizon: vclock.Minute,
			Jobs:     []JobSpec{fleetJob("a", core.PolicyPCDisk, 0, 5)},
			Failures: failure.Plan{Injections: []failure.Injection{tc.inj}},
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want one naming %q", tc.inj, err, tc.want)
		}
	}
}

// TestInjectorRulesKeptApart pins the two places the cluster injector
// deliberately differs from the per-job failure.Injector (whose side is
// pinned by TestRepairPrefersDownHostOverOlderDeadBoard and
// TestRackDownSkippedWhenOwnNodeDown in internal/failure).
func TestInjectorRulesKeptApart(t *testing.T) {
	newInjector := func() (*vclock.Env, *gpu.Cluster, *injector) {
		env := vclock.NewEnv(1)
		hw := gpu.NewCluster(env, 4, 2, 1<<30)
		return env, hw, &injector{a: newArbiter(env, scheduler.NewPool(env, hw.Nodes), hw)}
	}

	// A NodeRepaired goes to the oldest casualty of either kind: the board
	// that died on node 0 before host 1 went down.
	_, hw, in := newInjector()
	in.apply(failure.Injection{Target: 0, Kind: failure.GPUHard})
	in.apply(failure.Injection{Target: 1, Kind: failure.NodeDown})
	in.apply(failure.Injection{Kind: failure.NodeRepaired})
	if hw.Nodes[0].Broken() || !hw.Nodes[1].Failed {
		t.Errorf("after one repair: node0 broken %v, node1 down %v, want false true",
			hw.Nodes[0].Broken(), hw.Nodes[1].Failed)
	}

	// A RackDown lands while any host of the rack is still up, even when
	// the targeted one is not.
	_, hw, in = newInjector()
	in.apply(failure.Injection{Target: 0, Kind: failure.NodeDown})
	in.apply(failure.Injection{Target: 0, Kind: failure.RackDown})
	if !hw.Nodes[1].Failed || hw.Nodes[2].Failed {
		t.Errorf("rack-mate node1 down %v, next rack's node2 down %v, want true false",
			hw.Nodes[1].Failed, hw.Nodes[2].Failed)
	}
	in.apply(failure.Injection{Target: 1, Kind: failure.RackDown})
	if in.applied != 2 || in.skipped != 1 {
		t.Errorf("applied %d skipped %d, want 2 and 1 (a RackDown on a rack that is all down is skipped)",
			in.applied, in.skipped)
	}
}
