package scheduler

import (
	"errors"
	"fmt"
	"testing"

	"jitckpt/internal/gpu"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

func TestPoolAllocateExcludesFailedAndBusy(t *testing.T) {
	env := vclock.NewEnv(1)
	c := gpu.NewCluster(env, 4, 2, 1<<30)
	pool := NewPool(env, c.Nodes)
	first, err := pool.Allocate(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first[0].ID != 0 || first[1].ID != 1 {
		t.Fatalf("allocated %v %v", first[0].ID, first[1].ID)
	}
	// Node 2 has a hard-failed GPU: it must be skipped.
	c.Nodes[2].Devices[0].InjectHard()
	second, err := pool.Allocate(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second[0].ID != 3 {
		t.Fatalf("allocated node %d, want 3 (2 is failed)", second[0].ID)
	}
	if _, err := pool.Allocate(1, nil); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want no capacity", err)
	}
	pool.Release(first)
	if pool.FreeHealthy() != 2 {
		t.Fatalf("free = %d, want 2", pool.FreeHealthy())
	}
}

func TestPoolExplicitExclusion(t *testing.T) {
	env := vclock.NewEnv(1)
	c := gpu.NewCluster(env, 3, 1, 1<<30)
	pool := NewPool(env, c.Nodes)
	got, err := pool.Allocate(1, map[int]bool{0: true, 1: true})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != 2 {
		t.Fatalf("allocated %d, want 2", got[0].ID)
	}
}

func TestPlacement(t *testing.T) {
	env := vclock.NewEnv(1)
	c := gpu.NewCluster(env, 2, 4, 1<<30)
	pl, err := Place(c.Nodes, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NodeOf(0) != 0 || pl.NodeOf(4) != 1 {
		t.Fatalf("placement wrong: rank0@%d rank4@%d", pl.NodeOf(0), pl.NodeOf(4))
	}
	if _, err := Place(c.Nodes[:1], 8); err == nil {
		t.Fatal("expected placement failure with too few devices")
	}
}

func TestCRIUChargesTime(t *testing.T) {
	env := vclock.NewEnv(1)
	criu := CRIU{SnapshotTime: 10 * vclock.Second, RestoreTime: 5 * vclock.Second}
	env.Go("w", func(p *vclock.Proc) {
		t0 := p.Now()
		img := criu.Take(p, 3, train.Snapshot{Iter: 7, Gen: 2})
		if p.Now()-t0 != 10*vclock.Second {
			t.Errorf("snapshot took %v", p.Now()-t0)
		}
		t0 = p.Now()
		snap := criu.Restore(p, img)
		if p.Now()-t0 != 5*vclock.Second {
			t.Errorf("restore took %v", p.Now()-t0)
		}
		if snap != (train.Snapshot{Iter: 7, Gen: 2}) || img.Rank != 3 {
			t.Errorf("image lost: rank %d, %+v", img.Rank, snap)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// peerPlanPlacement builds a placement of world ranks over nodes with
// perNode devices each, rank-major — the harness's layout.
func peerPlanPlacement(t *testing.T, nodes, perNode, world int) Placement {
	t.Helper()
	env := vclock.NewEnv(1)
	c := gpu.NewCluster(env, nodes, perNode, 1<<30)
	pl, err := Place(c.Nodes, world)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestPeerPlanNeverOwnFailureDomain(t *testing.T) {
	cases := []struct {
		nodes, perNode int
		topo           train.Topology
		copies         int
	}{
		{4, 1, train.Topology{D: 2, P: 2, T: 1}, 1},
		{2, 2, train.Topology{D: 4, P: 1, T: 1}, 1},
		{4, 2, train.Topology{D: 2, P: 2, T: 2}, 2},
		{3, 4, train.Topology{D: 3, P: 2, T: 2}, 2},
	}
	for _, tc := range cases {
		pl := peerPlanPlacement(t, tc.nodes, tc.perNode, tc.topo.World())
		plan, err := PeerPlan(pl, tc.topo, tc.copies)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		for r := 0; r < tc.topo.World(); r++ {
			hosts := plan[r]
			if len(hosts) != tc.copies {
				t.Fatalf("%+v rank %d: %d hosts, want %d", tc, r, len(hosts), tc.copies)
			}
			seen := map[int]bool{}
			for _, n := range hosts {
				if n == pl.NodeOf(r) {
					t.Errorf("%+v rank %d sheltered in its own failure domain (node %d)", tc, r, n)
				}
				if seen[n] {
					t.Errorf("%+v rank %d: duplicate host %d", tc, r, n)
				}
				seen[n] = true
			}
		}
	}
}

// TestPeerPlanAvoidsReplicaDomainsWhenPossible: with one rank per node,
// a rank's shelter host must also differ from every node hosting a
// data-parallel replica of its position — so losing ALL replica nodes at
// once still leaves the sheltered copy standing.
func TestPeerPlanAvoidsReplicaDomainsWhenPossible(t *testing.T) {
	topo := train.Topology{D: 2, P: 2, T: 1}
	pl := peerPlanPlacement(t, 4, 1, topo.World())
	plan, err := PeerPlan(pl, topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < topo.World(); r++ {
		bad := map[int]bool{pl.NodeOf(r): true}
		for _, rr := range topo.ReplicaRanks(r) {
			bad[pl.NodeOf(rr)] = true
		}
		for _, n := range plan[r] {
			if bad[n] {
				t.Errorf("rank %d sheltered on replica-domain node %d", r, n)
			}
		}
	}
}

func TestPeerPlanSingleNodeFails(t *testing.T) {
	topo := train.Topology{D: 4, P: 1, T: 1}
	pl := peerPlanPlacement(t, 1, 4, topo.World())
	if _, err := PeerPlan(pl, topo, 1); !errors.Is(err, ErrNoPeerHost) {
		t.Fatalf("err = %v, want ErrNoPeerHost", err)
	}
}

// TestPeerPlanDegradesGracefully: when replica domains cannot all be
// avoided (2 nodes, replicas on both), the plan still never picks the
// rank's own node.
func TestPeerPlanDegradesGracefully(t *testing.T) {
	topo := train.Topology{D: 4, P: 1, T: 1}
	pl := peerPlanPlacement(t, 2, 2, topo.World())
	plan, err := PeerPlan(pl, topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < topo.World(); r++ {
		for _, n := range plan[r] {
			if n == pl.NodeOf(r) {
				t.Errorf("rank %d sheltered on own node %d", r, n)
			}
		}
	}
}

func TestStripePlanSpreadsAcrossRacks(t *testing.T) {
	// 8 nodes, 1 rank each, rack = node/2 → 4 racks. RS(2,1): 3 fragments
	// must land on 3 distinct nodes in 3 distinct racks ≠ the own rack
	// only when capacity allows; here m+1 = 2 racks is the floor and 3
	// distinct racks are available outside the owner's.
	topo := train.Topology{D: 4, P: 2, T: 1}
	pl := peerPlanPlacement(t, 8, 1, topo.World())
	rackOf := func(n int) int { return n / 2 }
	var warns []string
	plan, err := StripePlan(pl, topo, 2, 1, rackOf, func(f string, a ...any) {
		warns = append(warns, fmt.Sprintf(f, a...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Fatalf("unexpected degradation warnings: %v", warns)
	}
	for r := 0; r < topo.World(); r++ {
		hosts := plan[r]
		if len(hosts) != 3 {
			t.Fatalf("rank %d: %d hosts, want 3", r, len(hosts))
		}
		racks := map[int]bool{}
		for _, n := range hosts {
			if n == pl.NodeOf(r) {
				t.Errorf("rank %d fragment on own node", r)
			}
			if rackOf(n) == rackOf(pl.NodeOf(r)) {
				t.Errorf("rank %d fragment in own rack", r)
			}
			if racks[rackOf(n)] {
				t.Errorf("rank %d co-located two fragments in rack %d", r, rackOf(n))
			}
			racks[rackOf(n)] = true
		}
	}
}

func TestStripePlanDegradesWithWarning(t *testing.T) {
	// 4 nodes in 2 racks, RS(2,2): 4 fragments but only 3 eligible nodes
	// in ≤2 racks → rack (and node) reuse with a warning, never the own
	// node.
	topo := train.Topology{D: 2, P: 2, T: 1}
	pl := peerPlanPlacement(t, 4, 1, topo.World())
	rackOf := func(n int) int { return n / 2 }
	var warns int
	plan, err := StripePlan(pl, topo, 2, 2, rackOf, func(string, ...any) { warns++ })
	if err != nil {
		t.Fatal(err)
	}
	if warns == 0 {
		t.Fatal("no degradation warning for a stripe wider than the rack count")
	}
	for r := 0; r < topo.World(); r++ {
		if len(plan[r]) != 4 {
			t.Fatalf("rank %d: %d hosts, want 4", r, len(plan[r]))
		}
		for _, n := range plan[r] {
			if n == pl.NodeOf(r) {
				t.Errorf("rank %d fragment on own node even under degradation", r)
			}
		}
	}
}

func TestStripePlanSingleNodeFails(t *testing.T) {
	topo := train.Topology{D: 4, P: 1, T: 1}
	pl := peerPlanPlacement(t, 1, 4, topo.World())
	if _, err := StripePlan(pl, topo, 2, 1, func(n int) int { return n }, nil); !errors.Is(err, ErrNoPeerHost) {
		t.Fatalf("err = %v, want ErrNoPeerHost", err)
	}
}

func TestStripePlanDeterministic(t *testing.T) {
	topo := train.Topology{D: 4, P: 2, T: 1}
	pl := peerPlanPlacement(t, 8, 1, topo.World())
	rackOf := func(n int) int { return n / 2 }
	a, err := StripePlan(pl, topo, 4, 2, rackOf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b, err := StripePlan(pl, topo, 4, 2, rackOf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("plan not deterministic: %v vs %v", a, b)
		}
	}
}

// TestStripePlanTwoNodesLapsRing: a 2-node placement (an elastic shrink
// floor) must still produce a full stripe by lapping the single peer,
// never the own node — with the co-location warning, not an error.
func TestStripePlanTwoNodesLapsRing(t *testing.T) {
	env := vclock.NewEnv(1)
	cl := gpu.NewCluster(env, 2, 1, 1<<30)
	topo := train.Topology{D: 2, P: 1, T: 1}
	pl, err := Place(cl.Nodes, topo.World())
	if err != nil {
		t.Fatal(err)
	}
	var warns int
	plan, err := StripePlan(pl, topo, 2, 1, func(n int) int { return n }, func(string, ...any) { warns++ })
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < topo.World(); r++ {
		hosts := plan[r]
		if len(hosts) != 3 {
			t.Fatalf("rank %d: %d hosts, want 3", r, len(hosts))
		}
		own := pl.NodeOf(r)
		for _, n := range hosts {
			if n == own {
				t.Fatalf("rank %d: fragment on own node %d", r, own)
			}
		}
	}
	if warns == 0 {
		t.Fatal("no degradation warning despite full co-location")
	}
}
