package gpu

import (
	"fmt"
	"testing"

	"jitckpt/internal/vclock"
)

// TestRackGeometry pins the failure-domain rule: rack = node ID / width,
// width 0 meaning the default 2, the last rack ragged when the width does
// not divide the node count.
func TestRackGeometry(t *testing.T) {
	for _, tc := range []struct {
		nodes, width int
		rackOf       []int // per node ID
	}{
		{6, 0, []int{0, 0, 1, 1, 2, 2}},
		{3, 1, []int{0, 1, 2}},
		{5, 2, []int{0, 0, 1, 1, 2}},
		{8, 4, []int{0, 0, 0, 0, 1, 1, 1, 1}},
		{7, 4, []int{0, 0, 0, 0, 1, 1, 1}},
	} {
		c := NewCluster(vclock.NewEnv(1), tc.nodes, 1, 1<<30)
		c.RackSize = tc.width
		if got, want := c.Racks(), tc.rackOf[tc.nodes-1]+1; got != want {
			t.Errorf("%d nodes, width %d: Racks() = %d, want %d", tc.nodes, tc.width, got, want)
		}
		for id, want := range tc.rackOf {
			if got := c.RackOf(id); got != want {
				t.Errorf("%d nodes, width %d: RackOf(%d) = %d, want %d", tc.nodes, tc.width, id, got, want)
			}
			var mates []int
			for mate, r := range tc.rackOf {
				if r == want {
					mates = append(mates, mate)
				}
			}
			var got []int
			for _, n := range c.Rack(id) {
				got = append(got, n.ID)
			}
			if fmt.Sprint(got) != fmt.Sprint(mates) {
				t.Errorf("%d nodes, width %d: Rack(%d) = %v, want %v", tc.nodes, tc.width, id, got, mates)
			}
		}
	}
	if (&Cluster{}).Racks() != 0 {
		t.Error("an empty cluster has racks")
	}
}

// TestNodeHealthVerbs covers the four verbs every injector and allocator
// goes through: FailHost, Repair, DeadBoard, Broken.
func TestNodeHealthVerbs(t *testing.T) {
	n := NewCluster(vclock.NewEnv(1), 1, 2, 1<<30).Nodes[0]
	if n.Broken() || n.DeadBoard() {
		t.Fatal("a fresh node is broken")
	}

	// One dead board on a live host: broken, host still up.
	kept, err := n.Devices[1].Alloc(64, 4, "w")
	if err != nil {
		t.Fatal(err)
	}
	n.Devices[0].InjectHard()
	if !n.DeadBoard() || !n.Broken() || n.Failed {
		t.Errorf("dead board on a live host: DeadBoard %v Broken %v Failed %v, want true true false",
			n.DeadBoard(), n.Broken(), n.Failed)
	}
	// Repair swaps only the unhealthy board: the healthy one keeps its
	// buffers.
	n.Repair()
	if n.Broken() || n.Devices[0].Health() != Healthy {
		t.Errorf("after repair: Broken %v, board 0 %v", n.Broken(), n.Devices[0].Health())
	}
	if b, err := n.Devices[1].Buf(kept.ID); err != nil || b != kept {
		t.Errorf("repair wiped a healthy board's buffer: %v", err)
	}

	// FailHost lands once; every board dies with the host.
	if !n.FailHost() {
		t.Fatal("FailHost on a live host reported false")
	}
	if n.FailHost() {
		t.Error("FailHost on a dead host reported true")
	}
	if !n.Failed || !n.Broken() || n.Devices[0].Accessible() || n.Devices[1].Accessible() {
		t.Errorf("after FailHost: Failed %v Broken %v, boards accessible %v %v",
			n.Failed, n.Broken(), n.Devices[0].Accessible(), n.Devices[1].Accessible())
	}
	n.Repair()
	if n.Failed || n.Broken() {
		t.Errorf("after repairing a dead host: Failed %v Broken %v", n.Failed, n.Broken())
	}
	if _, err := n.Devices[1].Buf(kept.ID); err == nil {
		t.Error("a board that died with its host kept its buffers through the swap")
	}
}
