package cluster

import (
	"jitckpt/internal/failure"
	"jitckpt/internal/gpu"
	"jitckpt/internal/trace"
)

// injector applies the cluster-scoped failure.Plan to the shared hardware.
// Unlike the per-job failure.Injector (which resolves a Target rank through
// one job's placement), it reads Target as a node ID: a single RackDown
// fans out to every tenant with ranks in that rack, and failures on unowned
// spares silently shrink the free pool.
type injector struct {
	a       *arbiter
	applied int
	skipped int
	// casualties orders injection-broken nodes for repair: NodeRepaired
	// brings back the oldest still-broken one first.
	casualties []*gpu.Node
}

func (in *injector) apply(inj failure.Injection) {
	a := in.a
	now := a.env.Now()
	ok := false
	switch inj.Kind {
	case failure.GPUHard:
		ok = in.failBoard(a.hw.Nodes[inj.Target])
	case failure.NodeDown:
		ok = in.failHost(a.hw.Nodes[inj.Target])
	case failure.RackDown:
		// Lands unless every host in the rack is already down (the job
		// injector skips as soon as the target rank's own host is; DESIGN.md
		// "Hardware model").
		for _, node := range a.hw.Rack(inj.Target) {
			if in.failHost(node) {
				ok = true
			}
		}
	case failure.NodeRepaired:
		ok = in.repairOne()
	}
	if ok {
		in.applied++
		trace.Of(a.env).Instant(now, "fail", trace.LaneSim, "cluster-inject",
			"kind", inj.Kind, "node", inj.Target)
	} else {
		in.skipped++
		trace.Of(a.env).Instant(now, "fail", trace.LaneSim, "cluster-inject-skip",
			"kind", inj.Kind, "node", inj.Target)
	}
}

// failBoard hard-fails one GPU on the node (the first still-healthy one).
// Host RAM survives, so peer-sheltered entries on the node do too; an
// owning tenant discovers the dead device organically through its
// workers. An unowned node leaves the allocatable pool immediately.
func (in *injector) failBoard(node *gpu.Node) bool {
	if node.Failed {
		return false
	}
	for _, d := range node.Devices {
		if d.Health() == gpu.Healthy {
			d.InjectHard()
			in.casualty(node)
			return true
		}
	}
	return false // every board already dead
}

// failHost takes a whole node down: every GPU dies and the host's CPU
// memory — including peer-sheltered checkpoint entries — is gone. The
// owning tenant (if any) is told immediately so its shelter bookkeeping
// matches; its workers fail organically. The node stays accounted to its
// owner until the owner marks it failed or releases it.
func (in *injector) failHost(node *gpu.Node) bool {
	if !node.FailHost() {
		return false
	}
	if own := in.a.owner[node.ID]; own != nil && own.handle != nil {
		own.handle.NoteNodesLost(node.ID)
	}
	in.casualty(node)
	return true
}

// casualty queues a freshly broken node for repair and, when no tenant
// holds it, takes it out of the allocatable pool.
func (in *injector) casualty(node *gpu.Node) {
	a := in.a
	in.casualties = append(in.casualties, node)
	if a.owner[node.ID] == nil {
		now := a.now()
		a.advance(now)
		a.pool.MarkFailed(node.ID)
		a.transition(node.ID, stDown)
		a.notePoint(now)
		a.bump()
	}
}

// repairOne replaces the hardware of one broken node: the oldest
// injection casualty (dead board or dead host alike) still broken, else any
// broken node in ID order. Nothing broken means the repair has no target
// and is skipped.
func (in *injector) repairOne() bool {
	for _, nodes := range [][]*gpu.Node{in.casualties, in.a.hw.Nodes} {
		for _, n := range nodes {
			if n.Broken() {
				n.Repair()
				in.a.markRepaired(n.ID)
				return true
			}
		}
	}
	return false
}
