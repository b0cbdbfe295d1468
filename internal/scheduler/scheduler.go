// Package scheduler models the cluster control plane the paper's recovery
// flows lean on: a node pool with spares and failure exclusion, rank and
// shelter placement, and the CRIU-style process checkpoint used to migrate
// worker CPU state to replacement nodes (§4.3). The §3.3 checkpoint quorum
// a restart waits for belongs to the recovery episode, in internal/core.
package scheduler

import (
	"errors"
	"fmt"
	"sort"

	"jitckpt/internal/gpu"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// ErrNoCapacity is returned when the pool cannot satisfy an allocation.
var ErrNoCapacity = errors.New("scheduler: not enough healthy free nodes")

// Pool manages nodes, including spares and failed-node exclusion.
//
// The pool keeps a sorted free index (positions into nodes of every node
// that is neither leased out nor excluded), so Allocate and FreeHealthy
// scan only the free set instead of the whole cluster — on a fleet-scale
// pool where most nodes are held by other jobs, the old full scan made
// every allocation O(cluster) and thousand-job admission quadratic.
// Nodes are still handed out in slice order (lowest position first),
// preserving the historical allocation order exactly.
type Pool struct {
	env    *vclock.Env
	nodes  []*gpu.Node
	inUse  map[int]bool
	failed map[int]bool
	pos    map[int]int // node ID -> index into nodes
	free   []int       // sorted indices of nodes neither inUse nor failed
	inFree []bool      // by index: membership in free
}

// NewPool wraps a cluster's nodes.
func NewPool(env *vclock.Env, nodes []*gpu.Node) *Pool {
	p := &Pool{
		env:    env,
		nodes:  nodes,
		inUse:  make(map[int]bool),
		failed: make(map[int]bool),
		pos:    make(map[int]int, len(nodes)),
		free:   make([]int, len(nodes)),
		inFree: make([]bool, len(nodes)),
	}
	for i, n := range nodes {
		p.pos[n.ID] = i
		p.free[i] = i
		p.inFree[i] = true
	}
	return p
}

// compactFree drops entries whose inFree flag was cleared, keeping the
// index sorted. O(free), allocation-free.
func (p *Pool) compactFree() {
	w := 0
	for _, idx := range p.free {
		if p.inFree[idx] {
			p.free[w] = idx
			w++
		}
	}
	p.free = p.free[:w]
}

// insertFree re-admits a node to the free index (no-op if it is already
// there, still leased, or still excluded).
func (p *Pool) insertFree(nodeID int) {
	idx, ok := p.pos[nodeID]
	if !ok || p.inFree[idx] || p.inUse[nodeID] || p.failed[nodeID] {
		return
	}
	p.inFree[idx] = true
	i := sort.SearchInts(p.free, idx)
	p.free = append(p.free, 0)
	copy(p.free[i+1:], p.free[i:])
	p.free[i] = idx
}

// Allocate reserves n healthy free nodes, skipping excluded IDs.
func (p *Pool) Allocate(n int, exclude map[int]bool) ([]*gpu.Node, error) {
	got := make([]*gpu.Node, 0, n)
	removed := false
	for _, idx := range p.free {
		if len(got) == n {
			break
		}
		node := p.nodes[idx]
		if exclude[node.ID] || node.Failed {
			// node.Failed is set by failure injectors behind the pool's
			// back and cleared again on repair: skip, but keep the node in
			// the free index so a repair re-admits it for free.
			continue
		}
		// A node with any hard-failed GPU is not schedulable: lazy
		// discovery excludes it permanently (until MarkRepaired).
		if node.DeadBoard() {
			p.failed[node.ID] = true
			p.inFree[idx] = false
			removed = true
			continue
		}
		got = append(got, node)
	}
	if len(got) < n {
		if removed {
			p.compactFree()
		}
		return nil, fmt.Errorf("%w: want %d, have %d", ErrNoCapacity, n, len(got))
	}
	for _, node := range got {
		p.inUse[node.ID] = true
		p.inFree[p.pos[node.ID]] = false
	}
	p.compactFree()
	return got, nil
}

// Release returns nodes to the free pool.
func (p *Pool) Release(nodes []*gpu.Node) {
	for _, n := range nodes {
		delete(p.inUse, n.ID)
		p.insertFree(n.ID)
	}
}

// ReleaseByID returns nodes to the free pool by ID (migration paths hold
// node IDs, not node pointers).
func (p *Pool) ReleaseByID(ids ...int) {
	for _, id := range ids {
		delete(p.inUse, id)
		p.insertFree(id)
	}
}

// MarkFailed permanently excludes a node.
func (p *Pool) MarkFailed(nodeID int) {
	p.failed[nodeID] = true
	delete(p.inUse, nodeID)
	if idx, ok := p.pos[nodeID]; ok && p.inFree[idx] {
		p.inFree[idx] = false
		p.compactFree()
	}
}

// MarkRepaired re-admits a previously failed node after its hardware was
// replaced. Callers must repair the node's devices first (gpu.Device
// Repair), or Allocate will immediately re-exclude it.
func (p *Pool) MarkRepaired(nodeID int) {
	delete(p.failed, nodeID)
	p.insertFree(nodeID)
}

// FreeHealthy returns how many nodes remain allocatable.
func (p *Pool) FreeHealthy() int {
	n := 0
	for _, idx := range p.free {
		if !p.nodes[idx].Failed {
			n++
		}
	}
	return n
}

// Placement maps ranks to devices.
type Placement map[int]*gpu.Device

// Place assigns world ranks to devices across nodes, rank-major.
func Place(nodes []*gpu.Node, world int) (Placement, error) {
	pl := make(Placement, world)
	r := 0
	for _, node := range nodes {
		for _, d := range node.Devices {
			if r == world {
				return pl, nil
			}
			pl[r] = d
			r++
		}
	}
	if r < world {
		return nil, fmt.Errorf("scheduler: %d devices for %d ranks", r, world)
	}
	return pl, nil
}

// NodeOf returns the node ID hosting a rank.
func (pl Placement) NodeOf(rank int) int { return pl[rank].NodeID }

// ErrNoPeerHost is returned when a rank cannot be assigned any shelter
// host outside its own failure domain.
var ErrNoPeerHost = errors.New("scheduler: no peer host outside the rank's failure domain")

// PeerPlan assigns each rank the nodes that will shelter its peer-replicated
// checkpoint entries in CPU memory: `copies` hosts per rank, walking the
// job's nodes ring-wise from the rank's own node. It is StripePlan with
// every node its own rack and no parity, so placement is failure-domain
// aware at the same two strengths: a shelter host is *never* the rank's own
// node (losing one host must not take a rank's state and its shelter copy
// together), and when enough nodes exist it also avoids every node hosting
// a data-parallel replica of the rank's position — so a burst of node
// losses that destroys all replicas of a shard still leaves a sheltered
// copy elsewhere. Unlike a stripe, copies never share a host: it fails with
// ErrNoPeerHost when the job spans too few nodes for that, which also keeps
// StripePlan's rack-reuse and node-reuse passes idle.
func PeerPlan(pl Placement, topo train.Topology, copies int) (map[int][]int, error) {
	if copies <= 0 {
		copies = 1
	}
	if n := len(jobNodes(pl, topo)); copies >= n {
		return nil, fmt.Errorf("%w: rank 0 on node %d, %d nodes total", ErrNoPeerHost, pl.NodeOf(0), n)
	}
	return StripePlan(pl, topo, copies, 0, func(node int) int { return node }, nil)
}

// jobNodes lists the distinct nodes a placement puts the topology's ranks
// on, in ID order.
func jobNodes(pl Placement, topo train.Topology) []int {
	nodeSet := make(map[int]bool)
	for r := 0; r < topo.World(); r++ {
		nodeSet[pl.NodeOf(r)] = true
	}
	nodes := make([]int, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes
}

// StripePlan assigns each rank the k+m nodes that will host its
// erasure-coded shelter fragments (fragment i of rank r's stripe lands
// on plan[r][i]). Placement walks the job's nodes ring-wise from the
// rank's own node and is failure-domain aware in tiers:
//
//   - A fragment host is never the rank's own node (pass 3 is the only
//     relaxation that reuses nodes, and it too excludes the own node).
//   - Pass 0 prefers nodes in unused racks that hold neither the rank
//     nor any data-parallel replica of its position.
//   - Pass 1 drops the replica-avoidance, still one fragment per rack.
//   - Pass 2 allows rack reuse (two fragments of one stripe co-located
//     in a rack) when the cluster has fewer racks than fragments.
//   - Pass 3 allows node reuse on very small clusters.
//
// Whenever a stripe ends up spread over fewer than m+1 distinct racks —
// a single RackDown could then erase more than m fragments — the
// degradation is reported through warn (traced by the caller) instead
// of failing: a thinner guarantee beats no shelter. rackOf maps node ID
// to failure domain. It fails with ErrNoPeerHost only when no eligible
// host exists at all.
func StripePlan(pl Placement, topo train.Topology, k, m int, rackOf func(node int) int, warn func(format string, args ...any)) (map[int][]int, error) {
	frags := k + m
	if frags < 1 {
		return nil, fmt.Errorf("scheduler: stripe of %d fragments", frags)
	}
	if warn == nil {
		warn = func(string, ...any) {}
	}
	nodes := jobNodes(pl, topo)
	idx := make(map[int]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}

	plan := make(map[int][]int, topo.World())
	for r := 0; r < topo.World(); r++ {
		own := pl.NodeOf(r)
		ownRack := rackOf(own)
		avoid := map[int]bool{own: true}
		for _, rr := range topo.ReplicaRanks(r) {
			avoid[pl.NodeOf(rr)] = true
		}
		hosts := make([]int, 0, frags)
		taken := make(map[int]bool)
		rackUsed := map[int]bool{ownRack: true}
		for pass := 0; pass < 4 && len(hosts) < frags; pass++ {
			// Pass 3 may need several laps of the ring on very small
			// clusters (fewer non-own nodes than fragments).
			for {
				added := false
				for i := 1; i <= len(nodes) && len(hosts) < frags; i++ {
					n := nodes[(idx[own]+i)%len(nodes)]
					if n == own {
						continue
					}
					if pass < 3 && taken[n] {
						continue
					}
					if pass < 2 && rackUsed[rackOf(n)] {
						continue
					}
					if pass == 0 && avoid[n] {
						continue
					}
					taken[n] = true
					rackUsed[rackOf(n)] = true
					hosts = append(hosts, n)
					added = true
				}
				if pass < 3 || !added || len(hosts) >= frags {
					break
				}
			}
		}
		if len(hosts) < frags {
			return nil, fmt.Errorf("%w: rank %d on node %d needs %d fragment hosts, %d nodes total",
				ErrNoPeerHost, r, own, frags, len(nodes))
		}
		racks := make(map[int]bool)
		for _, n := range hosts {
			racks[rackOf(n)] = true
		}
		if len(racks) < m+1 {
			warn("scheduler: rank %d stripe spans %d racks < m+1=%d: a rack loss may erase >m fragments",
				r, len(racks), m+1)
		}
		plan[r] = hosts
	}
	return plan, nil
}

// CRIU models checkpoint/restore of worker CPU processes: Take and Restore
// charge the measured process checkpoint costs, which are fixed times, not
// functions of the image size.
type CRIU struct {
	SnapshotTime vclock.Time
	RestoreTime  vclock.Time
}

// Image is a captured process image: the worker's CPU state.
type Image struct {
	Rank int
	Snap train.Snapshot
}

// Take checkpoints a process image, charging snapshot time.
func (c CRIU) Take(p *vclock.Proc, rank int, snap train.Snapshot) Image {
	p.Sleep(c.SnapshotTime)
	return Image{Rank: rank, Snap: snap}
}

// Restore restores a process image on (conceptually) a new host, charging
// restore time, and returns the worker state it holds.
func (c CRIU) Restore(p *vclock.Proc, img Image) train.Snapshot {
	p.Sleep(c.RestoreTime)
	return img.Snap
}
