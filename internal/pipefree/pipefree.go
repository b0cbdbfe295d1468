// Package pipefree implements checkpoint-free pipeline-stage recovery
// ("All is Not Lost"-style): each pipeline stage continuously retains a
// redundancy bundle — its optimizer state plus the boundary activations
// needed to rebuild its weights — in the CPU memory of the next stage's
// host node (same data/tensor coordinates). When a
// stage's node dies, the harness rebuilds that stage's weights and
// optimizer state from a surviving neighbor's bundle: the neighbor streams
// the optimizer redundancy back over the interconnect and the stage
// recomputes its parameters, both charged to virtual time — a recovery
// with zero checkpoint reads, disk or otherwise.
//
// The bundles live in host RAM, so they survive GPU failures and job
// restarts but die with their hosting node. A double fault that kills both
// a stage and every neighbor holding its bundle leaves the position
// uncovered; restore then falls back to the newest valid disk generation
// (the multi-step writer the PipeFree policy pairs with).
package pipefree

import (
	"fmt"
	"sort"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/failure"
	"jitckpt/internal/gpu"
	"jitckpt/internal/tensor"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// The tier's fixed costs and window: the stage→neighbor-CPU-memory link
// (a 100 Gb/s-class interconnect) and its per-transfer latency, the
// reconstruction throughput — how fast a stage's weights re-materialize from
// retained activations plus the streamed optimizer redundancy, in state
// bytes/second — and how many iterations of bundles each host keeps per
// stage (two, so an in-flight offer never leaves a stage uncovered).
const (
	linkBandwidth = 12.5e9
	linkLatency   = 200 * vclock.Microsecond
	rebuildBW     = 25e9
	retain        = 2
)

// bundle is one retained stage-redundancy image: an owner rank's cloned
// model/optimizer state held in a neighbor stage's host RAM, or — when
// self is set — in the owner's own node's host RAM (the cheap local copy
// that lets a SURVIVING stage rejoin a rolled-back restart without any
// checkpoint read; reload is an H2D copy, not a reconstruction).
type bundle struct {
	owner    int
	hostNode int
	iter     int
	state    *train.ModelState
	bytes    int64
	self     bool
	reloadBW float64 // H2D bandwidth for self-bundle reload
}

// Guard is the job-wide stage-redundancy tier. It persists across job
// incarnations (host RAM outlives restarts) until hosting nodes are lost.
type Guard struct {
	env    *vclock.Env
	job    string
	topo   train.Topology
	nodeOf func(rank int) int
	lost   map[int]bool

	// bundles[owner][hostNode], each list iter-ascending.
	bundles map[int]map[int][]*bundle

	// NotePhase, when set, fires as a rank enters a stage rebuild
	// (failure.PhaseStageRebuild) so phase-armed fault injection can land
	// mid-reconstruction.
	NotePhase func(rank int, ph failure.Phase)

	captures    checkpoint.CaptureStats
	commits     int
	rebuilds    int
	selfReloads int
	bytesKept   int64
	rebuildTime vclock.Time
}

// New creates the tier for a job. nodeOf maps a rank to its hosting node
// (the harness's placement); topo must have at least two pipeline stages —
// a single-stage job has no neighbor to retain redundancy.
func New(env *vclock.Env, job string, topo train.Topology, nodeOf func(rank int) int) (*Guard, error) {
	if topo.P < 2 {
		return nil, fmt.Errorf("pipefree: needs ≥2 pipeline stages, topology has %d", topo.P)
	}
	return &Guard{
		env:     env,
		job:     job,
		topo:    topo,
		nodeOf:  nodeOf,
		lost:    make(map[int]bool),
		bundles: make(map[int]map[int][]*bundle),
	}, nil
}

// HostRank returns the neighbor rank that retains a rank's bundle: the next
// pipeline stage (wrapping around) at the same (d, t) coordinates.
func (g *Guard) HostRank(rank int) int {
	d, p, t := g.topo.Coords(rank)
	return g.topo.Rank(d, (p+1)%g.topo.P, t)
}

// MarkNodeLost drops every bundle hosted on a node: a whole-host failure
// takes its retained redundancy with it. GPU failures must NOT be reported
// here — host RAM survives them.
func (g *Guard) MarkNodeLost(node int) {
	if g.lost[node] {
		return
	}
	g.lost[node] = true
	dropped := 0
	for owner, hosts := range g.bundles {
		if list, ok := hosts[node]; ok {
			dropped += len(list)
			for _, b := range list {
				g.bytesKept -= b.bytes
			}
			delete(hosts, node)
			if len(hosts) == 0 {
				delete(g.bundles, owner)
			}
		}
	}
	trace.Of(g.env).Instant(g.env.Now(), "pipe", trace.LaneSim, "node-lost",
		"node", node, "dropped", dropped)
}

// store retains one bundle, pruning the (owner, host) pair's history to the
// retention window.
func (g *Guard) store(b *bundle) {
	hosts, ok := g.bundles[b.owner]
	if !ok {
		hosts = make(map[int][]*bundle)
		g.bundles[b.owner] = hosts
	}
	list := hosts[b.hostNode]
	// Replace an entry at the same iteration (re-offer after restore).
	replaced := false
	for i, old := range list {
		if old.iter == b.iter {
			g.bytesKept -= old.bytes
			list[i] = b
			replaced = true
			break
		}
	}
	if !replaced {
		list = append(list, b)
		sort.Slice(list, func(i, j int) bool { return list[i].iter < list[j].iter })
	}
	for len(list) > retain {
		g.bytesKept -= list[0].bytes
		list = list[1:]
	}
	hosts[b.hostNode] = list
	g.commits++
	g.bytesKept += b.bytes
}

// owners returns the owner ranks with any retained bundle, sorted.
func (g *Guard) owners() []int {
	out := make([]int, 0, len(g.bundles))
	for o := range g.bundles {
		out = append(out, o)
	}
	sort.Ints(out)
	return out
}

// CoveredPositions returns the positions a surviving bundle can rebuild,
// keyed by train.Topology.PositionKey (zero-time scan).
func (g *Guard) CoveredPositions(topo train.Topology) map[string]bool {
	out := make(map[string]bool)
	for owner, hosts := range g.bundles {
		if owner >= topo.World() {
			continue
		}
		for node, list := range hosts {
			if !g.lost[node] && len(list) > 0 {
				out[topo.PositionKey(owner)] = true
			}
		}
	}
	return out
}

// RestoreCandidates offers every surviving bundle to the restore assembler.
// A candidate's Load performs the stage rebuild: the neighbor streams the
// optimizer redundancy back over the interconnect and the stage recomputes
// its weights from retained activations — link transfer plus rebuild
// compute charged to virtual time, zero checkpoint (store) reads.
func (g *Guard) RestoreCandidates() []checkpoint.Candidate {
	var out []checkpoint.Candidate
	for _, owner := range g.owners() {
		hosts := g.bundles[owner]
		nodes := make([]int, 0, len(hosts))
		for n := range hosts {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		for _, node := range nodes {
			if g.lost[node] {
				continue
			}
			for _, b := range hosts[node] {
				b := b
				out = append(out, checkpoint.Candidate{
					Iter: b.iter,
					Rank: b.owner,
					Probe: func(p *vclock.Proc) bool {
						return !g.lost[b.hostNode]
					},
					Load: func(p *vclock.Proc) (*train.ModelState, error) {
						return g.rebuild(p, b)
					},
					Desc: b.desc(),
				})
			}
		}
	}
	return out
}

func (b *bundle) desc() string {
	if b.self {
		return fmt.Sprintf("pipefree:self/rank%04d/iter%08d", b.owner, b.iter)
	}
	return fmt.Sprintf("pipefree:n%d/rank%04d/iter%08d", b.hostNode, b.owner, b.iter)
}

// rebuild reconstructs a stage's state from a retained bundle. A neighbor
// bundle charges the link streaming plus reconstruction compute; a
// self-bundle is a local H2D reload. Neither touches a checkpoint store.
func (g *Guard) rebuild(p *vclock.Proc, b *bundle) (*train.ModelState, error) {
	if g.lost[b.hostNode] {
		return nil, fmt.Errorf("pipefree: host node %d lost", b.hostNode)
	}
	start := p.Now()
	if b.self {
		sp := trace.Of(g.env).Begin(start, "pipe", trace.Rank(b.owner), "self-reload", "iter", b.iter)
		p.Sleep(linkLatency + gpu.TransferTime(b.bytes, b.reloadBW))
		g.selfReloads++
		sp.End(p.Now())
		return cloneModelState(b.state), nil
	}
	if g.NotePhase != nil {
		g.NotePhase(b.owner, failure.PhaseStageRebuild)
	}
	sp := trace.Of(g.env).Begin(start, "pipe", trace.Rank(b.owner), "stage-rebuild",
		"host", b.hostNode, "iter", b.iter)
	p.Sleep(linkLatency + gpu.TransferTime(b.bytes, linkBandwidth))
	p.Sleep(gpu.TransferTime(b.bytes, rebuildBW))
	g.rebuilds++
	g.rebuildTime += p.Now() - start
	sp.End(p.Now())
	return cloneModelState(b.state), nil
}

func cloneModelState(ms *train.ModelState) *train.ModelState {
	out := &train.ModelState{Iter: ms.Iter, Rank: ms.Rank, Tensors: make(map[string]tensor.Vector, len(ms.Tensors))}
	for n, v := range ms.Tensors {
		out.Tensors[n] = v.Clone()
	}
	return out
}

// Stats is a snapshot of the tier's counters.
type Stats struct {
	// Offers counts per-boundary retention attempts; Skips those dropped
	// because the previous transfer was in flight or no host survives;
	// Commits retained bundles; AbortedCaptures transfers abandoned because
	// the owner device died mid-staging.
	Offers, Skips, Commits, AbortedCaptures int
	// Rebuilds counts neighbor-bundle stage reconstructions, SelfReloads
	// local self-bundle reloads; RebuildTime is the virtual time rebuilds
	// charged; BytesRetained the bundle volume currently held.
	Rebuilds      int
	SelfReloads   int
	RebuildTime   vclock.Time
	BytesRetained int64
}

// Stats returns the current counters.
func (g *Guard) Stats() Stats {
	return Stats{
		Offers: g.captures.Offers, Skips: g.captures.Skips, Commits: g.commits,
		AbortedCaptures: g.captures.Aborted,
		Rebuilds:        g.rebuilds,
		SelfReloads:     g.selfReloads,
		RebuildTime:     g.rebuildTime,
		BytesRetained:   g.bytesKept,
	}
}

// Keeper drives one rank's per-boundary redundancy offers to its neighbor
// stage: Offer (checkpoint.Capture's) retains the boundary image in the
// background, overlapped with the next minibatch.
type Keeper struct {
	checkpoint.Capture
	g    *Guard
	host int
}

// NewKeeper creates the keeper for one rank. dev may be nil (no
// owner-death staging check); stateBytes is the bundle's modelled size;
// d2hBW the PCIe staging bandwidth.
func (g *Guard) NewKeeper(rank int, dev *gpu.Device, stateBytes int64, d2hBW float64) *Keeper {
	k := &Keeper{g: g, host: g.HostRank(rank)}
	k.Capture = checkpoint.Capture{
		Env: g.env, Stats: &g.captures, Rank: rank, Dev: dev,
		Bytes: stateBytes, D2HBW: d2hBW,
		Cat: "pipe", Span: "retain", Proc: fmt.Sprintf("pipekeep.r%d", rank),
		Take: k.take,
	}
	return k
}

// take copies the peeked state off its device view, once: the bundles keep
// it past the next minibatch.
func (k *Keeper) take(ms *train.ModelState) func(p *vclock.Proc) {
	own := cloneModelState(ms)
	return func(p *vclock.Proc) { k.ship(p, own) }
}

// ship retains the staged image on the owner's own node and streams it to
// the neighbor stage's host RAM.
func (k *Keeper) ship(p *vclock.Proc, ms *train.ModelState) {
	g := k.g
	// Local copy first: survivors of someone else's failure rejoin a
	// rolled-back restart from this, with no checkpoint read.
	ownNode := g.nodeOf(k.Rank)
	if !g.lost[ownNode] {
		g.store(&bundle{
			owner: k.Rank, hostNode: ownNode,
			iter: ms.Iter, state: ms, bytes: k.Bytes,
			self: true, reloadBW: k.D2HBW,
		})
	}
	if node := g.nodeOf(k.host); !g.lost[node] {
		p.Sleep(linkLatency + gpu.TransferTime(k.Bytes, linkBandwidth))
		g.store(&bundle{
			owner: k.Rank, hostNode: node,
			iter: ms.Iter, state: ms, bytes: k.Bytes,
		})
	}
}
