package experiments

import (
	"fmt"

	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/metrics"
	"jitckpt/internal/peerckpt"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/workload"
)

// ErasureScheme is one shelter configuration of the erasure sweep: a
// replication factor or a Reed-Solomon (k,m) geometry.
type ErasureScheme struct {
	Name string
	Peer peerckpt.Params
}

// ErasureSchemes lists the sweep's shelter configurations in
// presentation order: replication first (the overhead ceiling the sweep
// argues against), then the striped geometries. The pairings matter:
// RS(2,1) survives the same two domain losses as 2× replication at
// 1.5× overhead, and RS(4,2) matches 3× replication's three survivable
// losses at the same 1.5×.
func ErasureSchemes() []ErasureScheme {
	return []ErasureScheme{
		{"repl x2", peerckpt.Params{Copies: 2}},
		{"repl x3", peerckpt.Params{Copies: 3}},
		{"RS(2,1)", peerckpt.Params{DataShards: 2, ParityShards: 1}},
		{"RS(4,1)", peerckpt.Params{DataShards: 4, ParityShards: 1}},
		{"RS(4,2)", peerckpt.Params{DataShards: 4, ParityShards: 2}},
	}
}

// erasureWorkload returns the sweep's cluster: eight single-GPU nodes
// (each its own failure domain via JobConfig.RackSize=1) running a
// 2-way-data-parallel, 4-stage pipeline. Eight domains is the smallest
// count that lets the widest geometry, RS(4,2), place all six fragments
// of a stripe on distinct non-replica nodes.
func erasureWorkload() workload.Workload {
	return workload.Tiny("erasure-tiny", "erasure", 8, 1, train.Topology{D: 2, P: 4, T: 1}, 0.004, 4, 8)
}

// ErasureRow is one scheme of the overhead-vs-survivability table.
type ErasureRow struct {
	Scheme string
	Peer   peerckpt.Params
	// Overhead is the measured sheltered-byte cost per protected byte
	// from the failure-free run (Copies× for replication, (k+m)/k× for
	// striping — the analytic factor, recovered from accounting).
	Overhead float64
	// Survivable is the analytic per-stripe domain-loss budget,
	// counting the owner's own domain: c for replication, m+1 for
	// RS(k,m).
	Survivable int
	// DomainsLost is how many distinct nodes the catastrophe run downs:
	// both data-parallel owners of position 0 plus Survivable-1 of its
	// shelter hosts — the worst loss the scheme claims to survive.
	DomainsLost int
	// RedoIters is the minibatches re-executed after the catastrophe;
	// Recovered whether the job completed at all.
	RedoIters int
	Recovered bool
	// Encodes/Decodes/FragErasures are the codec counters of the
	// catastrophe run: striped schemes must decode (parity at work),
	// replication never does.
	Encodes      int
	Decodes      int
	FragErasures int
}

// erasureKill returns the catastrophe injections for one scheme: node
// failures that destroy both data-parallel owners of position 0 and the
// first survivable-1 ring successors of node 0 — which placement makes
// position 0's first shelter hosts. With every owner and m fragment
// hosts (or c-1 copy hosts) gone, recovery must reconstruct from
// exactly the redundancy the scheme budgets for.
func erasureKill(wl workload.Workload, peer peerckpt.Params, atIter int) (inj []core.IterInjection, domains int) {
	owners := append([]int{0}, wl.Topo.ReplicaRanks(0)...)
	isOwner := make(map[int]bool, len(owners))
	for _, r := range owners {
		isOwner[r] = true
	}
	victims := append([]int(nil), owners...)
	for r := 1; len(victims) < len(owners)+peer.SurvivableDomains()-1; r++ {
		if !isOwner[r] {
			victims = append(victims, r)
		}
	}
	for _, r := range victims {
		inj = append(inj, core.IterInjection{Iter: atIter, Frac: 0.5, Rank: r, Kind: failure.NodeDown})
	}
	return inj, len(victims)
}

// RunErasureSweep measures, per scheme, the shelter's byte overhead
// (failure-free) and the outcome of a catastrophe that levels as many
// failure domains as the scheme claims to survive. Schemes run
// independently, so the grid parallelizes with byte-identical output.
func RunErasureSweep(schemes []ErasureScheme, opt Options) ([]ErasureRow, error) {
	if len(schemes) == 0 {
		schemes = ErasureSchemes()
	}
	wl := erasureWorkload()
	return sweep(schemes, opt.Workers, opt.Recorder, func(sc ErasureScheme, rec *trace.Recorder) (row ErasureRow, err error) {
		peer := sc.Peer
		row = ErasureRow{
			Scheme:     sc.Name,
			Peer:       peer,
			Survivable: peer.SurvivableDomains(),
		}

		// Steady state, failure-free: the shelter's byte cost.
		res, err := core.Run(core.JobConfig{
			WL: wl, Policy: core.PolicyPeerShelter, Iters: opt.Iters, Seed: opt.Seed,
			Peer: &peer, RackSize: 1,
			Recorder: rec,
		})
		if err != nil {
			return row, err
		}
		if !res.Completed {
			return row, fmt.Errorf("experiments: erasure %s steady run incomplete", sc.Name)
		}
		if res.Peer.BytesProtected == 0 {
			return row, fmt.Errorf("experiments: erasure %s sheltered nothing", sc.Name)
		}
		row.Overhead = float64(res.Peer.BytesSheltered) / float64(res.Peer.BytesProtected)

		// Catastrophe: down both owners of position 0 plus survivable-1
		// of its shelter hosts in one stroke.
		inj, domains := erasureKill(wl, peer, opt.Iters/2)
		row.DomainsLost = domains
		res, err = core.Run(core.JobConfig{
			WL: wl, Policy: core.PolicyPeerShelter, Iters: opt.Iters, Seed: opt.Seed,
			Peer: &peer, RackSize: 1,
			Recorder:     rec,
			SpareNodes:   spareNodesFor(wl),
			IterFailures: inj,
		})
		if err != nil {
			return row, err
		}
		row.Recovered = res.Completed
		if res.Completed {
			row.RedoIters = res.ItersExecuted - opt.Iters
		}
		row.Encodes = res.Peer.Encodes
		row.Decodes = res.Peer.Decodes
		row.FragErasures = res.Peer.FragErasures
		return row, nil
	})
}

// RenderErasureSweep formats the overhead-vs-survivability table.
func RenderErasureSweep(rows []ErasureRow) *metrics.Table {
	t := metrics.NewTable("Erasure-coded shelter: byte overhead vs. survivable failure-domain losses",
		"Scheme", "Geometry", "Overhead", "Survives", "Domains downed", "Redo minibatches", "Decodes", "Recovered")
	for _, r := range rows {
		geom := fmt.Sprintf("%d copies", r.Peer.Copies)
		if r.Peer.Striped() {
			geom = fmt.Sprintf("k=%d m=%d", r.Peer.DataShards, r.Peer.ParityShards)
		}
		rec := "yes"
		if !r.Recovered {
			rec = "NO"
		}
		t.Row(r.Scheme, geom,
			fmt.Sprintf("%.2fx", r.Overhead),
			r.Survivable, r.DomainsLost, r.RedoIters, r.Decodes, rec)
	}
	return t
}
