package core

import (
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// Elastic degraded-mode recovery (the Elastic column): when spares run
// out, rather than burning bounded recovery attempts against a placement
// that can never succeed, the job shrinks to the largest viable topology,
// keeps training at reduced data-parallel width with gradient accumulation
// preserving the global batch, and re-expands to full width once repairs
// (or the arbiter) return the capacity. The harness's topo, accum and
// nodes are the current shape; the workload's are the full one:
//
//	full ──shrink──▶ degraded ──expand──▶ full
//	                    │  ▲
//	                    └──┘ shrink (deeper degradation)
//
// Only data-parallel replicas are ever dropped. Pipeline stages and
// tensor partitions each hold a unique slice of model state, so removing
// one would lose state; a data-parallel replica is redundant by
// construction (§3.1 — the same redundancy JIT checkpointing itself
// recovers from). Shrinking D from its full width D_f to a divisor D' and
// raising the gradient-accumulation factor to D_f/D' keeps every
// iteration's global batch — and therefore the optimizer-step semantics
// and data-consumption order — identical to the full-width job.

// shrink computes the largest viable topology strictly narrower than cur:
// the biggest divisor D' < cur.D such that D'·P·T ranks fit on freeNodes
// nodes of perNode devices each, and the node count it occupies. minNodes
// forces the plan onto at least that many nodes (peer-shelter placement
// needs two distinct failure domains); FSDP additionally requires the
// shard group to survive intact (D' must remain a multiple of FSDPShard).
// Pipeline and tensor degrees are never reduced. It returns ok=false when
// no narrower viable shape exists — the genuinely terminal case.
func shrink(cur train.Topology, perNode, freeNodes, minNodes int) (train.Topology, int, bool) {
	if perNode <= 0 || freeNodes <= 0 {
		return train.Topology{}, 0, false
	}
	for dp := cur.D - 1; dp >= 1; dp-- {
		if cur.D%dp != 0 {
			continue
		}
		t := cur
		t.D = dp
		if t.FSDP() && dp%t.FSDPShard != 0 {
			continue
		}
		if err := t.Validate(); err != nil {
			continue
		}
		nodes := max((t.World()+perNode-1)/perNode, minNodes)
		if nodes > freeNodes {
			continue
		}
		return t, nodes, true
	}
	return train.Topology{}, 0, false
}

// degraded reports whether an elastic shrink has the job below full width.
func (h *harness) degraded() bool { return h.topo != h.cfg.WL.Topo }

// noteRepairCapacity reacts to restored capacity: a job running degraded
// schedules a mid-run expand when the repaired (or arbiter-granted)
// capacity again covers the full width — degraded workers stop (and
// checkpoint) a couple of iterations ahead, and the next incarnation
// restarts at full width. The single-job injector calls it after every
// repair; the cluster calls it through the job handle.
func (h *harness) noteRepairCapacity() {
	if h.finished || !h.degraded() {
		return
	}
	if h.pool.FreeHealthy()+h.heldNodes >= h.cfg.WL.Nodes {
		at := h.maxIter + 2
		if at < h.cfg.Iters {
			h.expandAt = at
		}
	}
}

// requestYield asks the job to stop cleanly a couple of iterations ahead
// so the arbiter can hand its nodes to a higher-priority tenant. Only
// elastic jobs that can actually run narrower honor it; everyone else
// (including jobs already yielding or nearly done) reports false and the
// arbiter moves to the next victim.
func (h *harness) requestYield() bool {
	if h.finished || !h.pol.Elastic || h.yieldAt >= 0 {
		return false
	}
	if _, _, ok := shrink(h.topo, h.cfg.WL.PerNode, h.nodes-1, h.minNodes); !ok {
		return false
	}
	at := h.maxIter + 2
	if at >= h.cfg.Iters {
		return false // finishing frees the nodes sooner than yielding would
	}
	h.yieldAt = at
	h.expandAt = -1
	return true
}

// elasticSave persists a degraded worker's state to disk under the
// elastic namespace so the full-width restart (or an oracle run sharing
// the store) can restore it, counting it toward the incarnation's episode
// e. It runs in the worker's own process at a clean iteration boundary —
// this is a planned, user-level save, not a failure-time JIT flush, so
// trace invariant 3 does not apply to it.
func (h *harness) elasticSave(p *vclock.Proc, w *train.Worker, e *episode) error {
	rank := w.Rank()
	sp := trace.Of(h.env).Begin(p.Now(), "ckpt", trace.Rank(rank), "elastic-save", "iter", w.Iter())
	ms, err := w.SaveModelState(p)
	if err == nil {
		err = e.saveTo(p, h.disk, ElasticPolicyName, ms)
	}
	if err != nil {
		sp.End(p.Now(), "err", err)
		return err
	}
	sp.End(p.Now(), "iter", ms.Iter)
	return nil
}
