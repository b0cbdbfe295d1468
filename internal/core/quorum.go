package core

import (
	"jitckpt/internal/checkpoint"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// quorum is one recovery episode's §3.3 restart precondition: it is met
// once, at some iteration, at least one replica of every position (pipeline
// stage × tensor partition × shard slot) has checkpointed. The restart loop
// makes one per incarnation and the transparent hard path one per attempt,
// so the saves of an earlier episode never satisfy a later one.
type quorum struct {
	topo  train.Topology
	saved map[int]map[string]bool // iteration -> positions saved at it
	pre   map[string]bool         // positions covered without a save
	met   *vclock.Event           // while someone waits: fires when a save meets the quorum
}

func newQuorum(topo train.Topology) *quorum {
	return &quorum{topo: topo, saved: make(map[int]map[string]bool)}
}

// note counts rank's checkpoint of iteration iter.
func (q *quorum) note(rank, iter int) {
	s := q.saved[iter]
	if s == nil {
		s = make(map[string]bool)
		q.saved[iter] = s
	}
	s[q.topo.PositionKey(rank)] = true
	if q.met != nil && q.covers(s) {
		q.met.Trigger()
	}
}

// covers reports whether the positions saved at one iteration, with the
// pre-covered ones, span the topology.
func (q *quorum) covers(saved map[string]bool) bool {
	n := len(saved)
	for pos := range q.pre {
		if !saved[pos] {
			n++
		}
	}
	return n >= q.topo.PositionCount()
}

// wait blocks p until the quorum is met or timeout passes and reports
// which. Positions in pre count as covered at every iteration: their state
// survives in a tier's memory, so they need no fresh JIT checkpoint, and
// when they alone span the topology the wait returns at once.
func (q *quorum) wait(p *vclock.Proc, timeout vclock.Time, pre map[string]bool) bool {
	q.pre = pre
	if q.covers(nil) {
		return true
	}
	for _, s := range q.saved {
		if q.covers(s) {
			return true
		}
	}
	q.met = p.Env().NewEvent("quorum")
	return p.WaitTimeout(q.met, timeout)
}

// saveRank is the one save that counts toward a quorum: it writes ms as its
// rank's checkpoint under namespace ns of to, then notes it in q.
func (h *harness) saveRank(p *vclock.Proc, to checkpoint.Target, ns string, ms *train.ModelState, q *quorum) error {
	wl := h.cfg.WL
	dir := checkpoint.RankDir("job", ns, ms.Iter, ms.Rank)
	if err := checkpoint.SaveRank(p, to, dir, ms, wl.SerializeBW(), wl.StateBytesPerGPU(), wl.StateBytesPerGPU()); err != nil {
		return err
	}
	q.note(ms.Rank, ms.Iter)
	return nil
}
