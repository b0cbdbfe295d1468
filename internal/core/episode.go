package core

import (
	"errors"
	"fmt"
	"maps"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// episode is one recovery episode's share of the §3.3 contract, the part
// both recovery drivers run the same way: the healthy replicas' saves
// (save), the quorum they form once one replica of every position
// (pipeline stage × tensor partition × shard slot) has saved at one
// iteration (wait), and the restore plan every rank loads from (assemble).
// The restart loop makes one per incarnation and the transparent hard path
// one per attempt, so the saves of an earlier episode never satisfy a later
// one. What the drivers restore into — a fresh incarnation, or a CRIU image
// plus a replay tail — stays theirs.
type episode struct {
	h    *harness
	topo train.Topology
	// target is the iteration the restore must be of; noTarget leaves
	// assembly its §6.3 newest-valid fallback.
	target int
	saved  map[int]map[string]bool // iteration -> positions saved at it
	pre    map[string]bool         // positions covered without a save
	met    *vclock.Event           // while someone waits: fires when a save meets the quorum
}

// noTarget is an episode target that admits any assembled iteration.
const noTarget = -1

func (h *harness) newEpisode(target int) *episode {
	return &episode{h: h, topo: h.topo, target: target, saved: make(map[int]map[string]bool)}
}

// note counts rank's checkpoint of iteration iter.
func (e *episode) note(rank, iter int) {
	s := e.saved[iter]
	if s == nil {
		s = make(map[string]bool)
		e.saved[iter] = s
	}
	s[e.topo.PositionKey(rank)] = true
	if e.met != nil && e.covers(s) {
		e.met.Trigger()
	}
}

// covers reports whether the positions saved at one iteration, with the
// pre-covered ones, span the topology.
func (e *episode) covers(saved map[string]bool) bool {
	n := len(saved)
	for pos := range e.pre {
		if !saved[pos] {
			n++
		}
	}
	return n >= e.topo.PositionCount()
}

// wait blocks p until the quorum is met or timeout passes and reports
// which. Positions whose state survives in a tier's memory (peer CPU
// memory, a neighbour stage's bundle) count as covered at every iteration:
// a failure that destroyed every live replica of a shard needs no fresh JIT
// checkpoint for it, and when such positions alone span the topology the
// wait returns at once instead of burning the timeout.
func (e *episode) wait(p *vclock.Proc, timeout vclock.Time) bool {
	e.pre = make(map[string]bool)
	for _, t := range e.h.tiers {
		if t.covered != nil {
			maps.Copy(e.pre, t.covered(e.topo))
		}
	}
	if e.covers(nil) {
		return true
	}
	for _, s := range e.saved {
		if e.covers(s) {
			return true
		}
	}
	e.met = p.Env().NewEvent("quorum")
	return p.WaitTimeout(e.met, timeout)
}

// save is the one save that counts toward the quorum: it writes ms as its
// rank's checkpoint through the policy row's flush target, then notes it.
func (e *episode) save(p *vclock.Proc, ms *train.ModelState) error {
	ns, to := e.h.flush(ms.Rank)
	return e.saveTo(p, to, ns, ms)
}

// saveTo is save into namespace ns of to: a planned elastic stop saves
// under its own namespace and counts toward the quorum all the same.
func (e *episode) saveTo(p *vclock.Proc, to checkpoint.Target, ns string, ms *train.ModelState) error {
	wl := e.h.cfg.WL
	dir := checkpoint.RankDir("job", ns, ms.Iter, ms.Rank)
	if err := checkpoint.SaveRank(p, to, dir, ms, wl.SerializeBW(), wl.StateBytesPerGPU(), wl.StateBytesPerGPU()); err != nil {
		return err
	}
	e.note(ms.Rank, ms.Iter)
	return nil
}

// errStaleCheckpoint marks assemble's refusal of a plan older than the
// episode's target: no replica of some position saved the target, so its
// tensors would come from an older iteration than the rest of the restore.
// The error wrapping it reads checkpoint-at-iter-N-not-M, the report kind
// the transparent hard path ends with after "hard-failed:".
var errStaleCheckpoint = errors.New("checkpoint-at-iter")

// assemble plans the restore rank (on worker w) is part of. One candidate
// list in tier order, preferred tier first: the disk namespaces — whichever
// of the JIT and periodic checkpoints is newest wins (§6.3: "the most
// recent checkpoint will be used") — then the shelter, then pipe-free
// bundles ahead of multi-step generations (a surviving stage bundle beats
// any disk generation on freshness, and loses nothing if it doesn't).
// Cross-tier assembly is valid because every tier records the same
// invariant — ms.Iter = N means "state at the start of minibatch N". Order
// is observable: probes cost virtual time. It fails with
// checkpoint.ErrUnassembled when no iteration covers every position, and
// with errStaleCheckpoint when the newest that does is not the target.
func (e *episode) assemble(p *vclock.Proc, rank int, w *train.Worker) (*checkpoint.RestorePlan, error) {
	h := e.h
	// Cross-width assembly: checkpoints may have been written by a wider
	// (or, for an oracle run, narrower) era than the topology restoring
	// now; position keys are width-invariant, so bound the writer scan by
	// the larger of the two worlds.
	writerWorld := max(h.cfg.WL.Topo.World(), e.topo.World())
	if h.cfg.RestoreWriterWorld > 0 {
		writerWorld = h.cfg.RestoreWriterWorld
	}
	var cands []checkpoint.Candidate
	for _, t := range h.tiers {
		if t.candidates != nil {
			cands = append(cands, t.candidates(rank, w)...)
		}
	}
	plan, err := checkpoint.AssembleRestore(p, cands, e.topo, writerWorld)
	if err != nil {
		return nil, err
	}
	if e.target != noTarget && plan.Iter != e.target {
		return nil, fmt.Errorf("%w-%d-not-%d", errStaleCheckpoint, plan.Iter, e.target)
	}
	return plan, nil
}
