package core

import (
	"errors"
	"fmt"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/intercept"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// UserLevelRank wires one rank's user-level just-in-time checkpointing
// (§3). The training script's only obligations, exactly as in the paper,
// are (a) initializing the library — constructing this object and passing
// its Hook as the interception layer's OnFault — and (b) providing a
// save-checkpoint function free of collective operations; here that is the
// worker's SaveModelState, which uses only device-to-host copies.
type UserLevelRank struct {
	// Rank is this worker's global rank.
	Rank int
	// Layer is the rank's interception layer (ModeUserLevel).
	Layer *intercept.Layer
	// Worker is the training worker whose state gets checkpointed.
	Worker *train.Worker
	// GIL is the interpreter lock the worker holds across device calls.
	GIL *vclock.Mutex
	// Save persists the captured state: the incarnation episode's save into
	// the policy row's flush target — the shared checkpoint store, or the
	// peer-shelter policy's peerckpt.FlushTarget, which routes the
	// failure-time flush to a surviving host outside this rank's failure
	// domain (the save fails with checkpoint.ErrNoTarget when none
	// survives) — counting toward the incarnation's checkpoint quorum.
	Save func(p *vclock.Proc, ms *train.ModelState) error
	// MainProc is the worker's main process; the checkpoint handler kills
	// it after a successful save ("the watchdog thread exits the process
	// immediately after the checkpoint", §3.2).
	MainProc *vclock.Proc
	// NotePhase, when set, is invoked as the JIT save begins — the chaos
	// injector's failure.PhaseCheckpoint entry point.
	NotePhase func()

	// CheckpointDone reports the completed JIT checkpoint, if any.
	CheckpointDone bool
	CheckpointIter int
	// SaveDuration is how long the JIT checkpoint took (Table 4's
	// "Checkpoint" column).
	SaveDuration vclock.Time
}

// Hook returns the OnFault callback to install in the interception layer.
//
// On an API error (the failing rank itself): the error is surfaced to the
// training script, which will crash; the handler only traces the
// detection. On a hang (a healthy replica): the handler performs the §3.2
// sequence in the watchdog's thread — signal-release the GIL held by the
// wedged main thread, take it, enter checkpoint mode so device-to-host
// copies avoid the blocked default stream, capture the state, hand it to
// Save (which commits the rank checkpoint with the metadata-last protocol
// and counts it toward the restart's quorum), and kill the worker process.
// The watchdog process ends when the handler returns.
func (u *UserLevelRank) Hook() func(p *vclock.Proc, f intercept.Fault) {
	return func(p *vclock.Proc, f intercept.Fault) {
		trace.Of(p.Env()).Instant(p.Now(), "fail", trace.Rank(u.Rank), "detected",
			"by", "intercept", "iter", f.Iter)
		if f.Kind == intercept.FaultError {
			// This rank's own GPU failed: it cannot save state; its
			// replicas will. The error propagates to the script.
			return
		}
		// A failed save ends its span with the error; the restart's
		// quorum counts only the saves that committed.
		_ = u.saveCheckpoint(p)
		if u.MainProc != nil {
			u.MainProc.Kill()
		}
	}
}

// saveCheckpoint is the library-side half of the user's save_checkpoint
// call path.
func (u *UserLevelRank) saveCheckpoint(p *vclock.Proc) (err error) {
	start := p.Now()
	sp := trace.Of(p.Env()).Begin(start, "ckpt", trace.Rank(u.Rank), "jit-save")
	defer func() {
		u.SaveDuration = p.Now() - start
		if err != nil {
			sp.End(p.Now(), "err", err)
		} else {
			sp.End(p.Now(), "iter", u.CheckpointIter)
		}
	}()
	if u.NotePhase != nil {
		u.NotePhase()
	}
	// The wedged main thread may hold the GIL inside a hung device call
	// (§3.2's footnote); steal it the way the SIGUSR1 handler does.
	if u.GIL != nil {
		if u.GIL.Owner() != p {
			u.GIL.ForceRelease()
			u.GIL.Lock(p)
		}
		defer u.GIL.Unlock(p)
	}
	if err := u.Layer.EnterCheckpointMode(p); err != nil {
		return fmt.Errorf("core: enter checkpoint mode: %w", err)
	}
	defer u.Layer.ExitCheckpointMode()

	ms, err := u.Worker.SaveModelState(p)
	if err != nil {
		return fmt.Errorf("core: rank %d JIT save: %w", u.Rank, err)
	}
	err = u.Save(p, ms)
	if errors.Is(err, checkpoint.ErrNoTarget) {
		return fmt.Errorf("core: rank %d JIT flush: no surviving peer host", u.Rank)
	} else if err != nil {
		return fmt.Errorf("core: rank %d JIT write: %w", u.Rank, err)
	}
	u.CheckpointDone = true
	u.CheckpointIter = ms.Iter
	return nil
}
