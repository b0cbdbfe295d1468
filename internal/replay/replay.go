// Package replay implements the device-API replay log of §4.1: during
// steady state, every state-mutating device call is recorded with its full
// inputs; on recovery, the log is re-executed to bring a reset GPU back to
// the exact point in the minibatch where the error struck.
//
// The log has two parts:
//
//   - The creation log: Malloc / StreamCreate / EventCreate / CommInit
//     calls for every GPU object alive at the start of the current
//     minibatch. Replaying it after a device reset re-creates those objects
//     (with new physical handles — the cuda.Handles table replay binds
//     them into is what the interception layer adopts to back its virtual
//     handles).
//
//   - The minibatch log: every mutating call issued since the start of the
//     current minibatch. It is cleared at each minibatch boundary and
//     replayed after the creation log to redo the forward/backward work.
//
// Object creations and destructions that happen inside a minibatch are
// folded into the creation log at the next minibatch boundary, which is the
// "undoing the creation or destruction of GPU objects after start of the
// minibatch" step of the paper's correctness validation.
package replay

import (
	"fmt"

	"jitckpt/internal/cuda"
	"jitckpt/internal/vclock"
)

// Call is one recorded device API invocation: its inputs plus, for
// creation calls, the handle it returned (needed to map old handles to new
// ones on replay). Only state-mutating ops (cuda.OpInfo.Mutating) are
// recorded.
type Call struct {
	cuda.Call
	Iter int // minibatch iteration when recorded
	// Created is the handle a creation op returned, in the space
	// Op.Info().Creates names.
	Created int
}

// Log is a device-API replay log for one worker rank.
type Log struct {
	// Creation holds creation calls for objects alive at the start of the
	// current minibatch, in creation order.
	Creation []Call
	// Minibatch holds all mutating calls since the current minibatch began.
	Minibatch []Call
	// Iter is the current minibatch iteration number.
	Iter int
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// StartMinibatch marks a minibatch boundary: intra-minibatch object
// creations and destructions are folded into the creation log, and the
// minibatch log is cleared.
func (l *Log) StartMinibatch(iter int) {
	for _, c := range l.Minibatch {
		info := c.Op.Info()
		switch {
		case info.Creates != cuda.NoHandle:
			l.Creation = append(l.Creation, c)
		case info.Destroys != cuda.NoHandle:
			l.removeCreation(info.Destroys, c.Handle(info.Destroys))
		}
	}
	l.Minibatch = l.Minibatch[:0]
	l.Iter = iter
}

// removeCreation deletes the creation record of handle h in space k.
func (l *Log) removeCreation(k cuda.HandleKind, h int) {
	for i, c := range l.Creation {
		if c.Op.Info().Creates == k && c.Created == h {
			l.Creation = append(l.Creation[:i], l.Creation[i+1:]...)
			return
		}
	}
}

// Record appends a call to the minibatch log.
func (l *Log) Record(c Call) {
	c.Iter = l.Iter
	l.Minibatch = append(l.Minibatch, c)
}

// Options configure a replay.
type Options struct {
	// Gen, when positive, is the generation every replayed CommInit
	// rendezvouses under: after a failure, communicators must re-initialize
	// under a fresh one. 0 keeps the recorded generation (recovery
	// generations start at 1).
	Gen int
}

// Apply re-executes calls against api, translating handles through tr and
// binding the handles replayed creations return into it. It stops at the
// first error.
func Apply(p *vclock.Proc, api cuda.API, calls []Call, tr *cuda.Handles, opts Options) error {
	for i := range calls {
		if err := applyOne(p, api, &calls[i], tr, opts); err != nil {
			return fmt.Errorf("replay: call %d (%v): %w", i, calls[i].Op, err)
		}
	}
	return nil
}

func applyOne(p *vclock.Proc, api cuda.API, c *Call, tr *cuda.Handles, opts Options) error {
	call := c.Call
	if call.Op == cuda.OpCommInit && opts.Gen > 0 {
		call.Gen = opts.Gen
	}
	if err := tr.Translate(&call); err != nil {
		return err
	}
	res, err := cuda.Invoke(p, api, &call)
	if err != nil {
		return err
	}
	if k := call.Op.Info().Creates; k != cuda.NoHandle {
		tr.Bind(k, c.Created, res.Handle)
	}
	return nil
}
