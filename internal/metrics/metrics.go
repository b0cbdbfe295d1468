// Package metrics provides the measurement utilities the evaluation
// harness uses: wasted-GPU-time accounting (the quantity §5 analyzes and
// Table 8 reports), phase timers for recovery breakdowns (Table 7), and a
// plain-text table renderer for paper-style output.
package metrics

import (
	"fmt"
	"strings"

	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// Accounting accumulates useful vs wasted GPU time for a job of N GPUs.
// Durations are wall time; GPU-time aggregates multiply by N.
type Accounting struct {
	N int
	// Useful is wall time spent making forward progress.
	Useful vclock.Time
	// CkptStall is wall time stalled on steady-state checkpointing.
	CkptStall vclock.Time
	// RecoveryFixed is wall time in fixed recovery work (init, restore,
	// rendezvous, CRIU).
	RecoveryFixed vclock.Time
	// RedoWork is wall time re-executing minibatches lost to a failure.
	RedoWork vclock.Time
	// WaitingForCapacity is wall time the job sat idle because no viable
	// placement existed — spares exhausted, waiting for a repair (or for an
	// elastic shrink decision). Previously folded into RecoveryFixed; split
	// out because degraded-mode policy choices trade exactly this bucket
	// against DegradedUseful throughput.
	WaitingForCapacity vclock.Time
	// Recoveries counts failure-recovery episodes.
	Recoveries int
	// Checkpoints counts checkpoints taken.
	Checkpoints int
	// DegradedIters counts iterations executed at reduced data-parallel
	// width (elastic degraded mode).
	DegradedIters int
	// DegradedUseful is the portion of Useful spent at reduced width. It is
	// an informational sub-bucket of Useful, not an additional wasted
	// bucket: degraded iterations still make full forward progress.
	DegradedUseful vclock.Time
}

// Wasted returns total wasted wall time.
func (a *Accounting) Wasted() vclock.Time {
	return a.CkptStall + a.RecoveryFixed + a.RedoWork + a.WaitingForCapacity
}

// WastedFraction returns wasted/(useful+wasted), the paper's w_f.
func (a *Accounting) WastedFraction() float64 {
	total := a.Useful + a.Wasted()
	if total <= 0 {
		return 0
	}
	return float64(a.Wasted()) / float64(total)
}

// String summarizes the accounting.
func (a *Accounting) String() string {
	s := fmt.Sprintf("useful=%v ckpt=%v fixed=%v redo=%v wait=%v (wf=%.3f%%, %d recoveries, %d ckpts)",
		a.Useful, a.CkptStall, a.RecoveryFixed, a.RedoWork, a.WaitingForCapacity,
		100*a.WastedFraction(), a.Recoveries, a.Checkpoints)
	if a.DegradedIters > 0 {
		s += fmt.Sprintf(" degraded=%d iters/%v", a.DegradedIters, a.DegradedUseful)
	}
	return s
}

// Phase is one named step of a breakdown (a Table 7 row).
type Phase struct {
	Name string
	Dur  vclock.Time
}

// PhaseTimer records a sequence of named phases against a virtual clock.
// When the environment carries a trace recorder, every marked phase is
// also emitted as a "phase"-category span on the timer's lane, so Table 7
// breakdowns are reconcilable against the trace.
type PhaseTimer struct {
	env    *vclock.Env
	lane   string
	last   vclock.Time
	phases []Phase
}

// NewPhaseTimerLane starts a timer at the current virtual time whose traced
// phase spans land on the given lane (e.g. a per-rank lane for recovery
// breakdowns).
func NewPhaseTimerLane(env *vclock.Env, lane string) *PhaseTimer {
	return &PhaseTimer{env: env, lane: lane, last: env.Now()}
}

// Mark closes the current phase under name.
func (t *PhaseTimer) Mark(name string) {
	now := t.env.Now()
	t.phases = append(t.phases, Phase{Name: name, Dur: now - t.last})
	if rec := trace.Of(t.env); rec != nil {
		rec.Begin(t.last, "phase", t.lane, name).End(now)
	}
	t.last = now
}

// Skip discards time since the last mark without recording a phase (used
// to exclude coordination barriers from per-rank work measurements).
func (t *PhaseTimer) Skip() { t.last = t.env.Now() }

// Sum returns the total of recorded phase durations (excluding skipped
// intervals).
func (t *PhaseTimer) Sum() vclock.Time {
	var d vclock.Time
	for _, ph := range t.phases {
		d += ph.Dur
	}
	return d
}

// Phases returns the recorded phases in order.
func (t *PhaseTimer) Phases() []Phase { return t.phases }

// Get returns the duration of a named phase (0 if absent); if the name
// repeats, durations sum.
func (t *PhaseTimer) Get(name string) vclock.Time {
	var d vclock.Time
	for _, ph := range t.phases {
		if ph.Name == name {
			d += ph.Dur
		}
	}
	return d
}

// Table renders paper-style fixed-width text tables.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case vclock.Time:
			row[i] = fmt.Sprintf("%.2f", v.Sec())
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	cols := len(t.Headers)
	widths := make([]int, cols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < cols && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
		}
		sb.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}
