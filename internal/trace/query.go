package trace

import (
	"fmt"
	"sort"

	"jitckpt/internal/vclock"
)

// SpanRec is a paired (or still-open) span reconstructed from the log.
type SpanRec struct {
	Run        int
	Start, End vclock.Time
	Open       bool // no matching end event
	Cat        string
	Lane       string
	Name       string
	Args       map[string]string // begin args, end args layered on top
	Seq        uint64            // begin event's sequence number
}

// Dur returns the span's duration (0 for open spans).
func (s SpanRec) Dur() vclock.Time {
	if s.Open {
		return 0
	}
	return s.End - s.Start
}

// InstRec is an instant event.
type InstRec struct {
	Run  int
	T    vclock.Time
	Cat  string
	Lane string
	Name string
	Args map[string]string
	Seq  uint64
}

// Query is an indexed view over a Recorder's log, for assertions.
type Query struct {
	spans    []SpanRec
	instants []InstRec
	last     vclock.Time
	runs     int
}

// NewQuery pairs span begins/ends and indexes instants. It tolerates
// open spans (runs cut off at the horizon legitimately leave some).
func NewQuery(r *Recorder) *Query {
	q := &Query{runs: 1}
	evs := r.Events()
	open := make(map[uint64]int) // begin seq -> index in q.spans
	for i := range evs {
		ev := &evs[i]
		if ev.T > q.last {
			q.last = ev.T
		}
		if ev.Run > q.runs {
			q.runs = ev.Run
		}
		switch ev.Ph {
		case 'B':
			open[ev.Seq] = len(q.spans)
			q.spans = append(q.spans, SpanRec{
				Run: ev.Run, Start: ev.T, Open: true,
				Cat: ev.Cat, Lane: ev.Lane, Name: ev.Name,
				Args: argMap(ev.Args), Seq: ev.Seq,
			})
		case 'E':
			idx, ok := open[ev.Ref]
			if !ok {
				continue // duplicate end
			}
			delete(open, ev.Ref)
			sp := &q.spans[idx]
			sp.Open = false
			sp.End = ev.T
			for _, a := range ev.Args {
				if sp.Args == nil {
					sp.Args = make(map[string]string)
				}
				sp.Args[a.K] = a.V
			}
		case 'i':
			q.instants = append(q.instants, InstRec{
				Run: ev.Run, T: ev.T, Cat: ev.Cat, Lane: ev.Lane, Name: ev.Name,
				Args: argMap(ev.Args), Seq: ev.Seq,
			})
		}
	}
	return q
}

// Runs returns the number of simulation runs in the log.
func (q *Query) Runs() int { return q.runs }

// Spans returns spans matching category and name ("" matches any).
func (q *Query) Spans(cat, name string) []SpanRec {
	var out []SpanRec
	for _, s := range q.spans {
		if (cat == "" || s.Cat == cat) && (name == "" || s.Name == name) {
			out = append(out, s)
		}
	}
	return out
}

// Instants returns instants matching category and name ("" matches any).
func (q *Query) Instants(cat, name string) []InstRec {
	var out []InstRec
	for _, in := range q.instants {
		if (cat == "" || in.Cat == cat) && (name == "" || in.Name == name) {
			out = append(out, in)
		}
	}
	return out
}

// SpanSums sums closed-span durations by name for one category and lane
// ("" lane matches any).
func (q *Query) SpanSums(cat, lane string) map[string]vclock.Time {
	out := make(map[string]vclock.Time)
	for _, s := range q.spans {
		if s.Cat != cat || s.Open || (lane != "" && s.Lane != lane) {
			continue
		}
		out[s.Name] += s.Dur()
	}
	return out
}

// overlaps reports strict interval overlap (touching endpoints do not
// overlap: a checkpoint may begin exactly when an optimizer step ends).
func overlaps(a, b SpanRec) bool {
	return a.Start < b.End && b.Start < a.End
}

// CheckInvariants verifies the event-ordering guarantees the recovery
// mechanisms depend on (§3, §4 of the paper), per run:
//
//  1. Mutation/checkpoint exclusion: no completed optimizer step
//     (train/opt-step) overlaps an in-flight checkpoint serialization
//     (ckpt/pc-save or ckpt/jit-save) on the same rank. Open optimizer
//     steps are skipped: an interrupted step never completed its
//     mutation and is exactly the §4.2.2 roll-forward case. Saves fully
//     contained in a transparent-recovery episode (core/recovery span)
//     are also exempt: the coordinator quiesces all device work for the
//     episode's duration, while a parked healthy worker's optimizer-step
//     span stays open across it and only closes after resuming — the
//     worker-side span then brackets the save without any concurrent
//     device mutation. A save that leaks past the episode's end is still
//     a violation.
//
//  2. Every recovery episode ends in a restore from a valid generation:
//     (a) every successful transparent-recovery episode (core/recovery
//     span ending ok=true) contains at least one valid restore
//     (ckpt/restore-done with valid=true — from a checkpoint generation,
//     a host copy, or a peer replica); (b) every restarted incarnation
//     (core/incarnation span with gen > 0) that resumed training (a
//     train/iter span began inside it) first either completed a valid
//     restore or explicitly fell back to a fresh start (a ckpt/restore
//     span closed with an err annotation — the no-usable-generation
//     case).
//
//  3. JIT checkpoints are just-in-time: every ckpt/jit-save span begins
//     at or after a failure-detection instant of the same run.
//
//  4. Well-formedness: event times never exceed the log's wall time and
//     every closed span has End >= Start.
//
//  5. Elastic world-size changes happen only inside a recovery episode:
//     every elastic/shrink instant follows a failure detection of the
//     same run, every elastic/expand instant follows a node-repaired
//     injection, and adjacent core/incarnation spans whose "world" args
//     differ have an elastic shrink or expand instant between their
//     starts.
//
//  6. Elastic transitions are well-ordered per run: expand and
//     end-degraded require a preceding unmatched shrink (shrinks may
//     nest — deeper degradation — and one expand restores full width),
//     nothing follows end-degraded, and a run whose core/run span closed
//     while still degraded must have declared it with an explicit
//     elastic/end-degraded instant.
//
//  7. Multi-step restores come only from committed generations: every
//     ckpt/restore-done instant with valid=true and src=multistep at
//     iteration I is preceded by a ckpt/ms-gen-commit instant of the
//     same run with iter=I. A generation interrupted mid-slice-write
//     never writes its commit record, so a partial generation can never
//     satisfy this — restoring one is exactly the violation.
//
//  8. Checkpoint-free stage rebuilds resolve: once a pipe/stage-rebuild
//     span begins in a finished run, the run must later contain either a
//     valid restore (ckpt/restore-done with valid=true at or after the
//     rebuild's start) or an explicit fallback (a ckpt/restore span
//     closed with an err annotation) — a rebuild episode never ends in a
//     silent half-rebuilt stage.
//
// It returns nil when every invariant holds, or an error naming the
// first violation of each kind.
func CheckInvariants(q *Query) error {
	var errs []error

	// (4) well-formedness.
	for _, s := range q.spans {
		if !s.Open && s.End < s.Start {
			errs = append(errs, fmt.Errorf("span %s/%s on %s ends before it starts (%v < %v)",
				s.Cat, s.Name, s.Lane, s.End, s.Start))
			break
		}
	}

	// (1) mutation/checkpoint exclusion per (run, lane).
	type key struct {
		run  int
		lane string
	}
	episodes := q.Spans("core", "recovery")
	quiesced := func(s SpanRec) bool {
		for _, ep := range episodes {
			if ep.Run == s.Run && !ep.Open && s.Start >= ep.Start && s.End <= ep.End {
				return true
			}
		}
		return false
	}
	saves := make(map[key][]SpanRec)
	for _, name := range []string{"pc-save", "jit-save"} {
		for _, s := range q.Spans("ckpt", name) {
			if !s.Open && quiesced(s) {
				continue // device work is quiesced for the episode
			}
			saves[key{s.Run, s.Lane}] = append(saves[key{s.Run, s.Lane}], s)
		}
	}
	if len(saves) > 0 {
	overlap:
		for _, o := range q.Spans("train", "opt-step") {
			if o.Open {
				continue
			}
			for _, s := range saves[key{o.Run, o.Lane}] {
				if s.Open {
					continue
				}
				if overlaps(o, s) {
					errs = append(errs, fmt.Errorf(
						"run %d %s: optimizer step [%v,%v] overlaps %s [%v,%v]",
						o.Run, o.Lane, o.Start, o.End, s.Name, s.Start, s.End))
					break overlap
				}
			}
		}
	}

	// (2) every recovery episode ends in a restore from a valid generation.
	detections := q.Instants("fail", "detected")
	restores := q.Instants("ckpt", "restore-done")
	iters := q.Spans("train", "iter")
	// (2a) successful transparent-recovery episodes contain a valid restore.
	for _, ep := range q.Spans("core", "recovery") {
		if ep.Open || ep.Args["ok"] != "true" {
			continue
		}
		ok := false
		for _, r := range restores {
			if r.Run == ep.Run && r.T >= ep.Start && r.T <= ep.End && r.Args["valid"] == "true" {
				ok = true
				break
			}
		}
		if !ok {
			errs = append(errs, fmt.Errorf(
				"run %d: recovery episode [%v,%v] succeeded without a valid restore",
				ep.Run, ep.Start, ep.End))
			break
		}
	}
	// (2b) restarted incarnations restore (or acknowledge the fallback)
	// before resuming training.
	restoreSpans := q.Spans("ckpt", "restore")
incarnation:
	for _, inc := range q.Spans("core", "incarnation") {
		if inc.Args["gen"] == "" || inc.Args["gen"] == "0" {
			continue
		}
		incEnd := inc.End
		if inc.Open {
			incEnd = q.last
		}
		// First training iteration inside this incarnation.
		var firstIter vclock.Time = -1
		for _, it := range iters {
			if it.Run == inc.Run && it.Start >= inc.Start && it.Start <= incEnd &&
				(firstIter < 0 || it.Start < firstIter) {
				firstIter = it.Start
			}
		}
		if firstIter < 0 {
			continue // never resumed training: nothing to check
		}
		for _, r := range restores {
			if r.Run == inc.Run && r.T >= inc.Start && r.T <= firstIter && r.Args["valid"] == "true" {
				continue incarnation
			}
		}
		for _, rs := range restoreSpans {
			if rs.Run == inc.Run && !rs.Open && rs.End >= inc.Start && rs.End <= firstIter &&
				rs.Args["err"] != "" {
				continue incarnation // explicit fresh-start fallback
			}
		}
		errs = append(errs, fmt.Errorf(
			"run %d: incarnation gen=%s resumed training at %v without a restore",
			inc.Run, inc.Args["gen"], firstIter))
		break
	}

	// (3) JIT saves begin after detection.
	for _, s := range q.Spans("ckpt", "jit-save") {
		ok := false
		for _, d := range detections {
			if d.Run == s.Run && d.T <= s.Start {
				ok = true
				break
			}
		}
		if !ok {
			errs = append(errs, fmt.Errorf(
				"run %d %s: jit-save at %v precedes every failure detection",
				s.Run, s.Lane, s.Start))
			break
		}
	}

	// (5) elastic transitions happen only inside recovery episodes.
	shrinks := q.Instants("elastic", "shrink")
	expands := q.Instants("elastic", "expand")
	for _, s := range shrinks {
		ok := false
		for _, d := range detections {
			if d.Run == s.Run && d.T <= s.T {
				ok = true
				break
			}
		}
		if !ok {
			errs = append(errs, fmt.Errorf(
				"run %d: elastic shrink at %v precedes every failure detection", s.Run, s.T))
			break
		}
	}
	injects := q.Instants("fail", "inject")
	for _, e := range expands {
		ok := false
		for _, in := range injects {
			if in.Run == e.Run && in.T <= e.T && in.Args["kind"] == "node-repaired" {
				ok = true
				break
			}
		}
		if !ok {
			errs = append(errs, fmt.Errorf(
				"run %d: elastic expand at %v without a prior node-repaired injection", e.Run, e.T))
			break
		}
	}
	transitions := append(append([]InstRec(nil), shrinks...), expands...)
	incsByRun := make(map[int][]SpanRec)
	for _, inc := range q.Spans("core", "incarnation") {
		incsByRun[inc.Run] = append(incsByRun[inc.Run], inc)
	}
worlds:
	for run := 1; run <= q.runs; run++ {
		incs := incsByRun[run]
		for i := 1; i < len(incs); i++ {
			a, b := incs[i-1], incs[i]
			if a.Args["world"] == "" || b.Args["world"] == "" || a.Args["world"] == b.Args["world"] {
				continue
			}
			ok := false
			for _, t := range transitions {
				if t.Run == run && t.T >= a.Start && t.T <= b.Start {
					ok = true
					break
				}
			}
			if !ok {
				errs = append(errs, fmt.Errorf(
					"run %d: world size changed %s->%s between incarnations at %v and %v without an elastic transition",
					run, a.Args["world"], b.Args["world"], a.Start, b.Start))
				break worlds
			}
		}
	}

	// (6) elastic transitions alternate correctly per run.
	elastics := append(append([]InstRec(nil), transitions...), q.Instants("elastic", "end-degraded")...)
	sort.Slice(elastics, func(i, j int) bool { return elastics[i].Seq < elastics[j].Seq })
	closedRun := make(map[int]bool)
	for _, rs := range q.Spans("core", "run") {
		if !rs.Open {
			closedRun[rs.Run] = true
		}
	}
alternation:
	for run := 1; run <= q.runs; run++ {
		depth, ended := 0, false
		for _, ev := range elastics {
			if ev.Run != run {
				continue
			}
			if ended {
				errs = append(errs, fmt.Errorf(
					"run %d: elastic %s at %v after end-degraded", run, ev.Name, ev.T))
				break alternation
			}
			switch ev.Name {
			case "shrink":
				depth++
			case "expand":
				if depth == 0 {
					errs = append(errs, fmt.Errorf(
						"run %d: elastic expand at %v without a prior shrink", run, ev.T))
					break alternation
				}
				depth = 0
			case "end-degraded":
				if depth == 0 {
					errs = append(errs, fmt.Errorf(
						"run %d: end-degraded at %v while at full width", run, ev.T))
					break alternation
				}
				ended = true
			}
		}
		if depth > 0 && !ended && closedRun[run] {
			errs = append(errs, fmt.Errorf(
				"run %d: run finished degraded without an expand or end-degraded", run))
			break
		}
	}

	// (7) multi-step restores come only from committed generations.
	msCommits := q.Instants("ckpt", "ms-gen-commit")
	for _, r := range restores {
		if r.Args["valid"] != "true" || r.Args["src"] != "multistep" {
			continue
		}
		ok := false
		for _, c := range msCommits {
			if c.Run == r.Run && c.T <= r.T && c.Args["iter"] == r.Args["iter"] {
				ok = true
				break
			}
		}
		if !ok {
			errs = append(errs, fmt.Errorf(
				"run %d %s: multi-step restore of iter %s at %v without a committed generation",
				r.Run, r.Lane, r.Args["iter"], r.T))
			break
		}
	}

	// (8) stage-rebuild episodes end in a verified restore or an explicit
	// fallback (only enforced for runs whose core/run span closed — a log
	// cut at the horizon legitimately leaves rebuilds unresolved).
	closedRuns := make(map[int]bool)
	for _, rs := range q.Spans("core", "run") {
		if !rs.Open {
			closedRuns[rs.Run] = true
		}
	}
rebuilds:
	for _, rb := range q.Spans("pipe", "stage-rebuild") {
		if !closedRuns[rb.Run] {
			continue
		}
		for _, r := range restores {
			if r.Run == rb.Run && r.T >= rb.Start && r.Args["valid"] == "true" {
				continue rebuilds
			}
		}
		for _, rs := range restoreSpans {
			if rs.Run == rb.Run && !rs.Open && rs.End >= rb.Start && rs.Args["err"] != "" {
				continue rebuilds
			}
		}
		errs = append(errs, fmt.Errorf(
			"run %d %s: stage rebuild at %v never resolved into a restore or fallback",
			rb.Run, rb.Lane, rb.Start))
		break
	}

	if len(errs) == 0 {
		return nil
	}
	msg := "trace invariants violated:"
	for _, e := range errs {
		msg += "\n  " + e.Error()
	}
	return fmt.Errorf("%s", msg)
}

// ReconcileAccounting checks that the scalar accounting a run reported
// agrees with the trace: useful + wasted must equal the traced wall time
// (the run's core/run span when present, else the last event time).
// Callers pass the values from metrics.Accounting; the signature takes
// plain times to keep trace free of a metrics dependency.
func ReconcileAccounting(q *Query, useful, wasted, wall vclock.Time) error {
	if useful < 0 || wasted < 0 {
		return fmt.Errorf("negative accounting: useful=%v wasted=%v", useful, wasted)
	}
	if got := useful + wasted; got != wall {
		return fmt.Errorf("accounting does not reconcile: useful %v + wasted %v = %v, wall %v",
			useful, wasted, got, wall)
	}
	if runs := q.Spans("core", "run"); len(runs) == 1 && !runs[0].Open {
		if runs[0].End-runs[0].Start != wall {
			return fmt.Errorf("traced run span %v disagrees with wall time %v",
				runs[0].End-runs[0].Start, wall)
		}
	}
	return nil
}
