// Package trace is the simulation-wide structured event recorder: a
// deterministic, vclock-timestamped span/instant log with per-rank and
// per-device lanes, recorded by the hot layers (vclock, gpu, nccl,
// checkpoint, peerckpt, failure, intercept, train, core) when a Recorder
// is attached to the run's vclock.Env.
//
// Design constraints, in order:
//
//   - Off by default, nil-safe everywhere: every emit site goes through
//     trace.Of(env) (or a cached *Recorder), and every Recorder method is
//     a no-op on a nil receiver, so the layers carry permanent one-line
//     emit calls with zero configuration.
//
//   - Must not perturb the simulation: recording never sleeps, never
//     touches the environment's random source, and never blocks, so a
//     traced run is bit-identical (virtual times, RNG stream, loss
//     trajectory) to an untraced one.
//
//   - Deterministic: the simulation kernel runs exactly one process at a
//     time, so appends happen in a deterministic total order; each event
//     is stamped with (virtual time, append sequence), and both exporters
//     emit byte-identical output for identical runs.
//
// The taxonomy is small and stable — categories name the emitting layer
// ("sched", "gpu", "cuda", "nccl", "ckpt", "peer", "fail", "dog",
// "train", "phase", "core"), lanes name where the event happened
// ("rank3", "n1.g0", or "sim" for global events), and args are
// preformatted key=value string pairs.
//
// A Recorder can additionally stream: SetSink installs an EventSink that
// observes every event at record time (including events spliced in by
// Merge, after renumbering), and SetRetain(false) turns the recorder into
// a pure streaming tap that keeps no log — bounded memory for
// long-running serving, at the price of post-hoc export. The sink runs
// synchronously on the simulation goroutine and must never touch the
// environment, so streaming cannot perturb virtual time.
package trace

import (
	"fmt"
	"strconv"

	"jitckpt/internal/vclock"
)

// LaneSim is the lane for events not tied to a rank or device.
const LaneSim = "sim"

// Rank returns the lane name for a training rank.
func Rank(r int) string { return "rank" + strconv.Itoa(r) }

// Arg is one preformatted key/value annotation on an event.
type Arg struct {
	K, V string
}

// Ev is one recorded event. Ph follows the Chrome trace-event phase
// letters: 'B' span begin, 'E' span end, 'i' instant. An 'E' event
// repeats its begin's identity fields and carries Ref = the begin's Seq.
type Ev struct {
	T    vclock.Time
	Seq  uint64
	Run  int
	Ph   byte
	Cat  string
	Lane string
	Name string
	Args []Arg
	Ref  uint64 // for 'E': Seq of the matching 'B'
}

// EventSink observes events as they are recorded. The pointer is only
// valid for the duration of the call: implementations must copy the Ev
// (or the fields they need) and must not mutate it. Sinks are called on
// the goroutine doing the recording — inside a simulation that is the
// simulation goroutine itself — and must never touch the simulation
// environment (no sleeps, no RNG, no virtual time), so an attached sink
// leaves the run bit-identical.
type EventSink interface {
	Event(ev *Ev)
}

// FilteringSink is an EventSink that consumes only some event
// categories. A retention-free Recorder uses the advertised set to skip
// formatting and forwarding events no one will ever read — with a
// category-filtered live sink attached, excluded categories cost one map
// probe instead of an arg-formatting pass. The returned map must be
// treated as immutable once the sink is attached (the recorder probes it
// on every event); nil means the sink consumes everything.
type FilteringSink interface {
	EventSink
	SinkCats() map[string]bool
}

// Recorder accumulates events for one or more simulation runs. It is not
// safe for concurrent use from outside a simulation; inside one, the
// vclock kernel's one-process-at-a-time execution makes appends safe.
type Recorder struct {
	evs []Ev
	seq uint64
	run int

	sink     EventSink
	sinkCats map[string]bool // FilteringSink's category set (nil = all)
	sinkMay  [256]bool       // first bytes of sinkCats keys: pre-filter before hashing
	noRetain bool            // stream-only: count and forward events, keep no log
	nonEmpty bool            // at least one event recorded since New
	scratch  Ev              // stream-only staging slot, avoids per-event heap escapes
}

// New creates an empty Recorder.
func New() *Recorder { return &Recorder{run: 1} }

// SetSink installs (or, with nil, removes) a streaming sink that will see
// every subsequent event. Installing a sink does not change what is
// recorded, so a run with a sink attached stays byte-identical. A
// FilteringSink additionally lets a retention-free recorder elide events
// in categories the sink ignores (sequence numbering still advances
// identically, so the observable trace is unchanged).
func (r *Recorder) SetSink(s EventSink) {
	if r == nil {
		return
	}
	r.sink = s
	r.sinkCats = nil
	r.sinkMay = [256]bool{}
	if fs, ok := s.(FilteringSink); ok {
		r.sinkCats = fs.SinkCats()
		for c := range r.sinkCats {
			if len(c) > 0 {
				r.sinkMay[c[0]] = true
			}
		}
	}
}

// SetRetain toggles log retention (default on). With retention off the
// recorder becomes a pure streaming tap: sequence and run numbering
// advance exactly as usual, the sink sees every event, but Len stays 0
// and the exporters have nothing to export — bounded memory for
// long-running serving. A retain-off recorder is not a valid Merge
// source (it has no log to splice).
func (r *Recorder) SetRetain(on bool) {
	if r == nil {
		return
	}
	r.noRetain = !on
}

// BeginRun marks the start of a new simulation run sharing this recorder
// (virtual time restarts at zero per run; exporters keep runs apart).
// The first run is implicit, so single-run users never call this.
func (r *Recorder) BeginRun(label string) {
	if r == nil {
		return
	}
	if r.nonEmpty {
		r.run++
	}
	r.emit(0, 'i', "core", LaneSim, "run-begin", []Arg{{"label", label}})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.evs)
}

// Events returns the raw event log in record order.
func (r *Recorder) Events() []Ev {
	if r == nil {
		return nil
	}
	return r.evs
}

// Merge appends src's events to r, renumbering sequence numbers and run
// IDs exactly as if src's runs had been recorded into r directly (the
// first merged run advances r's run counter iff r already holds events,
// mirroring BeginRun). It lets a parallel sweep record each run into a
// private recorder and splice the results together in serial order,
// producing output byte-identical to a serial sweep.
func (r *Recorder) Merge(src *Recorder) {
	if r == nil || src == nil || len(src.evs) == 0 {
		return
	}
	runOff := 0
	if r.nonEmpty {
		// src's first run-begin would have found a non-empty log and
		// incremented the run counter.
		runOff = r.run
	}
	seqOff := r.seq
	for _, ev := range src.evs {
		ev.Seq += seqOff
		if ev.Ref != 0 {
			ev.Ref += seqOff
		}
		ev.Run += runOff
		r.record(ev)
	}
	r.seq += src.seq
	r.run = runOff + src.run
}

// record is the single funnel for every event: appends (unless retention
// is off) and forwards to the sink. The sink is handed a pointer into the
// log (or the scratch slot) so the hot path stays allocation-free.
func (r *Recorder) record(ev Ev) {
	r.nonEmpty = true
	if !r.noRetain {
		r.evs = append(r.evs, ev)
		if r.sink != nil {
			r.sink.Event(&r.evs[len(r.evs)-1])
		}
		return
	}
	if r.sink != nil {
		if r.sinkCats != nil && !r.sinkCats[ev.Cat] {
			return
		}
		r.scratch = ev
		r.sink.Event(&r.scratch)
	}
}

// elides reports that an event in cat would go nowhere: retention is off
// and the attached sink filters the category out. Emitters then skip arg
// formatting and the record call entirely — the dominant cost of leaving
// a live tap on a chatty simulation — while still advancing seq and
// nonEmpty exactly as a recording emit would, so numbering (and with it
// every retained or streamed trace) is bit-identical whether or not the
// fast path ran. The first-byte table settles most probes without
// hashing: no consumed category starts with that byte, so the event
// cannot be in the set — on a per-kernel simulation that is the bulk of
// the traffic ("gpu", "nccl", "sched") deciding in one array load.
func (r *Recorder) elides(cat string) bool {
	if !r.noRetain || r.sinkCats == nil {
		return false
	}
	if len(cat) > 0 && !r.sinkMay[cat[0]] {
		return true
	}
	return !r.sinkCats[cat]
}

// skip is the elided-event counterpart of emit.
func (r *Recorder) skip() uint64 {
	r.seq++
	r.nonEmpty = true
	return r.seq
}

func (r *Recorder) emit(t vclock.Time, ph byte, cat, lane, name string, args []Arg) uint64 {
	r.seq++
	r.record(Ev{T: t, Seq: r.seq, Run: r.run, Ph: ph, Cat: cat, Lane: lane, Name: name, Args: args})
	return r.seq
}

// Span is a handle for an open span; End closes it. The zero Span (from a
// nil Recorder) is inert.
type Span struct {
	r   *Recorder
	ref uint64
	run int

	cat, lane, name string
}

// Begin opens a span at time t on the given lane. Args are alternating
// key, value pairs (values are formatted immediately).
func (r *Recorder) Begin(t vclock.Time, cat, lane, name string, kv ...interface{}) Span {
	if r == nil {
		return Span{}
	}
	if r.elides(cat) {
		return Span{r: r, ref: r.skip(), run: r.run, cat: cat, lane: lane, name: name}
	}
	ref := r.emit(t, 'B', cat, lane, name, fmtArgs(kv))
	return Span{r: r, ref: ref, run: r.run, cat: cat, lane: lane, name: name}
}

// End closes the span at time t. Ending a zero Span is a no-op; ending a
// span twice records a second (harmless, query-ignored) end event. The
// end event carries the run the span *began* in, not the recorder's
// current run counter: a destination-recorder span held open across a
// Merge (which advances the counter past the spliced runs) must still
// pair with its begin in the right run.
func (s Span) End(t vclock.Time, kv ...interface{}) {
	if s.r == nil {
		return
	}
	r := s.r
	if r.elides(s.cat) {
		r.skip()
		return
	}
	r.seq++
	r.record(Ev{T: t, Seq: r.seq, Run: s.run, Ph: 'E',
		Cat: s.cat, Lane: s.lane, Name: s.name, Args: fmtArgs(kv), Ref: s.ref})
}

// Instant records a point event at time t.
func (r *Recorder) Instant(t vclock.Time, cat, lane, name string, kv ...interface{}) {
	if r == nil {
		return
	}
	if r.elides(cat) {
		r.skip()
		return
	}
	r.emit(t, 'i', cat, lane, name, fmtArgs(kv))
}

// ProcStart implements vclock.ProcRecorder.
func (r *Recorder) ProcStart(t vclock.Time, id int, name string) {
	if r == nil {
		return
	}
	if r.elides("sched") {
		r.skip()
		return
	}
	r.emit(t, 'i', "sched", LaneSim, "proc-start", []Arg{{"id", strconv.Itoa(id)}, {"proc", name}})
}

// ProcEnd implements vclock.ProcRecorder.
func (r *Recorder) ProcEnd(t vclock.Time, id int, name string) {
	if r == nil {
		return
	}
	if r.elides("sched") {
		r.skip()
		return
	}
	r.emit(t, 'i', "sched", LaneSim, "proc-end", []Arg{{"id", strconv.Itoa(id)}, {"proc", name}})
}

// ProcDispatches implements vclock.DispatchRecorder: it records nothing and
// hands the count on to the sink, when the sink is a DispatchRecorder too.
func (r *Recorder) ProcDispatches(id int, name string, callback, coroutine uint64) {
	if r == nil {
		return
	}
	if dr, ok := r.sink.(vclock.DispatchRecorder); ok {
		dr.ProcDispatches(id, name, callback, coroutine)
	}
}

// Of returns the Recorder attached to env, or nil (an inert recorder)
// when tracing is off or env is nil.
func Of(env *vclock.Env) *Recorder {
	if env == nil {
		return nil
	}
	r, _ := env.Recorder().(*Recorder)
	return r
}

// Attach installs r on env (a convenience wrapper so callers outside the
// vclock package need no type gymnastics). A nil r detaches.
func Attach(env *vclock.Env, r *Recorder) {
	if r == nil {
		env.SetRecorder(nil)
		return
	}
	env.SetRecorder(r)
}

// fmtArgs converts alternating key, value pairs into formatted Args.
func fmtArgs(kv []interface{}) []Arg {
	if len(kv) == 0 {
		return nil
	}
	args := make([]Arg, 0, (len(kv)+1)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		args = append(args, Arg{K: fmt.Sprint(kv[i]), V: fmt.Sprint(kv[i+1])})
	}
	if len(kv)%2 == 1 {
		args = append(args, Arg{K: fmt.Sprint(kv[len(kv)-1]), V: ""})
	}
	return args
}
