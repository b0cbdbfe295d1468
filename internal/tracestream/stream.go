// Package tracestream is the live streaming layer over the trace
// recorder: where internal/trace is post-hoc (run to completion, then
// export), tracestream observes events as they are recorded and keeps
// bounded, incrementally-maintained state an HTTP server can snapshot
// while the simulation is still running.
//
// The pipeline (after datadog-agent's pkg/gpu shape — per-stream
// handlers feeding spans into an aggregator a stats generator flushes):
//
//	Recorder ──SetSink──▶ Stream.Event
//	   │ category filter (lock-free; narrative cats in, kernel noise out —
//	   │                  and a retention-free Recorder elides excluded
//	   │                  cats before formatting, via trace.FilteringSink)
//	   │ staging batch (amortizes the aggregator's cache footprint;
//	   │                drained by every snapshot, so reads see everything)
//	   │ span finalizer (open spans close as end events arrive into a
//	   │                 per-job bounded, drop-oldest ring with an exact
//	   │                 dropped count; long-running spans surface as
//	   │                 in-progress)
//	   └ two-level aggregator
//	        per-job   : phase sums and the authoritative final rollup
//	                    from the run's core/acct instant — exactly
//	                    metrics.Accounting, never recomputed
//	        per-fleet : windowed rates, spare-pool level (cluster/pool),
//	                    recovery episodes, and the final cluster/fleet-acct
//	                    rollup mirroring cluster.Result
//
// The stream holds what /metrics, /fleet and /jobs/{id}/timeline serve and
// nothing else. Detail is bounded: span history is capped per job
// (spanCap), and only the last runWindow runs keep any as a sweep streams
// run after run through one Stream — summaries and finals are kept
// forever, and evicted buffers are recycled so a long-lived stream stops
// allocating.
//
// Two properties make it safe to leave on:
//
//   - Zero perturbation: the sink runs synchronously on the simulation
//     goroutine, never touches the environment, and drops (span-ring
//     eviction) rather than blocks when nobody reads. A streamed run
//     is byte-identical to a plain one (the differential suite in core
//     and cluster pins this for every golden policy).
//
//   - Streaming is a view, never a second source of truth: live phase
//     sums are estimates for operators, but the final per-job and fleet
//     rollups are parsed from authoritative instants the harness and
//     cluster emit from the same variables their results are built from,
//     so the aggregator's finals equal the post-hoc numbers exactly.
//
// Snapshots are lock-brief: Stream holds one mutex during event ingest
// (nanoseconds: a few map updates) and during snapshot
// copies; JSON encoding happens outside the lock.
package tracestream

import (
	"sort"
	"strconv"
	"sync"

	"jitckpt/internal/metrics"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// Options is empty: nothing ever set a field of it, so the bounds below
// are constants. The type and New's parameter stay only because benchmark/
// (frozen, see DESIGN.md "Stale text in benchmark/") spells
// tracestream.New(tracestream.Options{}); both go when it is re-based.
type Options struct{}

const (
	// spanCap is each job's recent-finalized-span ring capacity.
	spanCap = 512
	// windowWidth is the rollup window in virtual time: rates are
	// recomputed incrementally per window, not by rescanning.
	windowWidth = vclock.Second
	// runWindow is how many recent runs keep timeline detail (open spans
	// and finalized-span history): the streaming run and the one before it.
	// When a sweep streams hundreds of runs through one Stream this is what
	// bounds memory: older runs' detail is evicted (counted as dropped, like
	// any other truncation) while their job summaries and authoritative
	// finals are kept forever.
	runWindow = 2
)

// narrativeCats is the category set the stream ingests: run/recovery
// structure, training progress, checkpoint activity, failures, and the
// cluster timeline — everything the aggregator rolls up, nothing the
// per-kernel simulation spams (gpu/cuda/nccl noise is ~30× the narrative
// volume, and the golden traces filter to the same narrative for the same
// reason). Per-rank peer-shelter transport ("peer") is excluded like the
// other transport noise: its outcome reaches the stream exactly through
// the final accounting instant. Filtering happens before the stream's
// mutex, so an excluded event costs one probe of this never-mutated map —
// that is what keeps the live tap within its overhead budget.
var narrativeCats = map[string]bool{
	"core": true, "train": true, "ckpt": true, "fail": true,
	"phase": true, "elastic": true, "cluster": true,
}

type jobKey struct {
	run   int
	label string
}

type phaseKey struct {
	cat, name string
}

type openSpan struct {
	seq             uint64
	t               vclock.Time
	run             int
	cat, lane, name string
	args            []trace.Arg
	job             *jobState
}

// SpanView is one finalized (or in-progress) span as the stream saw it.
type SpanView struct {
	Run             int
	Cat, Lane, Name string
	Start, End      vclock.Time
	Open            bool
	BeginArgs       []trace.Arg
	EndArgs         []trace.Arg
}

// window accumulates one fleet-level rollup window's counters; rolling
// past the window boundary snapshots it and resets, so rates never rescan.
type window struct {
	Start       vclock.Time
	Events      int
	SpansClosed int
	// Useful is train/iter span time closed in the window, summed across
	// ranks (i.e. GPU-time, not wall time).
	Useful vclock.Time
}

func (w *window) roll(t vclock.Time, last *window) {
	if t >= w.Start && t < w.Start+windowWidth {
		return
	}
	*last = *w
	*w = window{Start: t - t%windowWidth}
}

type jobState struct {
	key    jobKey
	id     string // "r<run>.<label>"
	policy string
	gpus   int
	iters  int

	done      bool
	completed bool
	haveFinal bool
	wall      vclock.Time
	final     metrics.Accounting

	openSpans    int
	spansClosed  int
	detections   int
	recoveries   int // closed core/recovery spans
	episodes     int // measured recovery-latency episodes (authoritative)
	incarnations int
	phases       map[phaseKey]*phaseAgg
	spans        spanRing
}

// phaseAgg accumulates one (cat, name) phase's closed-span totals. The
// map holds pointers so the per-span update is a single probe and an
// in-place increment — the 'E' hot path hashes each phase key once.
type phaseAgg struct {
	dur vclock.Time
	n   int
}

func (j *jobState) liveUseful() vclock.Time {
	if pa := j.phases[phaseKey{"train", "iter"}]; pa != nil {
		return pa.dur
	}
	return 0
}

// PoolLevel is the spare-pool level at the last cluster/pool instant.
type PoolLevel struct {
	T                vclock.Time `json:"t"`
	Used, Idle, Down int
}

// FleetFinal mirrors cluster.FleetStats, parsed from the authoritative
// cluster/fleet-acct instant cluster.Run emits when the run completes.
type FleetFinal struct {
	Nodes, GPUs                          int
	Wall                                 vclock.Time
	Used, Idle, Down                     vclock.Time
	Goodput                              float64
	JobsCompleted, JobsTotal             int
	Preemptions, RecoveryEpisodes        int
	AppliedInjections, SkippedInjections int
	LatCount                             int
	LatMean, LatP50, LatP95, LatMax      vclock.Time
}

// Stream is the live aggregator; it implements trace.EventSink and is
// safe for concurrent snapshotting while the simulation ingests.
type Stream struct {
	mu sync.Mutex

	// stage batches accepted events ahead of aggregation: Event appends
	// (one contiguous, cache-hot copy) and the map-heavy ingest work runs
	// when the batch fills, amortizing the aggregator's cache footprint
	// across the batch instead of paying cold misses on every simulated
	// event. Every snapshot drains the stage first, so reads always see
	// everything recorded before them — batching is invisible except in
	// the overhead benchmark.
	stage []trace.Ev

	events uint64
	lastT  vclock.Time

	// Run-detail window: runOrder lists the runs whose timeline detail is
	// still retained.
	runOrder []int
	curRun   int

	open map[uint64]openSpan

	jobs        map[jobKey]*jobState
	jobOrder    []*jobState
	byID        map[string]*jobState
	soleJob     map[int]*jobState // run -> its only job; nil once a second registers
	runJobCount map[int]int

	// Recycled span-ring storage from evicted runs: a long-lived Stream
	// reaches steady state after runWindow runs instead of re-growing (and
	// garbage-collecting) every run's rings. The pool only grows when runs
	// are evicted, so it is bounded by the window.
	freeSpan [][]SpanView

	pool       PoolLevel
	havePool   bool
	fleetFinal *FleetFinal

	win, lastWin window
}

// New creates an empty Stream. It attaches to a run as the sink of the
// run's one recorder (Recorder.SetSink); a caller that serves without
// exporting a log makes that recorder retention-free (SetRetain(false)).
func New(Options) *Stream {
	return &Stream{
		stage:       make([]trace.Ev, 0, stageCap),
		open:        make(map[uint64]openSpan),
		jobs:        make(map[jobKey]*jobState),
		byID:        make(map[string]*jobState),
		soleJob:     make(map[int]*jobState),
		runJobCount: make(map[int]int),
	}
}

// SinkCats implements trace.FilteringSink: a retention-free recorder
// uses the advertised set to elide excluded categories before arg
// formatting, so the per-kernel noise a live tap ignores costs the
// simulation almost nothing.
func (s *Stream) SinkCats() map[string]bool { return narrativeCats }

// stageCap is the staging batch size: small enough that the parked
// events (and the arg allocations they reference) are negligible, large
// enough to amortize the aggregator's cache footprint.
const stageCap = 256

// Event implements trace.EventSink. It runs on the simulation goroutine:
// bounded work, no blocking beyond the snapshot mutex, no allocation on
// the warm path (the AllocsPerRun budget test pins this).
func (s *Stream) Event(ev *trace.Ev) {
	// The category filter runs before the lock: an excluded event costs
	// one probe of an immutable map and touches no shared state.
	if !narrativeCats[ev.Cat] {
		return
	}
	s.mu.Lock()
	s.stage = append(s.stage, *ev)
	if len(s.stage) == cap(s.stage) {
		s.drain()
	}
	s.mu.Unlock()
}

// drain aggregates the staged batch. Callers hold s.mu.
func (s *Stream) drain() {
	for i := range s.stage {
		s.ingest(&s.stage[i])
		s.stage[i] = trace.Ev{} // release arg references promptly
	}
	s.stage = s.stage[:0]
}

func (s *Stream) ingest(ev *trace.Ev) {
	s.events++
	if ev.Run != s.curRun {
		s.noteRun(ev.Run)
	}
	if ev.T > s.lastT {
		s.lastT = ev.T
	}
	s.win.roll(ev.T, &s.lastWin)
	s.win.Events++

	switch ev.Ph {
	case 'B':
		job := s.soleJob[ev.Run]
		if ev.Cat == "core" && ev.Name == "run" {
			job = s.registerJob(ev)
		}
		s.open[ev.Seq] = openSpan{
			seq: ev.Seq, t: ev.T, run: ev.Run,
			cat: ev.Cat, lane: ev.Lane, name: ev.Name, args: ev.Args, job: job,
		}
		if job != nil {
			job.openSpans++
			if ev.Cat == "core" && ev.Name == "incarnation" {
				job.incarnations++
			}
		}
	case 'E':
		os, ok := s.open[ev.Ref]
		if !ok {
			return // duplicate end, or the begin predates sink attachment
		}
		delete(s.open, ev.Ref)
		s.win.SpansClosed++
		job := os.job
		if job == nil {
			job = s.soleJob[ev.Run]
		}
		if job == nil {
			return
		}
		dur := ev.T - os.t
		pk := phaseKey{os.cat, os.name}
		job.openSpans--
		job.spansClosed++
		pa := job.phases[pk]
		if pa == nil {
			pa = &phaseAgg{}
			job.phases[pk] = pa
		}
		pa.dur += dur
		pa.n++
		if pk == (phaseKey{"train", "iter"}) {
			s.win.Useful += dur
		}
		if pk == (phaseKey{"core", "recovery"}) {
			job.recoveries++
		}
		job.spans.push(SpanView{
			Run: os.run, Cat: os.cat, Lane: os.lane, Name: os.name,
			Start: os.t, End: ev.T, BeginArgs: os.args, EndArgs: ev.Args,
		})
	case 'i':
		switch {
		case ev.Cat == "core" && ev.Name == "acct":
			s.applyAcct(ev)
		case ev.Cat == "cluster" && ev.Name == "pool":
			s.pool = PoolLevel{
				T:    ev.T,
				Used: int(argInt(ev.Args, "used")),
				Idle: int(argInt(ev.Args, "idle")),
				Down: int(argInt(ev.Args, "down")),
			}
			s.havePool = true
		case ev.Cat == "cluster" && ev.Name == "fleet-acct":
			s.applyFleetAcct(ev)
		case ev.Cat == "fail" && ev.Name == "detected":
			if job := s.soleJob[ev.Run]; job != nil {
				job.detections++
			}
		}
	}
}

// noteRun opens detail tracking for a newly seen run and ages out the
// oldest runs beyond runWindow. The recorder numbers runs
// monotonically and records one at a time, so a changed run id marks a
// run boundary (a repeated id — fleet tenants all share run 1 — is
// caught by the membership scan and never re-appended).
func (s *Stream) noteRun(run int) {
	s.curRun = run
	for _, r := range s.runOrder {
		if r == run {
			return
		}
	}
	s.runOrder = append(s.runOrder, run)
	for len(s.runOrder) > runWindow {
		s.evictRun(s.runOrder[0])
		s.runOrder = s.runOrder[1:]
	}
}

// evictRun drops one run's timeline detail — open spans and
// finalized-span history — while keeping every job summary and
// authoritative final. Evicted finalized spans stay counted in the dropped
// totals, so a consumer can tell truncated history from a quiet run.
func (s *Stream) evictRun(run int) {
	for seq, os := range s.open {
		if os.run != run {
			continue
		}
		delete(s.open, seq)
		if os.job != nil {
			os.job.openSpans--
		}
	}
	for _, j := range s.jobOrder {
		if j.key.run != run {
			continue
		}
		if buf := j.spans.seal(); buf != nil {
			s.freeSpan = append(s.freeSpan, buf)
		}
	}
}

// registerJob creates (or returns) the job a core/run begin announces.
// Job identity is (run, "job" arg): in fleet mode every tenant shares
// run 1 and is told apart by label; in single-run sweeps every run has
// one job.
func (s *Stream) registerJob(ev *trace.Ev) *jobState {
	label := argStr(ev.Args, "job")
	if label == "" {
		label = "run" + strconv.Itoa(ev.Run)
	}
	k := jobKey{ev.Run, label}
	if j := s.jobs[k]; j != nil {
		return j
	}
	j := &jobState{
		key:    k,
		id:     "r" + strconv.Itoa(ev.Run) + "." + label,
		policy: argStr(ev.Args, "policy"),
		gpus:   int(argInt(ev.Args, "gpus")),
		iters:  int(argInt(ev.Args, "iters")),
		phases: make(map[phaseKey]*phaseAgg),
	}
	if n := len(s.freeSpan); n > 0 {
		j.spans.buf = s.freeSpan[n-1]
		s.freeSpan[n-1] = nil
		s.freeSpan = s.freeSpan[:n-1]
	}
	s.jobs[k] = j
	s.byID[j.id] = j
	s.jobOrder = append(s.jobOrder, j)
	s.runJobCount[ev.Run]++
	if s.runJobCount[ev.Run] == 1 {
		s.soleJob[ev.Run] = j
	} else {
		// Multiple tenants share this run (fleet mode): per-event job
		// attribution is no longer possible from lane alone; job-tagged
		// instants (acct) still land correctly.
		s.soleJob[ev.Run] = nil
	}
	return j
}

// applyAcct ingests the authoritative per-job accounting instant the
// harness emits as it finishes: the same variables RunResult is built
// from, so the stream's final rollup equals the post-hoc numbers
// exactly (the differential suite asserts bit-equality).
func (s *Stream) applyAcct(ev *trace.Ev) {
	label := argStr(ev.Args, "job")
	k := jobKey{ev.Run, label}
	j := s.jobs[k]
	if j == nil {
		// Sink attached mid-run: the run began before we were listening.
		j = s.registerJob(ev)
	}
	j.final = metrics.Accounting{
		N:                  int(argInt(ev.Args, "n")),
		Useful:             vclock.Time(argInt(ev.Args, "useful")),
		CkptStall:          vclock.Time(argInt(ev.Args, "ckpt_stall")),
		RecoveryFixed:      vclock.Time(argInt(ev.Args, "recovery_fixed")),
		RedoWork:           vclock.Time(argInt(ev.Args, "redo")),
		WaitingForCapacity: vclock.Time(argInt(ev.Args, "wait_capacity")),
		Recoveries:         int(argInt(ev.Args, "recoveries")),
		Checkpoints:        int(argInt(ev.Args, "checkpoints")),
		DegradedIters:      int(argInt(ev.Args, "degraded_iters")),
		DegradedUseful:     vclock.Time(argInt(ev.Args, "degraded_useful")),
	}
	if j.gpus == 0 {
		j.gpus = j.final.N
	}
	j.wall = vclock.Time(argInt(ev.Args, "wall"))
	j.completed = argStr(ev.Args, "completed") == "true"
	// The live counters track traced spans; the finals are authoritative
	// (transparent recovery, e.g., restarts nothing, so it closes zero
	// incarnation spans while the result reports one incarnation).
	j.incarnations = int(argInt(ev.Args, "incarnations"))
	j.episodes = int(argInt(ev.Args, "episodes"))
	j.haveFinal = true
	j.done = true
}

func (s *Stream) applyFleetAcct(ev *trace.Ev) {
	s.fleetFinal = &FleetFinal{
		Nodes:             int(argInt(ev.Args, "nodes")),
		GPUs:              int(argInt(ev.Args, "gpus")),
		Wall:              vclock.Time(argInt(ev.Args, "wall")),
		Used:              vclock.Time(argInt(ev.Args, "used")),
		Idle:              vclock.Time(argInt(ev.Args, "idle")),
		Down:              vclock.Time(argInt(ev.Args, "down")),
		Goodput:           argFloat(ev.Args, "goodput"),
		JobsCompleted:     int(argInt(ev.Args, "completed")),
		JobsTotal:         int(argInt(ev.Args, "total")),
		Preemptions:       int(argInt(ev.Args, "preemptions")),
		RecoveryEpisodes:  int(argInt(ev.Args, "episodes")),
		AppliedInjections: int(argInt(ev.Args, "applied")),
		SkippedInjections: int(argInt(ev.Args, "skipped")),
		LatCount:          int(argInt(ev.Args, "lat_count")),
		LatMean:           vclock.Time(argInt(ev.Args, "lat_mean")),
		LatP50:            vclock.Time(argInt(ev.Args, "lat_p50")),
		LatP95:            vclock.Time(argInt(ev.Args, "lat_p95")),
		LatMax:            vclock.Time(argInt(ev.Args, "lat_max")),
	}
}

// JobSummary is one job's snapshot row.
type JobSummary struct {
	ID        string
	Label     string
	Run       int
	Policy    string
	GPUs      int
	Iters     int
	Done      bool
	Completed bool
	// Wall and Final are authoritative once Done (parsed from the
	// core/acct instant); zero before that.
	Wall      vclock.Time
	HaveFinal bool
	Final     metrics.Accounting
	// Live counters, incrementally maintained.
	OpenSpans   int
	SpansClosed int
	Detections  int
	Recoveries  int
	// Episodes is the measured recovery-latency episode count; zero until
	// Done (it arrives with the final rollup), whereas Recoveries tracks
	// closed core/recovery spans live.
	Episodes     int
	Incarnations int
	// LiveUseful is closed train/iter span time summed across ranks
	// (GPU-time): an estimate until Done, when Final.Useful×N is exact.
	LiveUseful vclock.Time
}

func (j *jobState) summary() JobSummary {
	return JobSummary{
		ID: j.id, Label: j.key.label, Run: j.key.run,
		Policy: j.policy, GPUs: j.gpus, Iters: j.iters,
		Done: j.done, Completed: j.completed,
		Wall: j.wall, HaveFinal: j.haveFinal, Final: j.final,
		OpenSpans: j.openSpans, SpansClosed: j.spansClosed,
		Detections: j.detections, Recoveries: j.recoveries,
		Episodes: j.episodes, Incarnations: j.incarnations,
		LiveUseful: j.liveUseful(),
	}
}

// Jobs returns every known job in registration order.
func (s *Stream) Jobs() []JobSummary {
	s.mu.Lock()
	s.drain()
	defer s.mu.Unlock()
	out := make([]JobSummary, len(s.jobOrder))
	for i, j := range s.jobOrder {
		out[i] = j.summary()
	}
	return out
}

// lookup resolves a job by canonical ID ("r1.tenant"), or by bare label
// when that is unambiguous.
func (s *Stream) lookup(id string) *jobState {
	if j := s.byID[id]; j != nil {
		return j
	}
	var match *jobState
	for _, j := range s.jobOrder {
		if j.key.label == id {
			if match != nil {
				return nil // ambiguous
			}
			match = j
		}
	}
	return match
}

// Job returns one job's snapshot by ID or unique label.
func (s *Stream) Job(id string) (JobSummary, bool) {
	s.mu.Lock()
	s.drain()
	defer s.mu.Unlock()
	j := s.lookup(id)
	if j == nil {
		return JobSummary{}, false
	}
	return j.summary(), true
}

// TimelineSnapshot is a job's recent span history.
type TimelineSnapshot struct {
	Job JobSummary
	// Dropped counts finalized spans evicted from the job's bounded ring:
	// nonzero means Spans is a truncated suffix, not the full history.
	Dropped uint64
	// Spans holds recent finalized spans oldest-first, then in-progress
	// spans (Open=true) in begin order.
	Spans []SpanView
}

// Timeline snapshots a job's recent finalized spans plus its currently
// open (long-running or cut-off) spans. max limits the finalized count
// (≤0 = the whole ring).
func (s *Stream) Timeline(id string, max int) (TimelineSnapshot, bool) {
	s.mu.Lock()
	s.drain()
	defer s.mu.Unlock()
	j := s.lookup(id)
	if j == nil {
		return TimelineSnapshot{}, false
	}
	snap := TimelineSnapshot{Job: j.summary(), Dropped: j.spans.dropped}
	closed := j.spans.snapshot(nil)
	if max > 0 && len(closed) > max {
		snap.Dropped += uint64(len(closed) - max)
		closed = closed[len(closed)-max:]
	}
	snap.Spans = closed
	var inProg []openSpan
	for _, os := range s.open {
		if os.job == j {
			inProg = append(inProg, os)
		}
	}
	sort.Slice(inProg, func(a, b int) bool { return inProg[a].seq < inProg[b].seq })
	for _, os := range inProg {
		snap.Spans = append(snap.Spans, SpanView{
			Run: os.run, Cat: os.cat, Lane: os.lane, Name: os.name,
			Start: os.t, Open: true, BeginArgs: os.args,
		})
	}
	return snap, true
}

// MetricsSnapshot is the fleet-level live rollup.
type MetricsSnapshot struct {
	// Ingest counters.
	Events uint64
	// DroppedEvents counts what a timeline reader can miss: finalized
	// spans overwritten in a job's span ring or sealed with a run aged out
	// past runWindow — Σ TimelineSnapshot.Dropped over all jobs. Monotonic.
	// (Spans, not events: the name is what benchmark/ reads.)
	DroppedEvents uint64
	OpenSpans     int
	LastT         vclock.Time
	// Job rollup.
	Jobs          int
	JobsDone      int
	JobsCompleted int
	// RecoveryEpisodes sums measured episode counts for done jobs and
	// live closed core/recovery spans for running ones; once every job
	// is done it equals cluster.FleetStats.RecoveryEpisodes exactly
	// (the Σ_jobs episodes identity Reconcile enforces).
	RecoveryEpisodes int
	// Waste breakdown summed over jobs with finals (exact per job).
	Useful             vclock.Time
	CkptStall          vclock.Time
	RecoveryFixed      vclock.Time
	RedoWork           vclock.Time
	WaitingForCapacity vclock.Time
	// LiveUsefulGPUTime is Σ closed train/iter span time across all jobs
	// and ranks; with GoodputEstimate = LiveUsefulGPUTime/(ΣGPUs×LastT)
	// it approximates fleet goodput while runs are in flight.
	LiveUsefulGPUTime vclock.Time
	GoodputEstimate   float64
	// Spare-pool level at the last cluster/pool transition.
	HavePool bool
	Pool     PoolLevel
	// Fleet is the authoritative final rollup (nil until cluster.Run
	// finishes).
	Fleet *FleetFinal
	// Window is the last completed rollup window; Current the one being
	// filled.
	WindowWidth     vclock.Time
	Window, Current window
}

// Metrics snapshots the fleet-level rollup.
func (s *Stream) Metrics() MetricsSnapshot {
	s.mu.Lock()
	s.drain()
	defer s.mu.Unlock()
	m := MetricsSnapshot{
		Events:      s.events,
		OpenSpans:   len(s.open),
		LastT:       s.lastT,
		Jobs:        len(s.jobOrder),
		HavePool:    s.havePool,
		Pool:        s.pool,
		Fleet:       s.fleetFinal,
		WindowWidth: windowWidth,
		Window:      s.lastWin,
		Current:     s.win,
	}
	totGPUs := 0
	for _, j := range s.jobOrder {
		m.DroppedEvents += j.spans.dropped
		totGPUs += j.gpus
		if j.done {
			m.JobsDone++
			if j.completed {
				m.JobsCompleted++
			}
		}
		if j.haveFinal {
			m.RecoveryEpisodes += j.episodes
			m.Useful += j.final.Useful
			m.CkptStall += j.final.CkptStall
			m.RecoveryFixed += j.final.RecoveryFixed
			m.RedoWork += j.final.RedoWork
			m.WaitingForCapacity += j.final.WaitingForCapacity
			m.LiveUsefulGPUTime += vclock.Time(j.final.N) * j.final.Useful
		} else {
			m.RecoveryEpisodes += j.recoveries
			m.LiveUsefulGPUTime += j.liveUseful()
		}
	}
	if totGPUs > 0 && s.lastT > 0 {
		m.GoodputEstimate = float64(m.LiveUsefulGPUTime) / (float64(totGPUs) * float64(s.lastT))
	}
	if s.fleetFinal != nil {
		m.GoodputEstimate = s.fleetFinal.Goodput
	}
	return m
}

// spanRing is a job's bounded drop-oldest buffer of finalized SpanViews:
// the pipeline's backpressure valve. Pushing into a full ring overwrites
// the oldest span and counts it in dropped — ingestion never blocks and
// never grows past spanCap, and the exact count lets a consumer tell a
// quiet job from truncated history. The buffer grows lazily, so a
// short-lived job never pays for the bound. A sealed ring (its run's
// detail was evicted) keeps no history and counts every span — retained
// or late-arriving — as dropped.
type spanRing struct {
	buf     []SpanView
	start   int // index of the oldest span when full
	dropped uint64
	sealed  bool
}

// seal drops the history (counting it) and returns the cleared buffer
// for recycling.
func (r *spanRing) seal() []SpanView {
	r.dropped += uint64(len(r.buf))
	buf := r.buf
	clear(buf) // release retained span args
	r.buf = nil
	r.start = 0
	r.sealed = true
	if cap(buf) == 0 {
		return nil
	}
	return buf[:0]
}

func (r *spanRing) push(sv SpanView) {
	switch {
	case r.sealed:
		r.dropped++
	case len(r.buf) < spanCap:
		r.buf = append(r.buf, sv)
	default:
		r.buf[r.start] = sv
		r.start = (r.start + 1) % spanCap
		r.dropped++
	}
}

// snapshot appends the retained spans, oldest first, to dst.
func (r *spanRing) snapshot(dst []SpanView) []SpanView {
	dst = append(dst, r.buf[r.start:]...)
	return append(dst, r.buf[:r.start]...)
}

func argStr(args []trace.Arg, key string) string {
	for _, a := range args {
		if a.K == key {
			return a.V
		}
	}
	return ""
}

func argInt(args []trace.Arg, key string) int64 {
	v, _ := strconv.ParseInt(argStr(args, key), 10, 64)
	return v
}

func argFloat(args []trace.Arg, key string) float64 {
	v, _ := strconv.ParseFloat(argStr(args, key), 64)
	return v
}
