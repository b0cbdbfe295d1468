package tracestream

import (
	"testing"

	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// feed drives a Stream with hand-built events, tracking sequence numbers
// the way a Recorder would.
type feed struct {
	st  *Stream
	seq uint64
	run int
}

func newFeed(st *Stream) *feed { return &feed{st: st, run: 1} }

func (f *feed) begin(t vclock.Time, cat, lane, name string, args ...trace.Arg) uint64 {
	f.seq++
	ev := trace.Ev{T: t, Seq: f.seq, Run: f.run, Ph: 'B', Cat: cat, Lane: lane, Name: name, Args: args}
	f.st.Event(&ev)
	return f.seq
}

func (f *feed) end(t vclock.Time, ref uint64, cat, lane, name string, args ...trace.Arg) {
	f.seq++
	ev := trace.Ev{T: t, Seq: f.seq, Run: f.run, Ph: 'E', Cat: cat, Lane: lane, Name: name, Ref: ref, Args: args}
	f.st.Event(&ev)
}

func (f *feed) instant(t vclock.Time, cat, lane, name string, args ...trace.Arg) {
	f.seq++
	ev := trace.Ev{T: t, Seq: f.seq, Run: f.run, Ph: 'i', Cat: cat, Lane: lane, Name: name, Args: args}
	f.st.Event(&ev)
}

func runArgs(label string) []trace.Arg {
	return []trace.Arg{{K: "job", V: label}, {K: "policy", V: "UserJIT"}, {K: "gpus", V: "4"}, {K: "iters", V: "10"}}
}

func TestSpanFinalization(t *testing.T) {
	st := New(Options{})
	f := newFeed(st)
	f.begin(0, "core", "sim", "run", runArgs("j")...)
	iter := f.begin(10, "train", "r0", "iter", trace.Arg{K: "it", V: "0"})
	hang := f.begin(15, "core", "sim", "recovery")

	// Mid-flight: one finalized nothing yet, two open (plus the run span).
	js, ok := st.Job("j")
	if !ok {
		t.Fatal("job not registered from run begin")
	}
	if js.OpenSpans != 3 || js.SpansClosed != 0 {
		t.Fatalf("open=%d closed=%d, want 3/0", js.OpenSpans, js.SpansClosed)
	}
	snap, _ := st.Timeline("j", 0)
	if len(snap.Spans) != 3 {
		t.Fatalf("timeline has %d spans, want 3 in-progress", len(snap.Spans))
	}
	for _, sv := range snap.Spans {
		if !sv.Open {
			t.Fatalf("expected only in-progress spans, got finalized %q", sv.Name)
		}
	}

	// Ends arrive: spans finalize incrementally, durations attribute to
	// phase sums, recovery count ticks.
	f.end(60, iter, "train", "r0", "iter")
	f.end(90, hang, "core", "sim", "recovery")
	js, _ = st.Job("j")
	if js.OpenSpans != 1 || js.SpansClosed != 2 {
		t.Fatalf("open=%d closed=%d, want 1/2", js.OpenSpans, js.SpansClosed)
	}
	if js.Recoveries != 1 {
		t.Fatalf("recoveries=%d, want 1", js.Recoveries)
	}
	if js.LiveUseful != 50 {
		t.Fatalf("live useful %d, want the iter span's 50ns", js.LiveUseful)
	}
	snap, _ = st.Timeline("j", 0)
	if len(snap.Spans) != 3 || snap.Spans[0].Open || snap.Spans[1].Open || !snap.Spans[2].Open {
		t.Fatalf("want [closed, closed, open run], got %+v", snap.Spans)
	}
	if d := snap.Spans[0].End - snap.Spans[0].Start; d != 50 {
		t.Fatalf("finalized iter duration %d, want 50", d)
	}
}

func TestTimelineTruncationCountsDropped(t *testing.T) {
	st := New(Options{})
	f := newFeed(st)
	f.begin(0, "core", "sim", "run", runArgs("j")...)
	const over = 6
	for i := 0; i < spanCap+over; i++ {
		ref := f.begin(vclock.Time(10*i), "train", "r0", "iter")
		f.end(vclock.Time(10*i+5), ref, "train", "r0", "iter")
	}
	snap, _ := st.Timeline("j", 0)
	// spanCap+6 closed spans through the ring: 6 evicted, spanCap retained
	// (plus the open run span).
	if snap.Dropped != over {
		t.Fatalf("Dropped=%d, want %d", snap.Dropped, over)
	}
	if len(snap.Spans) != spanCap+1 {
		t.Fatalf("spans=%d, want %d closed + 1 open", len(snap.Spans), spanCap)
	}
	if snap.Spans[0].Start != 10*over {
		t.Fatalf("oldest retained span starts at %d, want %d", snap.Spans[0].Start, 10*over)
	}
	// An explicit ?n= limit folds the extra truncation into Dropped...
	snap, _ = st.Timeline("j", 2)
	if snap.Dropped != spanCap+over-2 || len(snap.Spans) != 3 {
		t.Fatalf("limited: Dropped=%d spans=%d, want %d/3", snap.Dropped, len(snap.Spans), spanCap+over-2)
	}
	// ...of that one reply only: /metrics counts what the ring lost.
	if m := st.Metrics(); m.DroppedEvents != over {
		t.Fatalf("DroppedEvents=%d, want the %d overwritten spans", m.DroppedEvents, over)
	}
}

func TestDuplicateAndUnmatchedEnds(t *testing.T) {
	st := New(Options{})
	f := newFeed(st)
	f.begin(0, "core", "sim", "run", runArgs("j")...)
	ref := f.begin(5, "train", "r0", "iter")
	f.end(10, ref, "train", "r0", "iter")
	f.end(11, ref, "train", "r0", "iter")  // duplicate end: ignored
	f.end(12, 9999, "train", "r0", "iter") // begin predates attachment: ignored
	js, _ := st.Job("j")
	if js.SpansClosed != 1 || js.OpenSpans != 1 {
		t.Fatalf("closed=%d open=%d, want 1/1", js.SpansClosed, js.OpenSpans)
	}
}

func TestWindowRollup(t *testing.T) {
	const ms = vclock.Millisecond
	st := New(Options{})
	f := newFeed(st)
	f.begin(0, "core", "sim", "run", runArgs("j")...)
	ref := f.begin(100*ms, "train", "r0", "iter")
	f.end(500*ms, ref, "train", "r0", "iter")
	// Crossing the window boundary snapshots the completed window.
	ref = f.begin(windowWidth+200*ms, "train", "r0", "iter")
	f.end(windowWidth+600*ms, ref, "train", "r0", "iter")
	m := st.Metrics()
	if m.WindowWidth != windowWidth {
		t.Fatalf("window width %d, want %d", m.WindowWidth, windowWidth)
	}
	if m.Window.Start != 0 || m.Window.Useful != 400*ms || m.Window.SpansClosed != 1 {
		t.Fatalf("last window %+v, want start=0 useful=400ms closed=1", m.Window)
	}
	if m.Current.Start != windowWidth || m.Current.Useful != 400*ms {
		t.Fatalf("current window %+v, want start=%d useful=400ms", m.Current, windowWidth)
	}
}

func TestLookupByLabelAndID(t *testing.T) {
	st := New(Options{})
	f := newFeed(st)
	f.begin(0, "core", "sim", "run", runArgs("alpha")...)
	f.begin(1, "core", "sim", "run", runArgs("beta")...)
	if _, ok := st.Job("alpha"); !ok {
		t.Fatal("bare unique label should resolve")
	}
	if _, ok := st.Job("r1.beta"); !ok {
		t.Fatal("canonical ID should resolve")
	}
	if _, ok := st.Job("gamma"); ok {
		t.Fatal("unknown job resolved")
	}
	// A second job with the same label in another run makes the bare
	// label ambiguous; canonical IDs still work.
	f.run = 2
	f.begin(0, "core", "sim", "run", runArgs("alpha")...)
	if _, ok := st.Job("alpha"); ok {
		t.Fatal("ambiguous label should not resolve")
	}
	if _, ok := st.Job("r2.alpha"); !ok {
		t.Fatal("canonical ID should disambiguate")
	}
}

// TestRunWindowEviction pins the bounded-memory contract for multi-run
// streams: detail (span history, open spans) survives only for the last
// runWindow runs, evicted finalized spans stay counted in the dropped
// totals, and job summaries with their authoritative finals are kept
// forever.
func TestRunWindowEviction(t *testing.T) {
	st := New(Options{})
	f := newFeed(st)
	const runs = runWindow + 3
	for r := 1; r <= runs; r++ {
		f.run = r
		f.begin(0, "core", "sim", "run", runArgs("j")...)
		ref := f.begin(10, "train", "r0", "iter")
		f.end(20, ref, "train", "r0", "iter")
		f.begin(30, "core", "sim", "recovery") // left open across the run
	}
	m := st.Metrics()
	if m.Jobs != runs {
		t.Fatalf("jobs=%d, want all %d runs' summaries kept", m.Jobs, runs)
	}
	// Each evicted run had finalized one span (its open ones are forgotten,
	// not counted); spans of retained runs are still live.
	if m.DroppedEvents != 3 {
		t.Fatalf("DroppedEvents=%d, want 1 sealed span from each of 3 evicted runs", m.DroppedEvents)
	}
	if m.OpenSpans != 2*runWindow {
		t.Fatalf("OpenSpans=%d, want the last %d runs' run+recovery spans", m.OpenSpans, runWindow)
	}
	// Evicted run: summary intact, timeline empty but accounted.
	snap, ok := st.Timeline("r1.j", 0)
	if !ok {
		t.Fatal("evicted run's job summary should still resolve")
	}
	if len(snap.Spans) != 0 {
		t.Fatalf("evicted run still serves %d spans", len(snap.Spans))
	}
	if snap.Dropped != 1 {
		t.Fatalf("evicted run Dropped=%d, want its 1 finalized span counted", snap.Dropped)
	}
	// Retained run: full detail.
	snap, _ = st.Timeline("r5.j", 0)
	if len(snap.Spans) != 3 || snap.Dropped != 0 {
		t.Fatalf("retained run: %d spans, Dropped=%d, want 3/0", len(snap.Spans), snap.Dropped)
	}
	// Summed live useful survives eviction (aggregates are never evicted).
	js, _ := st.Job("r1.j")
	if js.LiveUseful != 10 {
		t.Fatalf("evicted run's live useful %d, want 10", js.LiveUseful)
	}
}

// TestIngestAllocBudget pins the streaming hot path's allocation cost:
// once the job, its span ring and its phase keys are warm, ingesting a
// begin/end pair plus an instant must not allocate, window rolls
// included. This is what makes leaving the sink attached free — the ring
// and maps reach steady state and every further event is overwrite-only.
func TestIngestAllocBudget(t *testing.T) {
	st := New(Options{})
	f := newFeed(st)
	f.begin(0, "core", "sim", "run", runArgs("j")...)
	iterArgs := []trace.Arg{{K: "it", V: "0"}}

	var now vclock.Time
	pair := func() {
		now += windowWidth / 4
		ref := f.begin(now, "train", "r0", "iter", iterArgs...)
		now += windowWidth / 8
		f.end(now, ref, "train", "r0", "iter")
		f.instant(now, "fail", "sim", "detected", iterArgs...)
	}
	for i := 0; i < spanCap+stageCap; i++ {
		pair() // warm: the span ring fills, maps size, windows roll
	}
	avg := testing.AllocsPerRun(500, pair)
	if avg > 0 {
		t.Errorf("warm ingest allocates %.2f allocs per begin/end/instant cycle, budget is 0", avg)
	}
}

func BenchmarkIngest(b *testing.B) {
	st := New(Options{})
	f := newFeed(st)
	f.begin(0, "core", "sim", "run", runArgs("j")...)
	b.ReportAllocs()
	b.ResetTimer()
	var now vclock.Time
	for i := 0; i < b.N; i++ {
		now += 150
		ref := f.begin(now, "train", "r0", "iter")
		now += 100
		f.end(now, ref, "train", "r0", "iter")
	}
}
