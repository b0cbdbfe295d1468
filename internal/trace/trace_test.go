package trace

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"jitckpt/internal/vclock"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.BeginRun("x")
	sp := r.Begin(1, "cat", LaneSim, "span")
	sp.End(2)
	r.Instant(3, "cat", LaneSim, "inst")
	r.ProcStart(0, 1, "p")
	r.ProcEnd(1, 1, "p")
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder recorded something")
	}
	if Of(nil) != nil {
		t.Fatal("Of(nil) should be nil")
	}
	env := vclock.NewEnv(1)
	if Of(env) != nil {
		t.Fatal("Of on a recorder-less env should be nil")
	}
}

func TestAttachAndOf(t *testing.T) {
	env := vclock.NewEnv(1)
	r := New()
	Attach(env, r)
	if Of(env) != r {
		t.Fatal("Of did not return the attached recorder")
	}
	Attach(env, nil)
	if Of(env) != nil {
		t.Fatal("detach did not clear the recorder")
	}
}

func TestSpanPairingAndArgs(t *testing.T) {
	r := New()
	sp := r.Begin(10, "ckpt", Rank(2), "save", "iter", 5)
	r.Instant(12, "fail", LaneSim, "detected", "by", "heartbeat")
	sp.End(20, "ok", true)
	open := r.Begin(15, "train", Rank(0), "iter")
	_ = open // never ended: stays open

	q := NewQuery(r)
	saves := q.Spans("ckpt", "save")
	if len(saves) != 1 {
		t.Fatalf("saves = %d", len(saves))
	}
	s := saves[0]
	if s.Open || s.Start != 10 || s.End != 20 || s.Dur() != 10 {
		t.Fatalf("bad span: %+v", s)
	}
	if s.Args["iter"] != "5" || s.Args["ok"] != "true" {
		t.Fatalf("args not layered: %+v", s.Args)
	}
	iters := q.Spans("train", "iter")
	if len(iters) != 1 || !iters[0].Open || iters[0].Dur() != 0 {
		t.Fatalf("open span mishandled: %+v", iters)
	}
	if got := q.Instants("fail", "detected"); len(got) != 1 || got[0].Args["by"] != "heartbeat" {
		t.Fatalf("instants: %+v", got)
	}
	if q.last != 20 {
		t.Fatalf("wall = %v", q.last)
	}
}

func TestDoubleEndIsIgnoredByQuery(t *testing.T) {
	r := New()
	sp := r.Begin(1, "c", LaneSim, "s")
	sp.End(2)
	sp.End(3, "late", true)
	q := NewQuery(r)
	spans := q.Spans("c", "s")
	if len(spans) != 1 || spans[0].End != 2 || spans[0].Args["late"] != "" {
		t.Fatalf("double end leaked: %+v", spans)
	}
}

func TestBeginRunSeparatesRuns(t *testing.T) {
	r := New()
	r.BeginRun("first") // empty log: stays run 1
	r.Instant(5, "c", LaneSim, "a")
	r.BeginRun("second")
	r.Instant(3, "c", LaneSim, "b")
	q := NewQuery(r)
	if q.Runs() != 2 {
		t.Fatalf("runs = %d", q.Runs())
	}
	evs := r.Events()
	if evs[0].Run != 1 || evs[len(evs)-1].Run != 2 {
		t.Fatalf("run stamping wrong: %+v", evs)
	}
	r = New()
	if r.Len() != 0 {
		t.Fatal("a fresh recorder holds events")
	}
	r.Instant(1, "c", LaneSim, "x")
	if r.Events()[0].Run != 1 {
		t.Fatal("a fresh recorder does not start at run 1")
	}
}

func TestOddArgsGetEmptyValue(t *testing.T) {
	r := New()
	r.Instant(1, "c", LaneSim, "x", "k1", "v1", "dangling")
	ev := r.Events()[0]
	if len(ev.Args) != 2 || ev.Args[1].K != "dangling" || ev.Args[1].V != "" {
		t.Fatalf("args: %+v", ev.Args)
	}
}

func TestWriteChromeValidAndDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := New()
		sp := r.Begin(1_000_000, "ckpt", Rank(0), "save", "iter", 1)
		sp.End(2_000_000)
		r.Instant(1_500_000, "fail", LaneSim, "detected")
		r.Begin(3_000_000, "train", Rank(1), "iter") // left open
		r.BeginRun("second")
		r.Instant(0, "core", LaneSim, "x")
		return r
	}
	var b1, b2 bytes.Buffer
	if err := WriteChrome(&b1, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b2, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("chrome export not deterministic")
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	phases := map[string]int{}
	pids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
		pids[ev["pid"].(float64)] = true
	}
	if phases["X"] != 1 {
		t.Fatalf("want 1 complete event, got %d", phases["X"])
	}
	if phases["B"] != 1 {
		t.Fatalf("want 1 open begin, got %d", phases["B"])
	}
	if phases["i"] != 3 { // detected + x + run-begin
		t.Fatalf("want 3 instants, got %d", phases["i"])
	}
	if phases["M"] == 0 {
		t.Fatal("no metadata events")
	}
	if !pids[1] || !pids[2] {
		t.Fatalf("runs not split into pids: %v", pids)
	}
}

func TestWriteTextMultiRunPrefix(t *testing.T) {
	r := New()
	r.Instant(vclock.Second, "ckpt", Rank(0), "commit", "gen", 1)
	var single bytes.Buffer
	if err := WriteText(&single, r); err != nil {
		t.Fatal(err)
	}
	want := "1.000000000 i ckpt  rank0  commit gen=1\n"
	if single.String() != want {
		t.Fatalf("got %q want %q", single.String(), want)
	}

	r.BeginRun("again")
	r.Instant(0, "ckpt", Rank(1), "commit")
	var multi bytes.Buffer
	if err := WriteText(&multi, r); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(multi.Bytes(), "\n"), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), multi.String())
	}
	for _, ln := range lines {
		if !bytes.HasPrefix(ln, []byte("r1 ")) && !bytes.HasPrefix(ln, []byte("r2 ")) {
			t.Fatalf("multi-run line missing run prefix: %q", ln)
		}
	}
}

// TestChromeThreadPerLane: an export names one thread per lane, in order of
// first appearance.
func TestChromeThreadPerLane(t *testing.T) {
	r := New()
	r.Instant(0, "c", "rank2", "x")
	r.Instant(0, "c", "n0.g1", "x")
	r.Instant(0, "c", LaneSim, "x")
	r.Instant(1, "c", "rank2", "y")
	var b bytes.Buffer
	if err := WriteChrome(&b, r); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []ChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var lanes []string
	for _, ev := range doc.TraceEvents {
		if ev.Name == "thread_name" {
			lanes = append(lanes, ev.Args["name"])
		}
	}
	if want := []string{"rank2", "n0.g1", LaneSim}; !slices.Equal(lanes, want) {
		t.Fatalf("lanes: %v, want %v", lanes, want)
	}
}

func TestSpanSums(t *testing.T) {
	r := New()
	r.Begin(0, "phase", Rank(1), "restore").End(5)
	r.Begin(10, "phase", Rank(1), "restore").End(12)
	r.Begin(0, "phase", Rank(1), "replay").End(3)
	r.Begin(0, "phase", Rank(2), "restore").End(100)
	r.Begin(200, "phase", Rank(1), "open") // open: excluded
	q := NewQuery(r)
	sums := q.SpanSums("phase", Rank(1))
	if sums["restore"] != 7 || sums["replay"] != 3 || len(sums) != 2 {
		t.Fatalf("sums: %v", sums)
	}
	all := q.SpanSums("phase", "")
	if all["restore"] != 107 {
		t.Fatalf("any-lane sums: %v", all)
	}
}
