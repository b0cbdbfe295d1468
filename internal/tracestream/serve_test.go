package tracestream_test

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"jitckpt/internal/cluster"
	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/trace"
	"jitckpt/internal/tracestream"
	"jitckpt/internal/vclock"
)

// streamRecorder is how a caller serves a run live: a retention-free
// recorder whose sink is st.
func streamRecorder(st *tracestream.Stream) *trace.Recorder {
	rec := trace.New()
	rec.SetRetain(false)
	rec.SetSink(st)
	return rec
}

// streamedRun executes one small streamed training run and returns the
// stream and its server.
func streamedRun(t *testing.T) (*tracestream.Stream, *tracestream.Server) {
	t.Helper()
	st := tracestream.New(tracestream.Options{})
	wl := cluster.FleetWorkload()
	res, err := core.Run(core.JobConfig{
		WL: wl, Policy: core.PolicyUserJIT, Iters: 10, Seed: 1,
		HangTimeout: 2 * vclock.Second, SpareNodes: 2,
		IterFailures: []core.IterInjection{{Iter: 5, Frac: 0.5, Rank: 1, Kind: failure.GPUHard}},
		Recorder:     streamRecorder(st),
	})
	if err != nil || !res.Completed {
		t.Fatalf("run failed: %v", err)
	}
	return st, tracestream.NewServer(st)
}

func get(t *testing.T, srv *tracestream.Server, path string) (int, []byte) {
	t.Helper()
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr.Code, rr.Body.Bytes()
}

func TestServeMetrics(t *testing.T) {
	_, srv := streamedRun(t)
	code, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics: %d", code)
	}
	var m tracestream.MetricsSnapshot
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decode /metrics: %v\n%s", err, body)
	}
	if m.Jobs != 1 || m.JobsDone != 1 || m.JobsCompleted != 1 {
		t.Fatalf("jobs=%d done=%d completed=%d, want 1/1/1", m.Jobs, m.JobsDone, m.JobsCompleted)
	}
	if m.Events == 0 || m.Useful == 0 {
		t.Fatalf("empty rollup: %+v", m)
	}
	if m.RecoveryEpisodes == 0 {
		t.Fatal("injected failure but no recovery episodes at /metrics")
	}
	if m.GoodputEstimate <= 0 || m.GoodputEstimate > 1 {
		t.Fatalf("goodput estimate %v outside (0,1]", m.GoodputEstimate)
	}
}

// TestServeMetricsSchema pins /metrics' exact top-level JSON key set: a
// field added to or dropped from MetricsSnapshot is a change to what
// scrapers read, and shows here as one line of this list.
func TestServeMetricsSchema(t *testing.T) {
	_, srv := streamedRun(t)
	_, body := get(t, srv, "/metrics")
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatalf("decode /metrics: %v\n%s", err, body)
	}
	got := make([]string, 0, len(top))
	for k := range top {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"CkptStall", "Current", "DroppedEvents", "Events", "Fleet",
		"GoodputEstimate", "HavePool", "Jobs", "JobsCompleted", "JobsDone",
		"LastT", "LiveUsefulGPUTime", "OpenSpans", "Pool",
		"RecoveryEpisodes", "RecoveryFixed", "RedoWork", "Useful",
		"WaitingForCapacity", "Window", "WindowWidth",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/metrics keys changed:\ngot:  %q\nwant: %q", got, want)
	}
}

func TestServeFleetAndIndex(t *testing.T) {
	_, srv := streamedRun(t)
	code, body := get(t, srv, "/fleet")
	if code != 200 {
		t.Fatalf("GET /fleet: %d", code)
	}
	var f tracestream.FleetResponse
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatalf("decode /fleet: %v", err)
	}
	if len(f.Jobs) != 1 || !f.Jobs[0].Done {
		t.Fatalf("fleet jobs %+v, want one finished job", f.Jobs)
	}
	if f.Jobs[0].Final.Useful == 0 {
		t.Fatal("job summary missing final accounting")
	}
	if code, _ := get(t, srv, "/"); code != 200 {
		t.Fatalf("GET /: %d", code)
	}
	if code, _ := get(t, srv, "/nope"); code != 404 {
		t.Fatalf("GET /nope: %d, want 404", code)
	}
}

func TestServeTimeline(t *testing.T) {
	_, srv := streamedRun(t)
	code, body := get(t, srv, "/jobs/job/timeline")
	if code != 200 {
		t.Fatalf("GET timeline: %d", code)
	}
	var tl struct {
		Job         tracestream.JobSummary
		Dropped     uint64
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat,omitempty"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur,omitempty"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args,omitempty"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &tl); err != nil {
		t.Fatalf("decode timeline: %v", err)
	}
	if tl.Job.ID != "r1.job" {
		t.Fatalf("job id %q", tl.Job.ID)
	}
	meta, complete := 0, 0
	for _, ev := range tl.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Dur < 0 {
				t.Fatalf("negative duration on %q", ev.Name)
			}
		case "B": // in-progress
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta == 0 || complete == 0 {
		t.Fatalf("timeline has %d metadata and %d complete events", meta, complete)
	}

	// The ?n= limit truncates and accounts for it.
	code, body = get(t, srv, "/jobs/job/timeline?n=3")
	if code != 200 {
		t.Fatalf("GET limited timeline: %d", code)
	}
	var lim tracestream.TimelineResponse
	if err := json.Unmarshal(body, &lim); err != nil {
		t.Fatal(err)
	}
	if lim.Dropped == 0 {
		t.Fatal("n=3 on a busy job should report truncation")
	}

	if code, _ := get(t, srv, "/jobs/ghost/timeline"); code != 404 {
		t.Fatalf("unknown job: %d, want 404", code)
	}
	if code, _ := get(t, srv, "/jobs/job/timeline?n=bogus"); code != 400 {
		t.Fatalf("bad n: %d, want 400", code)
	}
	if code, _ := get(t, srv, "/jobs/timeline"); code != 404 {
		t.Fatalf("missing id: %d, want 404", code)
	}
}

// soakFleetConfig is a small multi-tenant fleet with enough churn
// (rack loss, repairs, a preempting arrival) to exercise every endpoint
// while it runs.
func soakFleetConfig(st *tracestream.Stream) cluster.Config {
	job := func(name string, pol core.Policy, pri, iters int) cluster.JobSpec {
		return cluster.JobSpec{
			Name: name, Priority: pri,
			Config: core.JobConfig{
				WL: cluster.FleetWorkload(), Policy: pol, Iters: iters,
				CkptInterval: vclock.Second, HangTimeout: 2 * vclock.Second,
			},
		}
	}
	plan := failure.Plan{Injections: []failure.Injection{
		{At: 1500 * vclock.Millisecond, Target: 0, Kind: failure.RackDown},
	}}
	for i := 0; i < 4; i++ {
		plan.Injections = append(plan.Injections, failure.Injection{
			At: 6*vclock.Second + vclock.Time(i)*vclock.Second, Target: i, Kind: failure.NodeRepaired,
		})
	}
	hi := job("hi", core.PolicyPCDisk, 5, 10)
	hi.StartAt = 500 * vclock.Millisecond
	return cluster.Config{
		Nodes: 6, PerNode: 2, RackSize: 4, Seed: 11, Horizon: 3 * vclock.Minute,
		Jobs: []cluster.JobSpec{
			job("d0", core.PolicyPCDisk, 0, 25),
			job("el", core.PolicyElasticJIT, 0, 120),
			job("d1", core.PolicyPCDisk, 0, 25),
			hi,
		},
		Failures: plan,
		Recorder: streamRecorder(st),
	}
}

// TestServeRaceSoak hammers every endpoint from concurrent goroutines
// while a chaotic fleet run streams into the same Stream — the snapshot
// path must be race-free against live ingest (run under -race in CI's
// stream-soak job). The handlers are exercised through ServeHTTP
// directly: the race detector sees the same interleavings a TCP listener
// would produce, without the port.
func TestServeRaceSoak(t *testing.T) {
	st := tracestream.New(tracestream.Options{})
	srv := tracestream.NewServer(st)

	done := make(chan struct{})
	var wg sync.WaitGroup
	paths := []string{
		"/metrics", "/fleet",
		"/jobs/d0/timeline", "/jobs/el/timeline?n=16",
		"/jobs/r1.d1/timeline", "/jobs/hi/timeline",
		"/jobs/ghost/timeline", "/",
	}
	for _, p := range paths {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rr := httptest.NewRecorder()
				srv.ServeHTTP(rr, httptest.NewRequest("GET", p, nil))
			}
		}()
	}

	res, err := cluster.Run(soakFleetConfig(st))
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatalf("fleet run under load: %v", err)
	}

	// The run under concurrent snapshotting must still be exact.
	if err := res.Reconcile(); err != nil {
		t.Fatal(err)
	}
	m := st.Metrics()
	if m.Fleet == nil {
		t.Fatal("no fleet final rollup after soak")
	}
	if m.Fleet.Goodput != res.Fleet.Goodput {
		t.Fatalf("soak perturbed the rollup: stream goodput %v, fleet %v", m.Fleet.Goodput, res.Fleet.Goodput)
	}
	if m.Jobs != len(res.Jobs) {
		t.Fatalf("stream saw %d jobs, fleet ran %d", m.Jobs, len(res.Jobs))
	}
}
