package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"jitckpt/internal/trace"
	"jitckpt/internal/tracestream"
)

// normalizeResult clears per-job store pointers so two fleet results can
// be compared structurally (store identity differs between runs).
func normalizeResult(r *Result) Result {
	out := *r
	out.Jobs = append([]JobResult(nil), r.Jobs...)
	for i := range out.Jobs {
		if out.Jobs[i].Res != nil {
			cp := *out.Jobs[i].Res
			cp.Disk = nil
			out.Jobs[i].Res = &cp
		}
	}
	return out
}

// TestFleetStreamingDifferential runs the pinned fleet scenario post-hoc
// and with a live tracestream sink, and requires the merged timeline and
// the full Result to be identical (zero perturbation), the stream's
// fleet-level final rollup to equal FleetStats field for field —
// including the float64 goodput, which round-trips exactly through the
// fleet-acct instant — and every tenant's stream rollup to equal its
// post-hoc accounting.
func TestFleetStreamingDifferential(t *testing.T) {
	resA, recA, _ := tracedFleetRun(t, goldenFleetConfig())

	cfgB := goldenFleetConfig()
	recB := trace.New()
	cfgB.Recorder = recB
	st := tracestream.New(tracestream.Options{})
	recB.SetSink(st)
	resB, err := Run(cfgB)
	if err != nil {
		t.Fatalf("streaming Run: %v", err)
	}

	if a, b := fullText(t, recA), fullText(t, recB); !bytes.Equal(a, b) {
		t.Fatalf("streaming perturbed the fleet timeline:\n%s", firstDiff(a, b))
	}
	if a, b := normalizeResult(resA), normalizeResult(resB); !reflect.DeepEqual(a, b) {
		t.Fatalf("streaming perturbed the fleet result:\npost-hoc:  %+v\nstreaming: %+v", a.Fleet, b.Fleet)
	}

	// Fleet-level finals, bit for bit.
	m := st.Metrics()
	if m.Fleet == nil {
		t.Fatal("stream has no fleet final rollup")
	}
	f := resB.Fleet
	want := tracestream.FleetFinal{
		Nodes: f.Nodes, GPUs: f.GPUs, Wall: f.Wall,
		Used: f.UsedNodeTime, Idle: f.IdleNodeTime, Down: f.DownNodeTime,
		Goodput:       f.Goodput,
		JobsCompleted: f.JobsCompleted, JobsTotal: f.JobsTotal,
		Preemptions: f.Preemptions, RecoveryEpisodes: f.RecoveryEpisodes,
		AppliedInjections: f.AppliedInjections, SkippedInjections: f.SkippedInjections,
		LatCount: f.RecoveryLatency.Count, LatMean: f.RecoveryLatency.Mean,
		LatP50: f.RecoveryLatency.P50, LatP95: f.RecoveryLatency.P95,
		LatMax: f.RecoveryLatency.Max,
	}
	if *m.Fleet != want {
		t.Errorf("stream fleet rollup differs from FleetStats:\nstream:   %+v\npost-hoc: %+v", *m.Fleet, want)
	}
	if m.GoodputEstimate != f.Goodput {
		t.Errorf("final goodput estimate %v, want authoritative %v", m.GoodputEstimate, f.Goodput)
	}

	// The live pool level must have tracked the utilization timeline to
	// its last transition exactly.
	if len(f.Timeline) == 0 {
		t.Fatal("fleet recorded no utilization timeline")
	}
	last := f.Timeline[len(f.Timeline)-1]
	if !m.HavePool {
		t.Fatal("stream saw no cluster/pool instants")
	}
	if got, want := m.Pool, (tracestream.PoolLevel{T: last.At, Used: last.Used, Idle: last.Idle, Down: last.Down}); got != want {
		t.Errorf("stream pool level %+v, want timeline tail %+v", got, want)
	}

	// Every tenant's stream rollup equals its post-hoc accounting.
	for _, jr := range resB.Jobs {
		if jr.Res == nil {
			continue
		}
		js, ok := st.Job(jr.Name)
		if !ok {
			t.Errorf("stream did not register tenant %q", jr.Name)
			continue
		}
		if js.Final != jr.Res.Accounting {
			t.Errorf("tenant %q stream rollup differs:\nstream:   %+v\npost-hoc: %+v",
				jr.Name, js.Final, jr.Res.Accounting)
		}
		if js.Wall != jr.Res.WallTime {
			t.Errorf("tenant %q stream wall %v, result %v", jr.Name, js.Wall, jr.Res.WallTime)
		}
		if js.Completed != jr.Res.Completed {
			t.Errorf("tenant %q stream Completed=%v, result %v", jr.Name, js.Completed, jr.Res.Completed)
		}
	}

	// Recovery-episode count visible at /metrics must match the fleet's.
	if m.RecoveryEpisodes != f.RecoveryEpisodes {
		t.Errorf("stream counted %d recovery episodes, fleet %d", m.RecoveryEpisodes, f.RecoveryEpisodes)
	}
}
