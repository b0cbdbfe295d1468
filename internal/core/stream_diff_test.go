package core

import (
	"bytes"
	"reflect"
	"testing"

	"jitckpt/internal/trace"
	"jitckpt/internal/tracestream"
)

// stripDisk clears the shared-store pointer so results can be compared
// structurally (the store's identity differs between runs by design).
func stripDisk(res *RunResult) RunResult {
	cp := *res
	cp.Disk = nil
	return cp
}

// TestStreamingDifferential runs every golden scenario twice — once
// post-hoc (recorder only) and once with a live tracestream sink
// attached — and requires:
//
//	(a) zero perturbation: the complete, unfiltered virtual-time
//	    timelines and the final RunResults are identical, so leaving
//	    the streaming layer on costs nothing in fidelity;
//	(b) exactness: the stream's final per-job rollup equals the
//	    post-hoc accounting bit for bit, and reconciles against the
//	    trace the same way ReconcileAccounting holds post-hoc.
//
// Together these pin the package doc's claim that streaming is a view,
// never a second source of truth.
func TestStreamingDifferential(t *testing.T) {
	for _, sc := range goldenScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			// Post-hoc leg.
			cfgA := sc.cfg()
			recA := trace.New()
			cfgA.Recorder = recA
			resA, err := Run(cfgA)
			if err != nil {
				t.Fatalf("post-hoc Run: %v", err)
			}

			// Streaming leg: same recorder setup plus a live sink.
			cfgB := sc.cfg()
			recB := trace.New()
			cfgB.Recorder = recB
			st := tracestream.New(tracestream.Options{})
			recB.SetSink(st)
			resB, err := Run(cfgB)
			if err != nil {
				t.Fatalf("streaming Run: %v", err)
			}

			// (a) Byte-identical trajectories and identical results.
			if a, b := fullText(t, recA), fullText(t, recB); !bytes.Equal(a, b) {
				t.Fatalf("streaming perturbed the timeline:\n%s", firstDiff(a, b))
			}
			if a, b := stripDisk(resA), stripDisk(resB); !reflect.DeepEqual(a, b) {
				t.Fatalf("streaming perturbed the result:\npost-hoc:  %+v\nstreaming: %+v", a, b)
			}

			// (b) Stream finals equal post-hoc accounting exactly.
			js, ok := st.Job("job")
			if !ok {
				t.Fatal("stream did not register the job")
			}
			if !js.Done || !js.HaveFinal {
				t.Fatalf("job not finalized in stream: done=%v haveFinal=%v", js.Done, js.HaveFinal)
			}
			if js.Completed != resB.Completed {
				t.Errorf("stream Completed=%v, result %v", js.Completed, resB.Completed)
			}
			if js.Final != resB.Accounting {
				t.Errorf("stream final rollup differs from post-hoc accounting:\nstream:   %+v\npost-hoc: %+v",
					js.Final, resB.Accounting)
			}
			if js.Wall != resB.WallTime {
				t.Errorf("stream wall %v, result %v", js.Wall, resB.WallTime)
			}
			if js.Incarnations != resB.Incarnations {
				t.Errorf("stream counted %d incarnations, result %d", js.Incarnations, resB.Incarnations)
			}
			if js.Episodes != len(resB.RecoveryLatencies) {
				t.Errorf("stream counted %d episodes, result measured %d", js.Episodes, len(resB.RecoveryLatencies))
			}

			// The streamed numbers must reconcile against the trace just
			// like the post-hoc ones do.
			q := trace.NewQuery(recB)
			if err := trace.CheckInvariants(q); err != nil {
				t.Fatal(err)
			}
			if err := trace.ReconcileAccounting(q, js.Final.Useful, js.Final.Wasted(), js.Wall); err != nil {
				t.Errorf("streamed rollup does not reconcile: %v", err)
			}

			// Retain-off leg: streaming with no post-hoc log at all (the
			// long-running -serve configuration) is just as undisturbed.
			cfgC := sc.cfg()
			stC := tracestream.New(tracestream.Options{})
			cfgC.Recorder = trace.New()
			cfgC.Recorder.SetRetain(false)
			cfgC.Recorder.SetSink(stC)
			resC, err := Run(cfgC)
			if err != nil {
				t.Fatalf("retain-off Run: %v", err)
			}
			if a, c := stripDisk(resA), stripDisk(resC); !reflect.DeepEqual(a, c) {
				t.Fatalf("retain-off streaming perturbed the result:\npost-hoc:   %+v\nretain-off: %+v", a, c)
			}
			jc, ok := stC.Job("job")
			if !ok || jc.Final != resC.Accounting || jc.Wall != resC.WallTime {
				t.Errorf("retain-off stream rollup differs: ok=%v\nstream:   %+v\npost-hoc: %+v",
					ok, jc.Final, resC.Accounting)
			}
		})
	}
}
