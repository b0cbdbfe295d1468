// Streaming-overhead measurement: the chaos grid (benchmark/'s chaos_grid
// workload) run traced with and without a live tracestream sink
// attached. The delta isolates the streaming layer itself — category
// filter, span finalization, window rollups — from the cost of tracing, which
// predates it and is paid either way once a recorder is attached.
package jitckpt_test

import (
	"runtime"
	"testing"
	"time"

	"jitckpt/internal/experiments"
	"jitckpt/internal/trace"
	"jitckpt/internal/tracestream"
)

// chaosGridTraced runs the serial chaos grid with a retention-free
// recorder; when stream is true a live sink consumes every event.
func chaosGridTraced(stream bool) error {
	opt := experiments.DefaultChaosOptions()
	opt.Workers = 1
	rec := trace.New()
	rec.SetRetain(false)
	if stream {
		rec.SetSink(tracestream.New(tracestream.Options{}))
	}
	opt.Recorder = rec
	_, err := experiments.RunChaos(opt)
	return err
}

// BenchmarkStreamingOverhead reports the chaos grid's wall time with the
// streaming sink off vs on; compare the two sub-benchmarks' ns/op.
func BenchmarkStreamingOverhead(b *testing.B) {
	run := func(b *testing.B, stream bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := chaosGridTraced(stream); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// measureStreamingOverhead estimates the streaming layer's relative
// wall-time cost: interleaved min-of-N times of the traced chaos grid
// with the sink detached vs attached. Min-of-N because the minimum is
// the noise-robust estimator of intrinsic cost on a shared CI machine;
// the pairs are interleaved so frequency drift hits both arms equally.
func measureStreamingOverhead(t *testing.T, rounds int) float64 {
	t.Helper()
	minOff, minOn := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		// Alternate which arm runs first: noise that correlates with
		// position inside a round (a periodic background task, thermal
		// throttle onset) must not always land on the same arm.
		order := []bool{false, true}
		if i%2 == 1 {
			order = []bool{true, false}
		}
		for _, stream := range order {
			// Equalize heap state between arms: a collection triggered by
			// the previous run's garbage must not land inside this one.
			runtime.GC()
			start := time.Now()
			if err := chaosGridTraced(stream); err != nil {
				t.Fatal(err)
			}
			d := time.Since(start)
			if stream && d < minOn {
				minOn = d
			}
			if !stream && d < minOff {
				minOff = d
			}
		}
	}
	overhead := float64(minOn-minOff) / float64(minOff)
	t.Logf("chaos grid traced: sink off %v, sink on %v, overhead %.2f%%", minOff, minOn, 100*overhead)
	return overhead
}

// TestStreamingOverheadGuard enforces the ≤5% budget on the streaming
// layer. Shared machines see multi-second load waves larger than the
// budget itself, and a wave can only inflate the estimate — so the guard
// takes up to three independent measurements and passes on the first
// that fits. It fails only when every attempt exceeds the budget, i.e.
// when the overhead is real rather than one unlucky window.
func TestStreamingOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short")
	}
	const attempts, rounds = 3, 8
	best := 1.0
	for a := 0; a < attempts; a++ {
		overhead := measureStreamingOverhead(t, rounds)
		if overhead < best {
			best = overhead
		}
		if best <= 0.05 {
			return
		}
	}
	t.Errorf("streaming overhead %.2f%% exceeds the 5%% budget in all %d attempts",
		100*best, attempts)
}
