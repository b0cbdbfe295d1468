// Streaming-overhead measurement: the chaos grid (benchmark/'s chaos_grid
// workload) run traced with and without a live tracestream sink
// attached. The delta isolates the streaming layer itself — category
// filter, span finalization, window rollups — from the cost of tracing, which
// predates it and is paid either way once a recorder is attached.
package jitckpt_test

import (
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"

	"jitckpt/internal/core"
	"jitckpt/internal/experiments"
	"jitckpt/internal/trace"
	"jitckpt/internal/tracestream"
)

// chaosTraced runs the chaos grid opt names serially with a
// retention-free recorder; when stream is true a live sink consumes every
// event.
func chaosTraced(opt experiments.ChaosOptions, stream bool) error {
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
			if err := chaosTraced(experiments.DefaultChaosOptions(), stream); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// cpuTime is the CPU time the test process has used so far, user and
// system, on all its threads: GC work included, time spent descheduled
// while other processes run excluded.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureStreamingOverhead estimates the streaming layer's relative cost:
// the median over rounds of each round's ratio of the traced chaos grid's
// CPU time with the sink attached to its CPU time with it detached, minus
// one. A round runs the grid cell by cell (one policy and seed), each cell
// with the sink detached and attached back to back. CPU time, not wall
// time, because other processes on a shared machine (the other packages of
// a full go test ./... among them) take the cores in waves larger than the
// budget, and a process accrues no CPU time while it waits for one. Cell
// by cell, because what a wave leaves behind (a colder cache, a busy
// sibling hyperthread) then hits both arms of a cell alike; a whole-grid
// pair is too far apart for that. The median, because a wave that lands
// on one round moves only that round's ratio.
func measureStreamingOverhead(t *testing.T, rounds int) float64 {
	t.Helper()
	grid := experiments.DefaultChaosOptions()
	ratios := make([]float64, rounds)
	cells := 0
	for i := range ratios {
		cost := map[bool]time.Duration{} // by arm: sink attached or not
		for _, policy := range experiments.ChaosPolicies() {
			for _, seed := range grid.Seeds {
				cell := grid
				cell.Policies, cell.Seeds = []core.Policy{policy}, []int64{seed}
				// Alternate which arm runs first: noise that correlates
				// with position inside a pair (a periodic background
				// task, thermal throttle onset) must not always land on
				// the same arm.
				for _, stream := range [][]bool{{false, true}, {true, false}}[cells%2] {
					// Equalize heap state between arms: a collection
					// triggered by the previous run's garbage must not
					// land inside this one.
					runtime.GC()
					start := cpuTime(t)
					if err := chaosTraced(cell, stream); err != nil {
						t.Fatal(err)
					}
					cost[stream] += cpuTime(t) - start
				}
				cells++
			}
		}
		ratios[i] = float64(cost[true]) / float64(cost[false])
	}
	sort.Float64s(ratios)
	overhead := (ratios[(rounds-1)/2]+ratios[rounds/2])/2 - 1
	t.Logf("chaos grid traced, cell by cell: sink on/off CPU-time ratios %.3f, overhead %.2f%%", ratios, 100*overhead)
	return overhead
}

// TestStreamingOverheadGuard enforces the ≤5% budget on the streaming
// layer. The estimate resists load (measureStreamingOverhead), but not
// every wave, and a wave mostly inflates it — so the guard takes up to
// three independent measurements and passes on the first that fits. It fails only when every attempt exceeds the budget, i.e.
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
