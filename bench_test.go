// Package jitckpt's root benchmarks run every table of the evaluation
// through the same registry as cmd/jitbench (BenchmarkTables), the
// paper's Figure 1 scenario, and the simulator's kernel and ablation
// benchmarks. Absolute times in reported metrics are virtual (simulated)
// seconds; the ns/op column measures only the simulator's own speed.
package jitckpt_test

import (
	"testing"

	"jitckpt/internal/core"
	"jitckpt/internal/experiments"
	"jitckpt/internal/failure"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// BenchmarkTables runs every entry of the table registry under -quick,
// one sub-benchmark each. The values the tables print are pinned by
// experiments.TestJitbenchOutput; ns/op is the simulator's own speed.
func BenchmarkTables(b *testing.B) {
	for _, e := range experiments.Tables() {
		b.Run(e.Title, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(experiments.TableRun{Options: experiments.DefaultOptions(), Quick: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig1EndToEnd is the paper's Figure 1 scenario end to end: a
// failure strikes, healthy replicas checkpoint just in time, and the job
// resumes having redone at most one minibatch. The reported metric is the
// number of redone minibatches (JIT's bound is 1).
func BenchmarkFig1EndToEnd(b *testing.B) {
	wl, err := workload.ByName("BERT-B-FT")
	if err != nil {
		b.Fatal(err)
	}
	const iters = 10
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.JobConfig{
			WL: wl, Policy: core.PolicyUserJIT, Iters: iters, Seed: int64(i + 1),
			SpareNodes:   2,
			IterFailures: []core.IterInjection{{Iter: 5, Frac: 0.5, Rank: 7, Kind: failure.GPUHard}},
		})
		if err != nil || !res.Completed {
			b.Fatalf("run %d failed: %v", i, err)
		}
		b.ReportMetric(float64(res.ItersExecuted-iters), "redone-minibatches")
		b.ReportMetric(res.JITCheckpointTime.Sec(), "jit-ckpt-s")
	}
}

// --- Simulator kernel speed (micro-benchmarks; the repo benchmark is benchmark/) ---

// BenchmarkChaosGrid runs the full table 10 chaos grid — the hot-path
// workload benchmark/'s chaos_grid measures end to end. ns/op, allocs/op
// and B/op here are the simulator's own cost; sim-events/s is the kernel
// throughput.
func BenchmarkChaosGrid(b *testing.B) {
	run := func(b *testing.B, workers int) {
		b.ReportAllocs()
		var events uint64
		for i := 0; i < b.N; i++ {
			opt := experiments.DefaultChaosOptions()
			opt.Workers = workers
			rows, err := experiments.RunChaos(opt)
			if err != nil {
				b.Fatal(err)
			}
			events = 0
			for _, row := range rows {
				events += row.Sim.Events()
			}
		}
		b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "sim-events/s")
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, experiments.DefaultWorkers()) })
}

// BenchmarkSteadyTraining measures a failure-free 4-rank training run —
// the allocs/op column is what the buffer-reuse work in internal/train
// drives toward zero marginal cost per iteration.
func BenchmarkSteadyTraining(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.JobConfig{
			WL: experiments.ChaosWorkload(), Policy: core.PolicyNone, Iters: 50, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("steady run incomplete")
		}
	}
}

// --- Ablations (DESIGN.md "design choices worth ablating") ---

// BenchmarkAblationWatchdogTimeout sweeps the hang-detection timeout: a
// longer timeout delays detection (wall time grows) but changes nothing
// about the recovery itself.
func BenchmarkAblationWatchdogTimeout(b *testing.B) {
	wl, err := workload.ByName("BERT-B-FT/V100x8")
	if err != nil {
		b.Fatal(err)
	}
	for _, timeout := range []vclock.Time{2 * vclock.Second, 10 * vclock.Second, 30 * vclock.Second} {
		timeout := timeout
		b.Run(timeout.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.JobConfig{
					WL: wl, Policy: core.PolicyTransparentJIT, Iters: 10, Seed: 1,
					HangTimeout:  timeout,
					IterFailures: []core.IterInjection{{Iter: 5, Frac: 0.4, Rank: 3, Kind: failure.NetworkHang}},
				})
				if err != nil || !res.Completed {
					b.Fatalf("run failed: %v", err)
				}
				b.ReportMetric(res.WallTime.Sec(), "wall-s")
				b.ReportMetric(res.Reports[0].Total().Sec(), "recovery-s")
			}
		})
	}
}

// BenchmarkAblationRecoveryStrategy compares the three §4.2 reset
// strategies: retain buffers (network hang), copy-to-host around a proxy
// restart (driver corruption), and replica copy (sticky error).
func BenchmarkAblationRecoveryStrategy(b *testing.B) {
	wl, err := workload.ByName("GPT2-S/V100x8")
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		kind failure.Kind
	}{
		{"S1-retain-buffers", failure.NetworkHang},
		{"S2-host-roundtrip", failure.DriverCorrupt},
		{"S3-replica-copy", failure.GPUSticky},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.JobConfig{
					WL: wl, Policy: core.PolicyTransparentJIT, Iters: 10, Seed: 1,
					IterFailures: []core.IterInjection{{Iter: 5, Frac: 0.4, Rank: 3, Kind: c.kind}},
				})
				if err != nil || !res.Completed || len(res.Reports) == 0 {
					b.Fatalf("run failed: err=%v", err)
				}
				b.ReportMetric(res.Reports[0].Total().Sec(), "recovery-s")
			}
		})
	}
}

// BenchmarkAblationCheckpointInterval sweeps the periodic checkpointing
// interval under an injected failure, exposing the §5.2 trade-off the
// optimal frequency balances: frequent checkpoints pay steady-state stalls
// but lose little work; infrequent checkpoints redo many minibatches.
func BenchmarkAblationCheckpointInterval(b *testing.B) {
	wl, err := workload.ByName("BERT-B-FT")
	if err != nil {
		b.Fatal(err)
	}
	const iters = 40
	for _, c := range []struct {
		name     string
		interval vclock.Time
	}{
		{"every-4-minibatches", 4 * wl.Minibatch},
		{"every-12-minibatches", 12 * wl.Minibatch},
		{"every-36-minibatches", 36 * wl.Minibatch},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.JobConfig{
					WL: wl, Policy: core.PolicyPCMem, Iters: iters, Seed: 1,
					CkptInterval: c.interval, SpareNodes: 2,
					IterFailures: []core.IterInjection{{Iter: 35, Frac: 0.5, Rank: 7, Kind: failure.GPUHard}},
				})
				if err != nil || !res.Completed {
					b.Fatalf("run failed: %v", err)
				}
				b.ReportMetric(res.Accounting.CkptStall.Sec(), "ckpt-stall-s")
				b.ReportMetric(float64(res.ItersExecuted-iters), "redone-minibatches")
			}
		})
	}
}
