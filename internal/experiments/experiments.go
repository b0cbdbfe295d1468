// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) from the simulation, following the paper's own
// methodology: steady-state overheads are measured per checkpoint and
// composed with the optimal frequency of §5.2 (as Table 3's caption says),
// recovery times are measured from fault detection through replay
// completion excluding cross-rank waits, and the scaling analysis (Table
// 8) combines the §5 model with measured constants.
package experiments

import (
	"fmt"

	"jitckpt/internal/analysis"
	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/metrics"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// FailureRate is the per-GPU failure rate used throughout the evaluation:
// the OPT-175B job's ≈2 failures/day over 992 GPUs (§5.1, §6.3).
const FailureRate = 2.0 / 992

// Options tune experiment runs.
type Options struct {
	// Iters is the minibatch count per measurement run.
	Iters int
	// Seed drives the simulations.
	Seed int64
	// Recorder, when set, collects the structured event trace of every
	// measurement run (each under its own run ID).
	Recorder *trace.Recorder
	// Workers caps the number of concurrently measured models in the
	// per-model tables (0 or 1 = serial). Each model's runs are
	// independent simulations, so tables and traces are byte-identical to
	// a serial run regardless of the worker count.
	Workers int
}

// DefaultOptions returns the standard measurement configuration.
func DefaultOptions() Options { return Options{Iters: 10, Seed: 1} }

// steadyMinibatch measures the steady-state minibatch time under a policy
// with no failures.
func steadyMinibatch(wl workload.Workload, policy core.Policy, opt Options) (vclock.Time, error) {
	res, err := core.Run(core.JobConfig{
		WL: wl, Policy: policy, Iters: opt.Iters, Seed: opt.Seed,
		Recorder: opt.Recorder,
	})
	if err != nil {
		return 0, err
	}
	if !res.Completed {
		return 0, fmt.Errorf("experiments: %s under %v did not complete", wl.Name, policy)
	}
	return res.Minibatch, nil
}

// Table1 renders the qualitative solution matrix.
func Table1() *metrics.Table {
	t := metrics.NewTable("Table 1: Summary of error recovery solutions",
		"#", "Solution", "Errors Handled", "User Code Change?")
	for _, s := range core.Solutions() {
		change := "No"
		if s.UserCodeChange {
			change = "Yes"
		}
		t.Row(s.Num, s.Name, s.ErrorsHandled, change)
	}
	return t
}

// Table2 renders the workload catalogue.
func Table2() *metrics.Table {
	t := metrics.NewTable("Table 2: Experimental workloads",
		"Model", "#Params(B)", "#GPUs", "Parallelism", "Framework", "GPU")
	for _, name := range workload.Table2Names() {
		wl, err := workload.ByName(name)
		if err != nil {
			continue
		}
		t.Row(wl.Name, wl.ParamsB, wl.GPUs(), wl.Topo.String(), wl.Framework, wl.GPU)
	}
	return t
}

// Table3Row is one model's steady-state checkpointing overhead fractions.
type Table3Row struct {
	Model     string
	PCDisk    float64
	PCMem     float64
	CheckFreq float64
	PCDaily   float64
	JITC      float64
}

// Table3Models lists the models the paper's Table 3 covers.
func Table3Models() []string {
	return []string{"GPT2-S", "GPT2-XL", "GPT2-8B", "GPT2-18B", "BERT-L-PT", "BERT-B-FT"}
}

// RunTable3 measures steady-state checkpoint overheads. Per the paper's
// methodology, the per-checkpoint stall is measured in a short run with a
// forced checkpoint, then composed with the optimal frequency c* for the
// model (or one/day for PC_1/day). The JIT-C column is the measured
// increase in minibatch time from interception and replay logging.
func RunTable3(models []string, opt Options) ([]Table3Row, error) {
	return sweep(models, opt.Workers, opt.Recorder, func(name string, rec *trace.Recorder) (row Table3Row, err error) {
		mopt := opt
		mopt.Recorder = rec
		wl, err := workload.ByName(name)
		if err != nil {
			return row, err
		}
		row.Model = name

		base, err := steadyMinibatch(wl, core.PolicyNone, mopt)
		if err != nil {
			return row, err
		}

		// Per-checkpoint stall per policy, from a run with one forced
		// checkpoint.
		stall := func(policy core.Policy) (float64, error) {
			res, err := core.Run(core.JobConfig{
				WL: wl, Policy: policy, Iters: mopt.Iters, Seed: mopt.Seed,
				Recorder:     rec,
				CkptInterval: 4 * wl.Minibatch, // force a couple of checkpoints
			})
			if err != nil {
				return 0, err
			}
			if !res.Completed || res.Accounting.Checkpoints == 0 {
				return 0, fmt.Errorf("experiments: %s %v ckpt run incomplete", name, policy)
			}
			return res.Accounting.CkptStall.Sec() / float64(res.Accounting.Checkpoints), nil
		}
		oDisk, err := stall(core.PolicyPCDisk)
		if err != nil {
			return row, err
		}
		oMem, err := stall(core.PolicyPCMem)
		if err != nil {
			return row, err
		}
		oCF, err := stall(core.PolicyCheckFreq)
		if err != nil {
			return row, err
		}

		// Overhead fraction = per-checkpoint stall × checkpoint frequency.
		frac := func(o float64) float64 {
			p := analysis.Params{O: o, F: analysis.PerDay(FailureRate), N: wl.GPUs()}
			c := analysis.OptimalFrequency(p)
			return o * c
		}
		row.PCDisk = frac(oDisk)
		row.PCMem = frac(oMem)
		row.CheckFreq = frac(oCF)
		row.PCDaily = oMem / 86400 // one PC_mem-style checkpoint per day

		// JIT steady-state overhead: minibatch delta under interception.
		jit, err := steadyMinibatch(wl, core.PolicyUserJIT, mopt)
		if err != nil {
			return row, err
		}
		row.JITC = max((jit-base).Sec(), 0) / base.Sec()
		return row, nil
	})
}

// RenderTable3 formats Table 3 as percentages, like the paper.
func RenderTable3(rows []Table3Row) *metrics.Table {
	t := metrics.NewTable("Table 3: Checkpointing overhead percentages (at optimal frequency)",
		"Model", "PC_disk", "PC_mem", "CheckFreq", "PC_1/day", "JIT-C")
	for _, r := range rows {
		t.Row(r.Model,
			fmt.Sprintf("%.3f%%", 100*r.PCDisk),
			fmt.Sprintf("%.3f%%", 100*r.PCMem),
			fmt.Sprintf("%.3f%%", 100*r.CheckFreq),
			fmt.Sprintf("%.4f%%", 100*r.PCDaily),
			fmt.Sprintf("%.4f%%", 100*r.JITC))
	}
	return t
}

// Table4Row is one model's user-level JIT measurement.
type Table4Row struct {
	Model     string
	Ckpt      vclock.Time
	Restore   vclock.Time
	Recovery  vclock.Time
	Minibatch vclock.Time
	Overhead  float64 // seconds per minibatch added in steady state
}

// Table4Models lists the paper's Table 4 workloads.
func Table4Models() []string {
	return []string{"BERT-L-PT", "BERT-B-FT", "GPT2-S", "GPT2-XL", "GPT2-8B", "GPT2-18B", "T5-3B", "ViT"}
}

// RunTable4 measures user-level JIT checkpointing: a hard error is
// injected mid-training; the healthy replicas checkpoint just in time and
// the job restarts from that checkpoint.
func RunTable4(models []string, opt Options) ([]Table4Row, error) {
	return sweep(models, opt.Workers, opt.Recorder, func(name string, rec *trace.Recorder) (row Table4Row, err error) {
		f, err := oneFault(name, core.PolicyUserJIT, failure.GPUHard, true, opt, rec)
		if err != nil {
			return row, err
		}
		return Table4Row{
			Model:     name,
			Ckpt:      f.res.JITCheckpointTime,
			Restore:   f.res.RestoreTime,
			Recovery:  f.res.JITCheckpointTime + f.res.RestoreTime,
			Minibatch: f.res.Minibatch,
			Overhead:  f.over,
		}, nil
	})
}

// RenderTable4 formats Table 4.
func RenderTable4(rows []Table4Row) *metrics.Table {
	t := metrics.NewTable("Table 4: User-level JIT checkpoint/restore/recovery times (s)",
		"Model", "Checkpoint", "Restore", "JIT Recovery", "Minibatch", "Overhead")
	for _, r := range rows {
		t.Row(r.Model, r.Ckpt, r.Restore, r.Recovery,
			fmt.Sprintf("%.3f", r.Minibatch.Sec()),
			fmt.Sprintf("%.5f", r.Overhead))
	}
	return t
}

// faultRun is one run of the one-fault measurement behind Tables 4–7.
type faultRun struct {
	wl  workload.Workload
	res *core.RunResult
	// over is the run's minibatch time above the failure-free one, in
	// seconds and clamped at zero; measured only when asked for.
	over float64
}

// oneFault is the one-fault measurement behind Tables 4–7: name's workload
// runs under policy, and one fault of kind strikes the failTarget rank 40 %
// into the middle minibatch. A hard fault migrates, so it gets a standby
// pool. With overhead set, the failure-free minibatch is measured first.
func oneFault(name string, policy core.Policy, kind failure.Kind, overhead bool, opt Options, rec *trace.Recorder) (f faultRun, err error) {
	opt.Recorder = rec
	if f.wl, err = workload.ByName(name); err != nil {
		return f, err
	}
	var base vclock.Time
	if overhead {
		if base, err = steadyMinibatch(f.wl, core.PolicyNone, opt); err != nil {
			return f, err
		}
	}
	cfg := core.JobConfig{
		WL: f.wl, Policy: policy, Iters: opt.Iters, Seed: opt.Seed,
		Recorder:     rec,
		IterFailures: []core.IterInjection{{Iter: opt.Iters / 2, Frac: 0.4, Rank: failTarget(f.wl), Kind: kind}},
	}
	if kind == failure.GPUHard {
		cfg.SpareNodes = spareNodesFor(f.wl)
	}
	if f.res, err = core.Run(cfg); err != nil {
		return f, err
	}
	// One recovery: a transparent episode, or else one restart.
	recovered := f.res.Incarnations == 2
	if policy.Info().Transparent {
		recovered = len(f.res.Reports) > 0
	}
	if !f.res.Completed || !recovered {
		return f, fmt.Errorf("experiments: %s %v run after one %v incomplete (incarnations=%d, reports=%d)",
			name, policy, kind, f.res.Incarnations, len(f.res.Reports))
	}
	if overhead {
		f.over = max((f.res.Minibatch - base).Sec(), 0)
	}
	return f, nil
}

// failTarget picks the rank to fail: a data-parallel replica that is not
// the reference (loss-reporting) rank.
func failTarget(wl workload.Workload) int {
	return wl.Topo.Rank(wl.Topo.D-1, 0, 0)
}

// spareNodesFor sizes the standby pool for migrations.
func spareNodesFor(wl workload.Workload) int {
	if wl.Nodes >= 4 {
		return wl.Nodes
	}
	return wl.Nodes + 1
}
