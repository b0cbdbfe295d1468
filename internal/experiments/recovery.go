package experiments

import (
	"fmt"
	"math/rand"

	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/metrics"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// RecoverySize is one point of table 14's model-size axis.
type RecoverySize struct {
	Name string
	// ParamsB scales the checkpointed state (billions of parameters).
	ParamsB float64
	// Hidden scales the simulated model's layer width.
	Hidden int
}

// RecoveryFamiliesOptions tune the recovery-family sweep (table 14).
type RecoveryFamiliesOptions struct {
	// Seeds drive the Poisson failure draws; each cell aggregates one run
	// per seed.
	Seeds []int64
	// Iters is the useful-minibatch count per run.
	Iters int
	// MTBFs are the job-level mean-time-between-failure points swept.
	MTBFs []vclock.Time
	// Intervals are the checkpoint-interval points swept. Of the policies
	// with no periodic writer only transparent JIT ignores the axis: the
	// others run a heartbeat whose stall threshold carries the interval.
	Intervals []vclock.Time
	// Sizes is the model-size axis.
	Sizes []RecoverySize
	// Recorder, when set, collects the structured event trace of every
	// sweep run; Workers caps sweep concurrency (byte-identical to
	// serial at any setting).
	Recorder *trace.Recorder
	Workers  int
}

// DefaultRecoveryFamiliesOptions returns the standard table 14 grid.
func DefaultRecoveryFamiliesOptions() RecoveryFamiliesOptions {
	return RecoveryFamiliesOptions{
		Seeds: []int64{3, 7},
		Iters: 80,
		MTBFs: []vclock.Time{3 * vclock.Second, 12 * vclock.Second},
		Intervals: []vclock.Time{
			200 * vclock.Millisecond, // 4 minibatches
			600 * vclock.Millisecond, // 12 minibatches
		},
		Sizes: []RecoverySize{
			{"small", 0.004, 8},
			{"large", 0.016, 16},
		},
	}
}

// RecoveryFamilyPolicies lists table 14's comparison set: the five
// existing recovery families — periodic disk, user-level JIT, transparent
// JIT, peer shelter, elastic JIT — against the two new ones, multi-step
// overlapped disk and checkpoint-free pipeline recovery.
func RecoveryFamilyPolicies() []core.Policy {
	return []core.Policy{
		core.PolicyPCDisk, core.PolicyUserJIT, core.PolicyTransparentJIT,
		core.PolicyPeerShelter, core.PolicyElasticJIT,
		core.PolicyMultiStepDisk, core.PolicyPipeFree,
	}
}

// recoveryWorkload returns the sweep's cluster for one model size: eight
// single-GPU nodes running a 2-way-data-parallel, 4-stage pipeline — the
// smallest geometry on which every family (including the pipeline-stage
// redundancy tier) is runnable.
func recoveryWorkload(sz RecoverySize) workload.Workload {
	return workload.Tiny("recovery-"+sz.Name, "recovery", 8, 1, train.Topology{D: 2, P: 4, T: 1}, sz.ParamsB, 4, sz.Hidden)
}

// recoveryMix weights the failure draw toward hardware kinds: the sweep
// compares recovery families, which network blips barely exercise.
func recoveryMix() map[failure.Kind]float64 {
	return map[failure.Kind]float64{
		failure.GPUHard:     0.40,
		failure.NodeDown:    0.40,
		failure.NetworkHang: 0.20,
	}
}

// RecoveryRow is one (size, MTBF, interval, policy) cell of table 14,
// aggregated over seeds.
type RecoveryRow struct {
	Size     string
	MTBF     vclock.Time
	Interval vclock.Time
	Policy   core.Policy
	// Runs and Completed count the seeds and how many finished.
	Runs      int
	Completed int
	// WastedFrac is the mean non-useful fraction of wall time.
	WastedFrac float64
	// CkptReadBytes totals the modelled restore-path checkpoint reads
	// across seeds — zero for checkpoint-free recoveries.
	CkptReadBytes int64
	// Rebuilds and MultiStepCommits total the new families' activity.
	Rebuilds         int
	MultiStepCommits int
}

// RunRecoveryFamilies executes the MTBF × checkpoint-interval × model-size
// grid behind table 14: every recovery family runs the same seeded Poisson
// failure plans and reports its wasted-time fraction and restore-path
// byte traffic. Cells run independently, so the grid parallelizes with
// byte-identical output.
func RunRecoveryFamilies(opt RecoveryFamiliesOptions) ([]RecoveryRow, error) {
	mix := recoveryMix()

	type cell struct {
		size     RecoverySize
		mtbf     vclock.Time
		interval vclock.Time
		policy   core.Policy
		seed     int64
	}
	var cells []cell
	for _, sz := range opt.Sizes {
		for _, mtbf := range opt.MTBFs {
			for _, interval := range opt.Intervals {
				for _, policy := range RecoveryFamilyPolicies() {
					for _, seed := range opt.Seeds {
						cells = append(cells, cell{sz, mtbf, interval, policy, seed})
					}
				}
			}
		}
	}
	type runResult struct {
		completed bool
		wasted    float64
		readBytes int64
		rebuilds  int
		commits   int
	}
	runs, err := sweep(cells, opt.Workers, opt.Recorder, func(c cell, rec *trace.Recorder) (r runResult, err error) {
		wl := recoveryWorkload(c.size)
		rng := rand.New(rand.NewSource(c.seed*439 + int64(c.mtbf/vclock.Millisecond)))
		fPerGPUDay := float64(vclock.Day) / (float64(c.mtbf) * float64(wl.GPUs()))
		plan := failure.PoissonPlan(rng, wl.Topo.World(), fPerGPUDay, jobPlanHorizon, mix).
			WithRepairs(rng, jobMeanRepair, 0)
		res, err := core.Run(core.JobConfig{
			WL: wl, Policy: c.policy, Iters: opt.Iters, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: spareNodesFor(wl),
			CkptInterval: c.interval,
			Failures:     plan,
			Recorder:     rec,
		})
		if err != nil {
			return r, fmt.Errorf("recovery sweep %v %s mtbf=%v interval=%v seed=%d: %w",
				c.policy, c.size.Name, c.mtbf, c.interval, c.seed, err)
		}
		r = runResult{
			completed: res.Completed,
			readBytes: res.CkptReadBytes,
			rebuilds:  res.Pipe.Rebuilds,
			commits:   res.MultiStepCommits,
		}
		if res.WallTime > 0 {
			r.wasted = 1 - float64(res.Accounting.Useful)/float64(res.WallTime)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	var rows []RecoveryRow
	for i := 0; i < len(cells); i += len(opt.Seeds) {
		c := cells[i]
		row := RecoveryRow{Size: c.size.Name, MTBF: c.mtbf, Interval: c.interval, Policy: c.policy}
		var wastedSum float64
		for _, r := range runs[i : i+len(opt.Seeds)] {
			row.Runs++
			if r.completed {
				row.Completed++
			}
			wastedSum += r.wasted
			row.CkptReadBytes += r.readBytes
			row.Rebuilds += r.rebuilds
			row.MultiStepCommits += r.commits
		}
		row.WastedFrac = wastedSum / float64(row.Runs)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderRecoveryFamilies formats table 14.
func RenderRecoveryFamilies(rows []RecoveryRow) *metrics.Table {
	t := metrics.NewTable("Table 14: Recovery families under failure (wasted time and restore traffic by MTBF, interval, model size)",
		"Model", "MTBF", "Interval", "Policy", "Completed", "Wasted %", "Ckpt read MB", "Rebuilds", "MS commits")
	for _, r := range rows {
		t.Row(r.Size, r.MTBF.String(), r.Interval.String(), r.Policy.String(),
			fmt.Sprintf("%d/%d", r.Completed, r.Runs),
			fmt.Sprintf("%.1f", 100*r.WastedFrac),
			fmt.Sprintf("%.1f", float64(r.CkptReadBytes)/1e6),
			r.Rebuilds, r.MultiStepCommits)
	}
	return t
}
