package experiments

import (
	"fmt"
	"math/rand"

	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/metrics"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// ElasticOptions tune the elastic degraded-mode sweep (table 11).
type ElasticOptions struct {
	// Seeds drive the Poisson failure/repair draws; each cell aggregates
	// one run per seed.
	Seeds []int64
	// Iters is the useful-minibatch count per run.
	Iters int
	// MTBFs are the job-level mean-time-between-failure points swept
	// (short, to land several failures inside a seconds-long run).
	MTBFs []vclock.Time
	// Recorder, when set, collects the structured event trace of every
	// sweep run (each under its own run ID).
	Recorder *trace.Recorder
	// Workers caps the number of concurrent runs in the sweep (0 or 1 =
	// serial). Rows, metrics and merged traces are byte-identical to a
	// serial sweep regardless of the worker count.
	Workers int
}

// DefaultElasticOptions returns the standard sweep configuration.
func DefaultElasticOptions() ElasticOptions {
	return ElasticOptions{
		Seeds: []int64{3, 7, 11},
		Iters: 200,
		MTBFs: []vclock.Time{2 * vclock.Second, 3 * vclock.Second, 12 * vclock.Second},
	}
}

const (
	// elasticMaxSpares ends table 11's spare-node axis, which starts at 0.
	elasticMaxSpares = 1
	// jobMeanRepair is the mean hardware-replacement turnaround tables 11
	// and 14 append after every node-destroying failure
	// (failure.Plan.WithRepairs).
	jobMeanRepair = 3 * vclock.Second
	// jobPlanHorizon bounds those tables' failure plans (not the
	// simulation).
	jobPlanHorizon = 10 * vclock.Second
)

// elasticMix weights the failure draw toward node-destroying kinds: the
// sweep exists to exhaust the spare pool, which network blips never do.
func elasticMix() map[failure.Kind]float64 {
	return map[failure.Kind]float64{
		failure.GPUHard:     0.35,
		failure.NodeDown:    0.45,
		failure.NetworkHang: 0.20,
	}
}

// ElasticRow is one (policy, MTBF, spares) cell aggregated over seeds.
type ElasticRow struct {
	Policy core.Policy
	MTBF   vclock.Time
	Spares int
	// Runs and Completed count the seeds and how many of them finished
	// all iterations (at any width); FullWidth counts completions whose
	// final incarnation ran the full topology.
	Runs      int
	Completed int
	FullWidth int
	// Shrinks and Expands total the elastic transitions across seeds.
	Shrinks int
	Expands int
	// DegradedIters totals iterations executed below full width.
	DegradedIters int
	// UsefulFrac and WaitFrac are mean useful-time and
	// waiting-for-capacity fractions of wall time.
	UsefulFrac float64
	WaitFrac   float64
}

// ElasticPolicies lists the sweep's comparison pair: fixed-width
// user-level JIT (which gives up when spares run out) against its
// elastic variant (which shrinks, trains degraded, and re-expands).
func ElasticPolicies() []core.Policy {
	return []core.Policy{core.PolicyUserJIT, core.PolicyElasticJIT}
}

// RunElasticSweep executes the MTBF × spare-count grid behind table 11.
// Per cell and seed, a Poisson failure plan (hardware-heavy mix) with
// exponentially delayed repairs is run under both the fixed-width and
// elastic user-level JIT policies.
func RunElasticSweep(opt ElasticOptions) ([]ElasticRow, error) {
	wl := ChaosWorkload()
	mix := elasticMix()

	type cell struct {
		mtbf   vclock.Time
		spares int
		policy core.Policy
		seed   int64
	}
	var cells []cell
	for _, mtbf := range opt.MTBFs {
		for spares := 0; spares <= elasticMaxSpares; spares++ {
			for _, policy := range ElasticPolicies() {
				for _, seed := range opt.Seeds {
					cells = append(cells, cell{mtbf, spares, policy, seed})
				}
			}
		}
	}
	type runResult struct {
		completed        bool
		shrinks, expands int
		degraded         int
		useful, wait     float64
	}
	runs, err := sweep(cells, opt.Workers, opt.Recorder, func(c cell, rec *trace.Recorder) (r runResult, err error) {
		rng := rand.New(rand.NewSource(c.seed*211 + int64(c.mtbf/vclock.Millisecond)))
		// Job-level MTBF m over n GPUs means a per-GPU daily rate of
		// day/(m·n).
		fPerGPUDay := float64(vclock.Day) / (float64(c.mtbf) * float64(wl.GPUs()))
		plan := failure.PoissonPlan(rng, wl.Topo.World(), fPerGPUDay, jobPlanHorizon, mix).
			WithRepairs(rng, jobMeanRepair, 0)
		res, err := core.Run(core.JobConfig{
			WL: wl, Policy: c.policy, Iters: opt.Iters, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: c.spares,
			Failures: plan,
			Recorder: rec,
		})
		if err != nil {
			return r, fmt.Errorf("elastic sweep %v mtbf=%v spares=%d seed=%d: %w",
				c.policy, c.mtbf, c.spares, c.seed, err)
		}
		r = runResult{
			completed: res.Completed,
			shrinks:   res.Shrinks,
			expands:   res.Expands,
			degraded:  res.Accounting.DegradedIters,
		}
		if res.WallTime > 0 {
			r.useful = float64(res.Accounting.Useful) / float64(res.WallTime)
			r.wait = float64(res.Accounting.WaitingForCapacity) / float64(res.WallTime)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	var rows []ElasticRow
	for i := 0; i < len(cells); i += len(opt.Seeds) {
		c := cells[i]
		row := ElasticRow{Policy: c.policy, MTBF: c.mtbf, Spares: c.spares}
		var usefulSum, waitSum float64
		for _, r := range runs[i : i+len(opt.Seeds)] {
			row.Runs++
			if r.completed {
				row.Completed++
				// Full width iff the run never shrank or expanded back.
				if r.shrinks == 0 || r.expands > 0 {
					row.FullWidth++
				}
			}
			row.Shrinks += r.shrinks
			row.Expands += r.expands
			row.DegradedIters += r.degraded
			usefulSum += r.useful
			waitSum += r.wait
		}
		row.UsefulFrac = usefulSum / float64(row.Runs)
		row.WaitFrac = waitSum / float64(row.Runs)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderElasticSweep formats table 11.
func RenderElasticSweep(rows []ElasticRow) *metrics.Table {
	t := metrics.NewTable("Elastic degraded-mode recovery: completion and useful time by MTBF and spare count",
		"Policy", "MTBF", "Spares", "Completed", "Full-width", "Shrinks", "Expands",
		"Degraded iters", "Useful %", "Waiting %")
	for _, r := range rows {
		t.Row(r.Policy.String(), r.MTBF.String(), r.Spares,
			fmt.Sprintf("%d/%d", r.Completed, r.Runs),
			fmt.Sprintf("%d/%d", r.FullWidth, r.Runs),
			r.Shrinks, r.Expands, r.DegradedIters,
			fmt.Sprintf("%.1f", 100*r.UsefulFrac),
			fmt.Sprintf("%.1f", 100*r.WaitFrac))
	}
	return t
}
