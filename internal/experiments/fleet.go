package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"jitckpt/internal/cluster"
	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/metrics"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// FleetGroup is one slice of a fleet job mix: a policy name (fleet name
// set, see FleetPolicies), its weight in the mix, and the priority its
// tenants are admitted at.
type FleetGroup struct {
	Policy   string
	Weight   float64
	Priority int
}

// FleetMix is a named tenant composition for the fleet sweep.
type FleetMix struct {
	Name   string
	Groups []FleetGroup
}

// FleetPolicies is the policy name set fleet mixes draw from.
func FleetPolicies() map[string]core.Policy {
	return map[string]core.Policy{
		"pc_disk":     core.PolicyPCDisk,
		"userjit":     core.PolicyUserJIT,
		"jit+elastic": core.PolicyElasticJIT,
	}
}

// DefaultFleetMixes returns the sweep's job-mix axis: an all-periodic
// fleet (the provisioned-checkpoint baseline), an all-JIT fleet, and the
// realistic mixed fleet — mostly elastic JIT tenants, a periodic
// minority, and a small high-priority band whose recoveries preempt.
func DefaultFleetMixes() []FleetMix {
	return []FleetMix{
		{Name: "periodic", Groups: []FleetGroup{{Policy: "pc_disk", Weight: 1}}},
		{Name: "jit", Groups: []FleetGroup{{Policy: "userjit", Weight: 1}}},
		{Name: "mixed", Groups: []FleetGroup{
			{Policy: "jit+elastic", Weight: 0.5},
			{Policy: "pc_disk", Weight: 0.3},
			{Policy: "userjit", Weight: 0.15, Priority: 1},
			{Policy: "pc_disk", Weight: 0.05, Priority: 5},
		}},
	}
}

// FleetOptions tune the fleet-level sweep (table 12).
type FleetOptions struct {
	// Seeds drive the shared environment and the Poisson failure draws;
	// each cell aggregates one fleet run per seed.
	Seeds []int64
	// Jobs is the tenant count per sweep cell.
	Jobs int
	// HeadlineJobs sizes one extra cell — the mixed fleet at scale, run
	// once on the first MTBF and last spare fraction (0 = skip it).
	HeadlineJobs int
	// HeadlineIters is the per-tenant iteration count of the headline
	// cell, kept short so scale (tenant count) rather than per-tenant
	// work dominates its cost.
	HeadlineIters int
	// Iters is the per-tenant useful-minibatch count.
	Iters int
	// Mixes is the job-mix axis.
	Mixes []FleetMix
	// MTBFs is the per-node mean-time-between-failure axis.
	MTBFs []vclock.Time
	// SpareFracs is the spare-capacity axis: the cluster is sized at
	// aggregate demand × (1 + frac).
	SpareFracs []float64
	// MeanRepair is the mean hardware-replacement turnaround appended
	// after every node-destroying failure.
	MeanRepair vclock.Time
	// RackSize is the shared failure-domain width in nodes.
	RackSize int
	// Horizon bounds each fleet simulation.
	Horizon vclock.Time
	// Recorder, when set, collects the structured event trace of every
	// fleet run (each under its own run ID).
	Recorder *trace.Recorder
	// Workers caps concurrent fleet runs (0 or 1 = serial). Rows, metrics
	// and merged traces are byte-identical to a serial sweep regardless.
	Workers int
}

// DefaultFleetOptions returns the standard sweep configuration: tenants
// whose useful work spans half the horizon (so failures land on running
// jobs, not an idle cluster), node MTBFs short enough to fan several
// faults into every fleet, and a headline cell running the mixed fleet
// at 500 concurrent tenants.
func DefaultFleetOptions() FleetOptions {
	return FleetOptions{
		Seeds:         []int64{3, 7},
		Jobs:          12,
		HeadlineJobs:  500,
		HeadlineIters: 50,
		Iters:         400,
		Mixes:         DefaultFleetMixes(),
		MTBFs:         []vclock.Time{20 * vclock.Second, 90 * vclock.Second},
		SpareFracs:    []float64{0, 0.25},
		MeanRepair:    10 * vclock.Second,
		RackSize:      4,
		Horizon:       40 * vclock.Second,
	}
}

// FleetRow is one (mix, MTBF, spare fraction) cell aggregated over seeds.
type FleetRow struct {
	Mix       string
	MTBF      vclock.Time
	SpareFrac float64
	Jobs      int
	Nodes     int
	Runs      int
	// Completed totals finished tenants across seeds (out of Jobs × Runs).
	Completed int
	// Goodput is the mean goodput-weighted cluster utilization.
	Goodput float64
	// DownFrac and IdleFrac are mean node-time fractions.
	DownFrac float64
	IdleFrac float64
	// Preemptions and Episodes total arbiter preemptions and per-tenant
	// recovery episodes across seeds.
	Preemptions int
	Episodes    int
	// P95Latency is the worst per-seed 95th-percentile recovery latency.
	P95Latency vclock.Time
}

// fleetSpec renders a mix at a tenant count as a cluster jobs spec,
// rounding group counts to weights and giving any remainder to the first
// (largest-weight by convention) group.
func fleetSpec(mix FleetMix, jobs, iters int) string {
	counts := make([]int, len(mix.Groups))
	total := 0
	for i, g := range mix.Groups {
		counts[i] = int(math.Round(g.Weight * float64(jobs)))
		total += counts[i]
	}
	counts[0] += jobs - total
	var parts []string
	for i, g := range mix.Groups {
		if counts[i] <= 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%dx%s@%d:%d", counts[i], g.Policy, g.Priority, iters))
	}
	return strings.Join(parts, ",")
}

// RunFleetSweep executes the job-mix × MTBF × spare-fraction grid behind
// table 12. Every cell is one shared-cluster simulation per seed: all
// tenants lease nodes from one arbitrated pool, failures are
// cluster-scoped (a rack loss fans out to every tenant in the rack), and
// the per-cell metrics come from the cluster's exactly reconciled fleet
// accounting.
func RunFleetSweep(opt FleetOptions) ([]FleetRow, error) {
	policies := FleetPolicies()
	perJob := cluster.FleetWorkload().Nodes

	type cell struct {
		mix   FleetMix
		mtbf  vclock.Time
		frac  float64
		seed  int64
		jobs  int
		iters int
		agg   int // row index this cell aggregates into
		nodes int
	}
	var cells []cell
	var rows []FleetRow
	addCell := func(mix FleetMix, mtbf vclock.Time, frac float64, jobs, iters int, seeds []int64) {
		demand := jobs * perJob
		nodes := demand + int(math.Ceil(frac*float64(demand)))
		rows = append(rows, FleetRow{
			Mix: mix.Name, MTBF: mtbf, SpareFrac: frac, Jobs: jobs, Nodes: nodes,
		})
		for _, seed := range seeds {
			cells = append(cells, cell{mix, mtbf, frac, seed, jobs, iters, len(rows) - 1, nodes})
		}
	}
	for _, mix := range opt.Mixes {
		for _, mtbf := range opt.MTBFs {
			for _, frac := range opt.SpareFracs {
				addCell(mix, mtbf, frac, opt.Jobs, opt.Iters, opt.Seeds)
			}
		}
	}
	if opt.HeadlineJobs > 0 {
		addCell(opt.Mixes[len(opt.Mixes)-1], opt.MTBFs[0],
			opt.SpareFracs[len(opt.SpareFracs)-1], opt.HeadlineJobs, opt.HeadlineIters, opt.Seeds[:1])
	}

	results, err := sweep(cells, opt.Workers, opt.Recorder, func(c cell, rec *trace.Recorder) (*cluster.Result, error) {
		jobs, err := cluster.ParseJobsSpec(fleetSpec(c.mix, c.jobs, c.iters), policies, c.iters)
		if err != nil {
			return nil, fmt.Errorf("fleet sweep %s: %w", c.mix.Name, err)
		}
		// Per-node MTBF m means a per-node daily rate of day/m.
		fPerNodePerDay := float64(vclock.Day) / float64(c.mtbf)
		rng := rand.New(rand.NewSource(c.seed*127 + int64(c.nodes)))
		plan := failure.PoissonPlan(rng, c.nodes, fPerNodePerDay, opt.Horizon, failure.DefaultNodeMix()).
			WithRepairs(rand.New(rand.NewSource(c.seed*131+int64(c.nodes))), opt.MeanRepair, opt.RackSize)
		res, err := cluster.Run(cluster.Config{
			Nodes:    c.nodes,
			PerNode:  cluster.FleetWorkload().PerNode,
			RackSize: opt.RackSize,
			Seed:     c.seed,
			Horizon:  opt.Horizon,
			Jobs:     jobs,
			Failures: plan,
			Recorder: rec,
		})
		if err == nil {
			err = res.Reconcile()
		}
		if err != nil {
			return nil, fmt.Errorf("fleet sweep %s mtbf=%v frac=%.2f seed=%d: %w",
				c.mix.Name, c.mtbf, c.frac, c.seed, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	runsPerRow := make([]int, len(rows))
	for i, c := range cells {
		res := results[i]
		row := &rows[c.agg]
		f := res.Fleet
		runsPerRow[c.agg]++
		row.Runs++
		row.Completed += f.JobsCompleted
		row.Goodput += f.Goodput
		total := float64(f.Nodes) * float64(f.Wall)
		if total > 0 {
			row.DownFrac += float64(f.DownNodeTime) / total
			row.IdleFrac += float64(f.IdleNodeTime) / total
		}
		row.Preemptions += f.Preemptions
		row.Episodes += f.RecoveryEpisodes
		if f.RecoveryLatency.P95 > row.P95Latency {
			row.P95Latency = f.RecoveryLatency.P95
		}
	}
	for i := range rows {
		if n := float64(runsPerRow[i]); n > 0 {
			rows[i].Goodput /= n
			rows[i].DownFrac /= n
			rows[i].IdleFrac /= n
		}
	}
	return rows, nil
}

// RenderFleetSweep formats table 12.
func RenderFleetSweep(rows []FleetRow) *metrics.Table {
	t := metrics.NewTable("Fleet-level recovery: goodput and preemption under shared failure domains by job mix, node MTBF and spare fraction",
		"Mix", "Jobs", "Nodes", "MTBF", "Spare %", "Completed", "Goodput %",
		"Idle %", "Down %", "Preempt", "Episodes", "P95 rec")
	for _, r := range rows {
		t.Row(r.Mix, r.Jobs, r.Nodes, r.MTBF.String(),
			fmt.Sprintf("%.0f", 100*r.SpareFrac),
			fmt.Sprintf("%d/%d", r.Completed, r.Jobs*r.Runs),
			fmt.Sprintf("%.1f", 100*r.Goodput),
			fmt.Sprintf("%.1f", 100*r.IdleFrac),
			fmt.Sprintf("%.1f", 100*r.DownFrac),
			r.Preemptions, r.Episodes, r.P95Latency.String())
	}
	return t
}
