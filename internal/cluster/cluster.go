// Package cluster runs many concurrent training jobs in one simulated
// cluster — the fleet-level view of just-in-time checkpointing. It
// inverts the single-job harness's ownership model: the cluster owns the
// virtual-time environment, the nodes and the allocator; jobs lease
// capacity through a priority-arbitrated Capacity interface and share
// failure domains, so one rack loss fans out to every tenant with ranks
// in that rack and the spare pool is a fleet-wide resource.
//
// Determinism is preserved end to end: one seed drives one environment,
// jobs are admitted in spec order, every arbitration decision iterates
// slices (never maps), and the whole run — including the merged trace —
// is byte-identical across repetitions.
package cluster

import (
	"errors"
	"fmt"
	"sort"

	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/gpu"
	"jitckpt/internal/scheduler"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// JobSpec is one tenant in the fleet.
type JobSpec struct {
	// Name labels the job in traces and results ("job<i>" if empty).
	Name string
	// Priority orders capacity arbitration: higher-priority demand
	// reserves freed nodes and can preempt lower-priority elastic jobs
	// (which take their normal shrink path). Equal priorities break ties
	// by admission order.
	Priority int
	// StartAt delays the job's submission into the shared simulation
	// (0 = submitted at cluster start).
	StartAt vclock.Time
	// Config is the job's own configuration. Horizon and Shared are
	// overwritten by the cluster; everything else (workload, policy,
	// per-job failure plan, chaos) is the tenant's business.
	Config core.JobConfig
}

// Config configures one fleet run.
type Config struct {
	// Nodes and PerNode size the shared cluster.
	Nodes   int
	PerNode int
	// RackSize is the failure-domain width in nodes (0 = 2).
	RackSize int
	// Seed drives the single shared environment.
	Seed int64
	// Horizon bounds the whole simulation; jobs still running are
	// force-finished (accounting closes exactly) at this time.
	Horizon vclock.Time
	// Jobs are the tenants, admitted in order.
	Jobs []JobSpec
	// Failures is the cluster-scoped injection plan: node-granular faults
	// (GPUHard, NodeDown, RackDown, NodeRepaired) whose Target is a node ID
	// on the shared hardware, hitting whichever tenant (or spare) holds the
	// node when they fire.
	Failures failure.Plan
	// Recorder, when set, receives the structured event trace of the
	// whole fleet under a single run ID. To serve the fleet live, give it
	// a retention-free recorder whose sink is a tracestream.Stream.
	Recorder *trace.Recorder
}

// JobResult is one tenant's outcome plus its fleet-side accounting.
type JobResult struct {
	Name     string
	Priority int
	// Res is the job's own result (nil if submission failed).
	Res *core.RunResult
	// Err reports a submission failure (bad config).
	Err error
	// NodeTime is the integral of nodes leased by this job over time.
	// Summed across jobs it equals FleetStats.UsedNodeTime exactly.
	NodeTime vclock.Time
}

// LatencyDist summarizes the fleet's per-tenant recovery latencies.
type LatencyDist struct {
	Count int
	Mean  vclock.Time
	P50   vclock.Time
	P95   vclock.Time
	Max   vclock.Time
}

// FleetStats is the cluster-wide aggregation.
type FleetStats struct {
	Nodes int
	GPUs  int
	Wall  vclock.Time
	// Node-time integrals. UsedNodeTime + IdleNodeTime + DownNodeTime ==
	// Nodes × Wall exactly (Reconcile enforces it): every node is leased,
	// free-and-healthy, or down at every instant.
	UsedNodeTime vclock.Time
	IdleNodeTime vclock.Time
	DownNodeTime vclock.Time
	// Goodput is the goodput-weighted utilization of total cluster
	// capacity: Σ_jobs (GPUs_j × Useful_j) / (GPUs × Wall).
	Goodput float64
	// Timeline is the spare-pool utilization timeline: node counts per
	// state after every ownership or health transition.
	Timeline []UtilPoint
	// JobsCompleted of JobsTotal finished all their iterations.
	JobsCompleted int
	JobsTotal     int
	// Preemptions counts arbiter-requested yields that victims honored.
	Preemptions int
	// RecoveryEpisodes is Σ over tenants of their recovery episodes; it
	// reconciles exactly against the per-job RecoveryLatencies series.
	RecoveryEpisodes int
	RecoveryLatency  LatencyDist
	// AppliedInjections / SkippedInjections count the cluster plan's
	// faults that landed vs found their target already lost.
	AppliedInjections int
	SkippedInjections int
	// SimStats are the shared environment's kernel counters — the
	// events/sec numerator for fleet benchmarking.
	SimStats vclock.Stats
}

// Result is the fleet run's outcome.
type Result struct {
	Jobs  []JobResult
	Fleet FleetStats
}

// Reconcile checks the exact fleet accounting identities:
//
//	used + idle + down == nodes × wall        (cluster node-time)
//	Σ_jobs NodeTime == used                   (lease attribution)
//	useful_j + wasted_j == wall_j             (every tenant, as ever)
//	Σ_jobs episodes == RecoveryEpisodes       (latency attribution)
//
// Any violation is a bug in the arbiter's transition bookkeeping, not a
// rounding artifact — all quantities are integer virtual time.
func (r *Result) Reconcile() error {
	f := &r.Fleet
	total := vclock.Time(f.Nodes) * f.Wall
	if got := f.UsedNodeTime + f.IdleNodeTime + f.DownNodeTime; got != total {
		return fmt.Errorf("cluster: used %v + idle %v + down %v = %v, want nodes×wall = %v",
			f.UsedNodeTime, f.IdleNodeTime, f.DownNodeTime, got, total)
	}
	var leased vclock.Time
	episodes := 0
	for i := range r.Jobs {
		j := &r.Jobs[i]
		leased += j.NodeTime
		if j.Res == nil {
			continue
		}
		a := &j.Res.Accounting
		if got := a.Useful + a.Wasted(); got != j.Res.WallTime {
			return fmt.Errorf("cluster: job %s useful %v + wasted %v = %v, want wall %v",
				j.Name, a.Useful, a.Wasted(), got, j.Res.WallTime)
		}
		episodes += len(j.Res.RecoveryLatencies)
	}
	if leased != f.UsedNodeTime {
		return fmt.Errorf("cluster: Σ job node-time %v != used node-time %v", leased, f.UsedNodeTime)
	}
	if episodes != f.RecoveryEpisodes {
		return fmt.Errorf("cluster: Σ job recovery episodes %d != fleet %d", episodes, f.RecoveryEpisodes)
	}
	return nil
}

// Run executes the fleet and returns per-job results plus the cluster
// aggregation.
func Run(cfg Config) (*Result, error) {
	if cfg.Nodes <= 0 || cfg.PerNode <= 0 {
		return nil, errors.New("cluster: Nodes and PerNode must be positive")
	}
	if len(cfg.Jobs) == 0 {
		return nil, errors.New("cluster: no jobs")
	}
	if cfg.Horizon <= 0 {
		return nil, errors.New("cluster: Horizon must be positive")
	}
	if err := cfg.Failures.Validate(cfg.Nodes); err != nil {
		return nil, err
	}
	for i, inj := range cfg.Failures.Injections {
		switch inj.Kind {
		case failure.GPUHard, failure.NodeDown, failure.RackDown, failure.NodeRepaired:
		default:
			// A rank-level kind has no meaning without a job to target.
			return nil, fmt.Errorf("cluster: injection %d (at %v) has rank-level kind %v", i, inj.At, inj.Kind)
		}
	}
	for i := range cfg.Jobs {
		if at := cfg.Jobs[i].StartAt; at < 0 || at >= cfg.Horizon {
			return nil, fmt.Errorf("cluster: job %d starts at %v, outside [0, horizon %v)",
				i, at, cfg.Horizon)
		}
	}

	env := vclock.NewEnv(cfg.Seed)
	var fleetSpan trace.Span
	if rec := cfg.Recorder; rec != nil {
		rec.BeginRun(fmt.Sprintf("fleet jobs=%d nodes=%d seed=%d", len(cfg.Jobs), cfg.Nodes, cfg.Seed))
		trace.Attach(env, rec)
		fleetSpan = rec.Begin(0, "cluster", trace.LaneSim, "fleet",
			"jobs", len(cfg.Jobs), "nodes", cfg.Nodes, "seed", cfg.Seed)
	}
	cl := gpu.NewCluster(env, cfg.Nodes, cfg.PerNode, 1<<40)
	cl.RackSize = cfg.RackSize
	arb := newArbiter(env, scheduler.NewPool(env, cl.Nodes), cl)
	inj := &injector{a: arb}

	results := make([]JobResult, len(cfg.Jobs))
	for i := range cfg.Jobs {
		spec := cfg.Jobs[i]
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("job%d", i)
		}
		e := arb.addJob(name, spec.Priority)
		results[i] = JobResult{Name: name, Priority: spec.Priority}
		jc := spec.Config
		jc.Horizon = cfg.Horizon
		jc.Recorder = nil
		idx := i
		jc.Shared = &core.SharedSim{
			Env:           env,
			Cluster:       cl,
			Capacity:      e,
			AwaitCapacity: arb.await,
			Label:         name,
			OnDone: func(res *core.RunResult) {
				results[idx].Res = res
				e.finish()
			},
		}
		submit := func() {
			h, err := core.StartJob(jc)
			if err != nil {
				results[idx].Err = err
				e.finish()
				return
			}
			e.handle = h
		}
		if spec.StartAt > 0 {
			at := spec.StartAt
			env.Go(name+".submit", func(p *vclock.Proc) {
				p.Sleep(at - p.Now())
				submit()
			})
		} else {
			submit()
		}
	}
	inj.start(cfg.Failures)

	if err := env.RunUntil(cfg.Horizon); err != nil {
		return nil, err
	}
	// Horizon: close out stragglers in admission order so their
	// accounting ends exactly at the cluster wall time.
	for _, e := range arb.entries {
		if e.handle != nil && !e.handle.Done() {
			e.handle.ForceFinish()
		}
		e.finish()
	}
	arb.close(env.Now())

	res := &Result{Jobs: results}
	f := &res.Fleet
	f.Nodes = cfg.Nodes
	f.GPUs = cfg.Nodes * cfg.PerNode
	f.Wall = env.Now()
	f.UsedNodeTime, f.IdleNodeTime, f.DownNodeTime = arb.used, arb.idle, arb.down
	f.Timeline = arb.timeline
	f.JobsTotal = len(cfg.Jobs)
	f.Preemptions = arb.preemptions
	f.AppliedInjections = inj.applied
	f.SkippedInjections = inj.skipped
	f.SimStats = env.Stats()
	var lats []vclock.Time
	usefulGPU := 0.0
	for i := range res.Jobs {
		res.Jobs[i].NodeTime = arb.entries[i].nodeTime
		jr := res.Jobs[i].Res
		if jr == nil {
			continue
		}
		if jr.Completed {
			f.JobsCompleted++
		}
		f.RecoveryEpisodes += len(jr.RecoveryLatencies)
		lats = append(lats, jr.RecoveryLatencies...)
		usefulGPU += float64(jr.Accounting.N) * float64(jr.Accounting.Useful)
	}
	if f.Wall > 0 && f.GPUs > 0 {
		f.Goodput = usefulGPU / (float64(f.GPUs) * float64(f.Wall))
	}
	f.RecoveryLatency = latencyDist(lats)
	// The authoritative fleet rollup instant, mirroring FleetStats from
	// the same variables: the streaming aggregator's fleet-level finals
	// are parsed from these args, so live and post-hoc numbers agree
	// exactly. Durations are integer nanoseconds; goodput's %v formatting
	// is the shortest representation that round-trips the float64.
	trace.Of(env).Instant(env.Now(), "cluster", trace.LaneSim, "fleet-acct",
		"nodes", f.Nodes, "gpus", f.GPUs, "wall", int64(f.Wall),
		"used", int64(f.UsedNodeTime), "idle", int64(f.IdleNodeTime),
		"down", int64(f.DownNodeTime), "goodput", f.Goodput,
		"completed", f.JobsCompleted, "total", f.JobsTotal,
		"preemptions", f.Preemptions, "episodes", f.RecoveryEpisodes,
		"applied", f.AppliedInjections, "skipped", f.SkippedInjections,
		"lat_count", f.RecoveryLatency.Count,
		"lat_mean", int64(f.RecoveryLatency.Mean),
		"lat_p50", int64(f.RecoveryLatency.P50),
		"lat_p95", int64(f.RecoveryLatency.P95),
		"lat_max", int64(f.RecoveryLatency.Max))
	fleetSpan.End(env.Now(), "completed", f.JobsCompleted, "of", f.JobsTotal)
	return res, nil
}

func latencyDist(lats []vclock.Time) LatencyDist {
	d := LatencyDist{Count: len(lats)}
	if len(lats) == 0 {
		return d
	}
	sorted := append([]vclock.Time(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum vclock.Time
	for _, l := range sorted {
		sum += l
	}
	d.Mean = sum / vclock.Time(len(sorted))
	d.P50 = sorted[len(sorted)/2]
	d.P95 = sorted[(len(sorted)*95)/100]
	d.Max = sorted[len(sorted)-1]
	return d
}
