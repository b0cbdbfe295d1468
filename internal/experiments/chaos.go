package experiments

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/metrics"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// ChaosOptions tune the randomized chaos suite.
type ChaosOptions struct {
	// Seeds drive the per-run fault draws; one row per policy×seed.
	Seeds []int64
	// Policies to soak; nil selects ChaosPolicies().
	Policies []core.Policy
	// Iters is the useful-minibatch count per run.
	Iters int
	// Mix weights the fault-kind draw (see failure.ParseMix for the
	// jitsim/jitbench flag syntax); nil selects failure.DefaultMix.
	Mix map[failure.Kind]float64
	// WriteFaultP is the per-write fault probability applied to every
	// shared-store (and peer-shelter) write.
	WriteFaultP float64
	// Recorder, when set, collects the structured event trace of every
	// soak run (each under its own run ID).
	Recorder *trace.Recorder
	// Workers caps the number of concurrent runs in the policy×seed grid
	// (0 or 1 = serial). Every run is an independent simulation, so rows,
	// loss trajectories and merged traces are byte-identical to a serial
	// sweep regardless of the worker count.
	Workers int
}

// DefaultChaosOptions returns the standard chaos-suite configuration.
func DefaultChaosOptions() ChaosOptions {
	return ChaosOptions{
		Seeds:       []int64{3, 7, 11},
		Iters:       18,
		WriteFaultP: 0.12,
	}
}

// ChaosPolicies lists the policies the chaos suite soaks: the periodic
// baseline plus the three JIT/peer configurations whose recovery paths
// the chaos layer attacks.
func ChaosPolicies() []core.Policy {
	return []core.Policy{core.PolicyPCDisk, core.PolicyUserJIT, core.PolicyPeerShelter, core.PolicyJITWithPeer}
}

// ChaosWorkload is the chaos suite's job: a small fast data-parallel job
// (4 GPUs over 2 nodes) so a full policy×seed sweep stays cheap; the
// recovery machinery it exercises is the same one the catalogue workloads
// use. The benchmarks reuse it as the standard steady-training subject.
func ChaosWorkload() workload.Workload {
	return workload.Tiny("chaos-tiny", "chaos", 2, 2, train.Topology{D: 4, P: 1, T: 1}, 0.004, 2, 8)
}

// ChaosRow is one policy×seed cell of the chaos suite.
type ChaosRow struct {
	Policy core.Policy
	Seed   int64
	// Kinds are the fault kinds injected, in firing order.
	Kinds []failure.Kind
	// Incarnations counts job (re)starts; Recoveries counts transparent
	// recovery episodes (0 for restart-based policies).
	Incarnations int
	Recoveries   int
	// RedoIters is re-executed minibatches (work lost to rollback).
	RedoIters int
	// Completed and BitIdentical are the suite's two invariants: the job
	// finishes, and its loss trajectory matches the failure-free run
	// bit for bit.
	Completed    bool
	BitIdentical bool
	// Sim and SimTime carry the run's kernel event counters and final
	// simulated time, the raw material for the bench harness's events/sec
	// and simulated-seconds-per-wall-second metrics.
	Sim     vclock.Stats
	SimTime vclock.Time
}

// drawKind samples a fault kind from the normalized mix. Kinds are
// visited in enum order so the draw is deterministic per seed.
func drawKind(rng *rand.Rand, mix map[failure.Kind]float64) failure.Kind {
	kinds := make([]failure.Kind, 0, len(mix))
	var total float64
	for k, w := range mix {
		kinds = append(kinds, k)
		total += w
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	x := rng.Float64() * total
	for _, k := range kinds {
		if x -= mix[k]; x < 0 {
			return k
		}
	}
	return kinds[len(kinds)-1]
}

// chaosInjections draws the run's fault plan: two mix-weighted faults at
// one-third and two-thirds of the run, capped at two node-destroying
// kinds (the spare pool is finite), never aimed at the loss-reporting
// reference rank, and — for whole-node kinds — never at its node.
func chaosInjections(rng *rand.Rand, wl workload.Workload, iters int, mix map[failure.Kind]float64) []core.IterInjection {
	var out []core.IterInjection
	hard := 0
	for _, at := range []int{iters / 3, 2 * iters / 3} {
		kind := drawKind(rng, mix)
		switch kind {
		case failure.GPUHard, failure.NodeDown, failure.RackDown:
			hard++
			if hard > 2 {
				kind = failure.GPUSticky
			}
		}
		rank := 1 + rng.Intn(wl.Topo.World()-1)
		if kind == failure.NodeDown || kind == failure.RackDown {
			// Last node: the reference rank's failure domain stays up.
			rank = wl.Topo.World() - 1 - rng.Intn(wl.PerNode)
		}
		out = append(out, core.IterInjection{
			Iter: at, Frac: 0.1 + 0.8*rng.Float64(), Rank: rank, Kind: kind,
		})
	}
	return out
}

// RunChaos executes the randomized chaos suite: per policy×seed, every
// store write passes through a seeded random fault hook (transient
// errors, torn writes, silent bit-flips) while mix-drawn faults land
// mid-run, and the result is checked bit for bit against the
// failure-free loss trajectory.
func RunChaos(opt ChaosOptions) ([]ChaosRow, error) {
	if opt.Iters <= 0 {
		opt.Iters = DefaultChaosOptions().Iters
	}
	if len(opt.Seeds) == 0 {
		opt.Seeds = DefaultChaosOptions().Seeds
	}
	if opt.WriteFaultP <= 0 {
		opt.WriteFaultP = DefaultChaosOptions().WriteFaultP
	}
	policies := opt.Policies
	if len(policies) == 0 {
		policies = ChaosPolicies()
	}
	mix := opt.Mix
	if len(mix) == 0 {
		mix = failure.DefaultMix()
	}
	wl := ChaosWorkload()

	ref, err := core.Run(core.JobConfig{
		WL: wl, Policy: core.PolicyNone, Iters: opt.Iters, Seed: 1, CollectLoss: true,
		Recorder: opt.Recorder,
	})
	if err != nil {
		return nil, err
	}

	type cell struct {
		policy core.Policy
		seed   int64
	}
	var cells []cell
	for _, policy := range policies {
		for _, seed := range opt.Seeds {
			cells = append(cells, cell{policy, seed})
		}
	}
	return sweep(cells, opt.Workers, opt.Recorder, func(c cell, rec *trace.Recorder) (row ChaosRow, err error) {
		policy, seed := c.policy, c.seed
		rng := rand.New(rand.NewSource(seed * 131))
		injections := chaosInjections(rng, wl, opt.Iters, mix)
		cfg := core.JobConfig{
			WL: wl, Policy: policy, Iters: opt.Iters, Seed: 1, CollectLoss: true,
			Recorder:    rec,
			HangTimeout: 2 * vclock.Second, SpareNodes: 4,
			IterFailures: injections,
			Chaos: &core.ChaosConfig{
				DiskChaos:    checkpoint.RandomChaos(rand.New(rand.NewSource(seed*17)), opt.WriteFaultP),
				ShelterChaos: checkpoint.RandomChaos(rand.New(rand.NewSource(seed*29)), opt.WriteFaultP),
			},
		}
		if policy.Info().Periodic {
			cfg.CkptInterval = 4 * wl.Minibatch
		}
		res, err := core.Run(cfg)
		if err != nil {
			return row, err
		}
		row = ChaosRow{
			Policy:       policy,
			Seed:         seed,
			Incarnations: res.Incarnations,
			Recoveries:   len(res.Reports),
			Completed:    res.Completed,
			Sim:          res.SimStats,
			SimTime:      res.WallTime,
		}
		for _, inj := range injections {
			row.Kinds = append(row.Kinds, inj.Kind)
		}
		if res.Completed {
			row.RedoIters = res.ItersExecuted - opt.Iters
			row.BitIdentical = lossEqual(ref.Loss, res.Loss, opt.Iters)
		}
		return row, nil
	})
}

// lossEqual compares two loss traces bit for bit over [0, iters).
func lossEqual(a, b map[int]float32, iters int) bool {
	for it := 0; it < iters; it++ {
		av, aok := a[it]
		bv, bok := b[it]
		if !aok || !bok || math.Float32bits(av) != math.Float32bits(bv) {
			return false
		}
	}
	return true
}

// RenderChaos formats the chaos-suite results.
func RenderChaos(rows []ChaosRow) *metrics.Table {
	t := metrics.NewTable("Chaos suite: randomized faults + store corruption, bit-identical convergence",
		"Policy", "Seed", "Faults", "Incarnations", "Recoveries", "Redo", "Completed", "Bit-identical")
	for _, r := range rows {
		var kinds []string
		for _, k := range r.Kinds {
			kinds = append(kinds, k.String())
		}
		yes := func(b bool) string {
			if b {
				return "yes"
			}
			return "NO"
		}
		t.Row(r.Policy.String(), r.Seed, strings.Join(kinds, "+"),
			r.Incarnations, r.Recoveries, r.RedoIters, yes(r.Completed), yes(r.BitIdentical))
	}
	return t
}
