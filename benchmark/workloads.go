package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"jitckpt/internal/cluster"
	"jitckpt/internal/core"
	"jitckpt/internal/experiments"
	"jitckpt/internal/failure"
	"jitckpt/internal/peerckpt"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// passResult is what one pass of a workload did, as far as the simulator's
// public results say. Everything except the host-time measurements taken
// around the pass is virtual and repeats exactly for a given seed.
type passResult struct {
	// runs is the number of simulation runs the pass executed; failed how
	// many of them missed a check (error, incomplete, loss trajectory not
	// bit-identical to the failure-free reference, accounting that does
	// not reconcile). failures describes each with its configuration.
	runs     int
	failed   int
	failures []string
	// digest is FNV-64a over the pass's rendered result rows and loss
	// curves — the outcome the paper's claims are about; every repetition
	// of the same input must reproduce it. Kernel counters and virtual
	// times stay out of it on the workloads that recover under the peer
	// shelter: the simulator does not repeat those exactly there (see
	// built.check), and they are compared separately.
	digest uint64

	redoIters int          // re-executed minibatches
	sim       vclock.Stats // kernel counters summed over the pass's runs
	simTime   vclock.Time  // simulated time summed over the pass's runs
	peer      peerckpt.Stats
	paperErr  float64 // paper_tables only: mean |ours-paper|/paper, percent
}

func (r *passResult) fail(format string, args ...interface{}) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// instance is one workload built for one seed: its inputs are fixed, and
// pass runs them once. A workload may cycle through several variants
// (inputs of the same shape drawn from the same seed); the measured value
// is then the mean over variants of each variant's median, so that a
// seed's luck in drawing cheap or expensive fault plans averages out.
type instance struct {
	variants int
	// runsPerPass is known before the first timed pass (from the
	// configuration, or counted in the warm-up pass).
	runsPerPass int
	// config renders the inputs of a variant for failure reports.
	config func(variant int) string
	// pass executes variant v. t is nil in the timed phase: no recorder,
	// no span collection.
	pass func(v int, t *tracer) passResult
}

// workloadDef describes one named workload.
type workloadDef struct {
	name string
	why  string
	// minCycles is the least number of full cycles (one pass of every
	// variant) a timed run measures regardless of -seconds.
	minCycles int
	// warmup says whether set-up runs one untimed cycle first. The fleet
	// workload does not: a `jitsim -fleet` user pays the cold run.
	warmup bool
	// tracedCycles is how many cycles the traced phase runs untraced and
	// then traced: enough for a few hundred CPU-profile samples.
	tracedCycles int
	// streamArm says whether the traced phase also measures the workload
	// streamed through tracestream (only where the trace layers sit on
	// the measured path).
	streamArm bool
	build     func(seed int64) (*instance, error)
}

func workloads() []workloadDef {
	return []workloadDef{
		{
			name:      "chaos_grid",
			why:       "RunChaos grids of tiny jobs under faults and storage chaos: vclock scheduling and channel handoff dominate, proxy is unused; the only place trace/tracestream sit on the measured path",
			minCycles: 2, tracedCycles: 4, warmup: true, streamArm: true,
			build: buildChaosGrid,
		},
		{
			name:      "paper_tables",
			why:       "Tables 3-7 on two models each (jitbench -quick): tables 5-7 take the transparent path, so proxy gob RPC does most of the work, which no other workload touches",
			minCycles: 3, tracedCycles: 2, warmup: true,
			build: buildPaperTables,
		},
		{
			name:      "fleet500",
			why:       "500 tenants, 2000 ranks in one vclock.Env: deep timer heap, cluster arbiter, gpu/cuda at scale, ~200 MB RSS; the super-linear per-tenant cost shows here",
			minCycles: 3, tracedCycles: 1, warmup: false,
			build: buildFleet500,
		},
		{
			name:      "wide_state",
			why:       "Hidden-128 model under four checkpoint policies with a mid-run fault: real bytes dominate (serialize, FNV checksum, RS encode), so codec gains show here and must not show on chaos_grid",
			minCycles: 5, tracedCycles: 6, warmup: true,
			build: buildWideState,
		},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// digestWriter accumulates the FNV-64a digest of a pass's outputs.
type digestWriter struct{ h hash.Hash64 }

func newDigest() digestWriter { return digestWriter{fnv.New64a()} }

func (d digestWriter) str(s string) { d.h.Write([]byte(s)); d.h.Write([]byte{0}) }

func (d digestWriter) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	d.h.Write(b[:])
}

func (d digestWriter) stats(s vclock.Stats) {
	d.u64(s.Dispatches)
	d.u64(s.TimerFires)
	d.u64(s.Triggers)
	d.u64(s.Spawns)
}

// loss folds a loss curve in, iteration by iteration, bit for bit.
func (d digestWriter) loss(loss map[int]float32) {
	its := make([]int, 0, len(loss))
	for it := range loss {
		its = append(its, it)
	}
	sort.Ints(its)
	for _, it := range its {
		d.u64(uint64(it)<<32 | uint64(math.Float32bits(loss[it])))
	}
}

func (d digestWriter) sum() uint64 { return d.h.Sum64() }

// ---- chaos_grid ----------------------------------------------------------

// chaosVariants is how many seed triples one chaos_grid cycle visits. A
// triple's cost depends on the fault kinds it happens to draw (±10%
// between triples); averaging sixteen keeps a seed's luck under the
// machine's own noise.
const chaosVariants = 16

// chaosOptions returns variant v's grid for a seed: the default chaos
// options with every chaos seed shifted by 1000·(seed−1) + 50·v. Seed 1,
// variant 0 is exactly experiments.DefaultChaosOptions — the grid
// RunBench times.
func chaosOptions(seed int64, v int) experiments.ChaosOptions {
	opt := experiments.DefaultChaosOptions()
	opt.Workers = 1
	seeds := make([]int64, len(opt.Seeds))
	for i, s := range opt.Seeds {
		seeds[i] = s + 1000*(seed-1) + 50*int64(v)
	}
	opt.Seeds = seeds
	return opt
}

func buildChaosGrid(seed int64) (*instance, error) {
	opts := make([]experiments.ChaosOptions, chaosVariants)
	for v := range opts {
		opts[v] = chaosOptions(seed, v)
	}
	policies := len(experiments.ChaosPolicies())
	return &instance{
		variants:    chaosVariants,
		runsPerPass: policies*len(opts[0].Seeds) + 1, // grid + the failure-free reference
		config: func(v int) string {
			return fmt.Sprintf("RunChaos seeds=%v iters=%d write_fault_p=%g", opts[v].Seeds, opts[v].Iters, opts[v].WriteFaultP)
		},
		pass: func(v int, t *tracer) passResult {
			opt := opts[v]
			opt.Recorder = t.recorder()
			res := passResult{runs: policies*len(opt.Seeds) + 1}
			var rows []experiments.ChaosRow
			var err error
			t.span("experiments.RunChaos", func() { rows, err = experiments.RunChaos(opt) })
			if err != nil {
				res.failed = res.runs
				res.failures = append(res.failures, fmt.Sprintf("RunChaos seeds=%v: %v", opt.Seeds, err))
				return res
			}
			d := newDigest()
			d.str(experiments.RenderChaos(rows).Render())
			for _, row := range rows {
				if !row.Completed || !row.BitIdentical {
					res.fail("chaos %v seed=%d faults=%v: completed=%v bit_identical=%v",
						row.Policy, row.Seed, row.Kinds, row.Completed, row.BitIdentical)
				}
				res.redoIters += row.RedoIters
				res.sim.Add(row.Sim)
				res.simTime += row.SimTime
			}
			res.digest = d.sum()
			return res
		},
	}, nil
}

// ---- paper_tables --------------------------------------------------------

func buildPaperTables(seed int64) (*instance, error) {
	base := experiments.DefaultOptions()
	base.Seed = seed
	base.Workers = 1
	inst := &instance{
		variants: 1,
		config: func(int) string {
			return fmt.Sprintf("RunTable3..7 on TableNModels()[:2], iters=%d seed=%d", base.Iters, base.Seed)
		},
	}
	inst.pass = func(_ int, t *tracer) passResult {
		opt := base
		opt.Recorder = t.recorder()
		res := passResult{runs: inst.runsPerPass}
		d := newDigest()
		table := func(name string, run func() (string, error)) {
			var out string
			var err error
			t.span("experiments."+name, func() { out, err = run() })
			if err != nil {
				res.fail("%s seed=%d: %v", name, opt.Seed, err)
				return
			}
			d.str(out)
		}
		var t4 []experiments.Table4Row
		var t5 []experiments.Table5Row
		var t6 []experiments.Table6Row
		table("RunTable3", func() (string, error) {
			rows, err := experiments.RunTable3(experiments.Table3Models()[:2], opt)
			if err != nil {
				return "", err
			}
			return experiments.RenderTable3(rows).Render(), nil
		})
		table("RunTable4", func() (string, error) {
			rows, err := experiments.RunTable4(experiments.Table4Models()[:2], opt)
			if err != nil {
				return "", err
			}
			t4 = rows
			return experiments.RenderTable4(rows).Render(), nil
		})
		table("RunTable5", func() (string, error) {
			rows, err := experiments.RunTable5(experiments.Table5Models()[:2], opt)
			if err != nil {
				return "", err
			}
			t5 = rows
			return experiments.RenderTable5(rows).Render(), nil
		})
		table("RunTable6", func() (string, error) {
			rows, err := experiments.RunTable6(experiments.Table6Models()[:2], opt)
			if err != nil {
				return "", err
			}
			t6 = rows
			return experiments.RenderTable6(rows).Render(), nil
		})
		table("RunTable7", func() (string, error) {
			rows, err := experiments.RunTable7(experiments.Table7Models()[:2], opt)
			if err != nil {
				return "", err
			}
			return experiments.RenderTable7(rows).Render(), nil
		})
		res.digest = d.sum()
		if res.failed == 0 {
			errPct, missing := paperError(t4, t5, t6)
			res.paperErr = errPct
			for _, m := range missing {
				res.fail("paper reference value missing for %s", m)
			}
		}
		return res
	}
	return inst, nil
}

// ---- fleet500 ------------------------------------------------------------

// fleetSpec, fleetIters and fleetConfig are RunBench's fleet point, copied
// value for value so the legacy fleet500_wall_ms and this workload time
// the same simulation.
const (
	fleetSpec  = "250xpc_disk,150xjit+elastic,100xuserjit"
	fleetIters = 25
)

func fleetConfig(seed int64, spec string) (cluster.Config, error) {
	jobs, err := cluster.ParseJobsSpec(spec, experiments.FleetPolicies(), fleetIters)
	if err != nil {
		return cluster.Config{}, err
	}
	return cluster.Config{
		Nodes: 1100, PerNode: 2, RackSize: 4, Seed: seed,
		Horizon: 4 * vclock.Minute, Jobs: jobs,
	}, nil
}

// fleetPass runs one fleet and checks it: every tenant completes, and the
// fleet's node-time and per-tenant accounting identities hold exactly.
func fleetPass(cfg cluster.Config, spec string, t *tracer) passResult {
	cfg.Recorder = t.recorder()
	res := passResult{runs: len(cfg.Jobs)}
	var fres *cluster.Result
	var err error
	t.span("cluster.Run", func() { fres, err = cluster.Run(cfg) })
	if err != nil {
		res.failed = res.runs
		res.failures = append(res.failures, fmt.Sprintf("cluster.Run %s seed=%d: %v", spec, cfg.Seed, err))
		return res
	}
	if err := fres.Reconcile(); err != nil {
		res.fail("cluster.Run %s seed=%d: %v", spec, cfg.Seed, err)
	}
	d := newDigest()
	for i := range fres.Jobs {
		j := &fres.Jobs[i]
		d.str(j.Name)
		d.u64(uint64(j.NodeTime))
		if j.Err != nil || j.Res == nil || !j.Res.Completed {
			res.fail("fleet tenant %s seed=%d: err=%v completed=false", j.Name, cfg.Seed, j.Err)
			continue
		}
		res.redoIters += j.Res.ItersExecuted - cfg.Jobs[i].Config.Iters
		d.u64(uint64(j.Res.WallTime))
		d.u64(uint64(j.Res.ItersExecuted))
		d.u64(uint64(j.Res.Accounting.Useful))
	}
	f := &fres.Fleet
	res.sim = f.SimStats
	res.simTime = f.Wall
	d.stats(f.SimStats)
	d.u64(uint64(f.Wall))
	d.u64(uint64(f.UsedNodeTime))
	d.u64(math.Float64bits(f.Goodput))
	res.digest = d.sum()
	return res
}

// fleetShakedownSpec is fleetSpec at one twenty-fifth: set-up runs it once,
// to prove the mix parses, admits and completes before three eight-second
// passes are spent on it. Twenty tenants do not grow the heap the 500 need,
// so the first measured pass is still the cold run a `jitsim -fleet` user
// pays.
const fleetShakedownSpec = "10xpc_disk,6xjit+elastic,4xuserjit"

func buildFleet500(seed int64) (*instance, error) {
	cfg, err := fleetConfig(seed, fleetSpec)
	if err != nil {
		return nil, err
	}
	small, err := fleetConfig(seed, fleetShakedownSpec)
	if err != nil {
		return nil, err
	}
	small.Nodes = cfg.Nodes / 25
	if res := fleetPass(small, fleetShakedownSpec, nil); res.failed > 0 {
		return nil, fmt.Errorf("fleet shakedown: %s", res.failures[0])
	}
	return &instance{
		variants:    1,
		runsPerPass: len(cfg.Jobs),
		config: func(int) string {
			return fmt.Sprintf("cluster.Run %s @%d iters, %dx%d nodes, rack %d, horizon %v, seed=%d",
				fleetSpec, fleetIters, cfg.Nodes, cfg.PerNode, cfg.RackSize, cfg.Horizon, cfg.Seed)
		},
		pass: func(_ int, t *tracer) passResult { return fleetPass(cfg, fleetSpec, t) },
	}, nil
}

// ---- wide_state ----------------------------------------------------------

const wideIters = 20

// wideWorkload is experiments' recovery-sweep geometry (8 nodes × 1 GPU,
// D2·P4·T1, 50 ms minibatch) with a model wide enough that checkpoint
// bytes are real work: 4 layers of Hidden 128.
func wideWorkload() workload.Workload {
	return workload.Workload{
		Name: "wide-state", GPU: "A100-80GB", ParamsB: 0.016, Nodes: 8, PerNode: 1,
		Topo: train.Topology{D: 2, P: 4, T: 1}, Framework: "benchmark",
		Minibatch:  50 * vclock.Millisecond,
		CkptTarget: vclock.Seconds(0.5), RestoreTarget: vclock.Seconds(1),
		NCCLInitBase: 200 * vclock.Millisecond, NCCLInitPerRank: 5 * vclock.Millisecond,
		Teardown: 100 * vclock.Millisecond, CRIU: vclock.Second,
		Layers: 4, Hidden: 128,
	}
}

// wideConfigs returns the pass's four jobs, one per checkpoint family,
// each with a mid-run fault whose victim rank and in-iteration position
// are drawn from the seed. The shelter job loses both owners of position 0
// plus one of its fragment hosts in one stroke (the catastrophe
// experiments.RunErasureSweep stages), so restore must decode from parity.
//
// Both draws stay inside the domain the simulator's own fault generators
// use (experiments.chaosInjections), where every outcome check holds for
// every seed:
//   - the victim is never the loss-reporting reference rank (the last
//     pipeline stage of replica 0, rank 3 here). The harness keeps the first
//     loss it sees for an iteration, so a reference rank killed between its
//     forward pass and the optimizer step (Frac 0.45-0.85) reports the
//     doomed attempt's loss and the curve no longer matches the
//     failure-free one, although training recovered exactly;
//   - the shelter's catastrophe lands at Frac <= 0.7. From 0.88 on it
//     catches the iteration's own stripe mid-commit, the job recovers from
//     the disk generation instead and the codec never decodes — a correct
//     recovery, but not the byte work this workload is here to time.
func wideConfigs(seed int64) []core.JobConfig {
	wl := wideWorkload()
	refRank := wl.Topo.Rank(0, wl.Topo.P-1, 0)
	rng := rand.New(rand.NewSource(seed))
	var cfgs []core.JobConfig
	for _, policy := range []core.Policy{
		core.PolicyPeerShelter, core.PolicyMultiStepDisk, core.PolicyPCDisk, core.PolicyUserJIT,
	} {
		rank := rng.Intn(wl.Topo.World() - 1)
		if rank >= refRank {
			rank++
		}
		span := 0.8
		if policy == core.PolicyPeerShelter {
			span = 0.6
		}
		frac := 0.1 + span*rng.Float64()
		cfg := core.JobConfig{
			WL: wl, Policy: policy, Iters: wideIters, Seed: seed, CollectLoss: true,
			CkptInterval: 4 * wl.Minibatch, RackSize: 1, SpareNodes: 4,
			HangTimeout: 2 * vclock.Second,
		}
		if policy == core.PolicyPeerShelter {
			cfg.Peer = &peerckpt.Params{DataShards: 4, ParityShards: 2}
			for _, r := range append([]int{0}, append(wl.Topo.ReplicaRanks(0), 1)...) {
				cfg.IterFailures = append(cfg.IterFailures, core.IterInjection{
					Iter: wideIters / 2, Frac: frac, Rank: r, Kind: failure.NodeDown,
				})
			}
		} else {
			cfg.IterFailures = []core.IterInjection{{
				Iter: wideIters / 2, Frac: frac, Rank: rank, Kind: failure.GPUHard,
			}}
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

func describeJob(cfg core.JobConfig) string {
	return fmt.Sprintf("core.Run %s %v iters=%d seed=%d interval=%v faults=%+v",
		cfg.WL.Name, cfg.Policy, cfg.Iters, cfg.Seed, cfg.CkptInterval, cfg.IterFailures)
}

// lossEqual compares two loss curves bit for bit over [0, iters).
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

func buildWideState(seed int64) (*instance, error) {
	cfgs := wideConfigs(seed)
	ref, err := core.Run(core.JobConfig{
		WL: wideWorkload(), Policy: core.PolicyNone, Iters: wideIters, Seed: seed, CollectLoss: true,
	})
	if err != nil {
		return nil, fmt.Errorf("wide_state reference run: %w", err)
	}
	if !ref.Completed {
		return nil, fmt.Errorf("wide_state reference run incomplete")
	}
	return &instance{
		variants:    1,
		runsPerPass: len(cfgs),
		config: func(int) string {
			s := ""
			for _, cfg := range cfgs {
				s += describeJob(cfg) + "; "
			}
			return s
		},
		pass: func(_ int, t *tracer) passResult {
			res := passResult{runs: len(cfgs)}
			d := newDigest()
			for _, cfg := range cfgs {
				cfg.Recorder = t.recorder()
				var run *core.RunResult
				var err error
				t.span("core.Run/"+cfg.Policy.String(), func() { run, err = core.Run(cfg) })
				if err != nil {
					res.fail("%s: %v", describeJob(cfg), err)
					continue
				}
				switch {
				case !run.Completed:
					res.fail("%s: incomplete", describeJob(cfg))
				case !lossEqual(ref.Loss, run.Loss, cfg.Iters):
					res.fail("%s: loss trajectory differs from the failure-free reference", describeJob(cfg))
				case run.Accounting.Useful+run.Accounting.Wasted() != run.WallTime:
					res.fail("%s: useful %v + wasted %v != wall %v", describeJob(cfg),
						run.Accounting.Useful, run.Accounting.Wasted(), run.WallTime)
				case cfg.Policy == core.PolicyPeerShelter && (run.Peer.Encodes == 0 || run.Peer.Decodes == 0):
					res.fail("%s: shelter codec idle (encodes=%d decodes=%d)", describeJob(cfg),
						run.Peer.Encodes, run.Peer.Decodes)
				}
				res.redoIters += run.ItersExecuted - cfg.Iters
				res.sim.Add(run.SimStats)
				res.simTime += run.WallTime
				res.peer.Encodes += run.Peer.Encodes
				res.peer.Decodes += run.Peer.Decodes
				res.peer.BytesSheltered += run.Peer.BytesSheltered
				d.str(cfg.Policy.String())
				d.loss(run.Loss)
				d.u64(uint64(run.ItersExecuted))
				d.u64(uint64(run.Incarnations))
			}
			res.digest = d.sum()
			return res
		},
	}, nil
}

// tracer carries what a traced pass attaches; a nil *tracer (the timed
// phase) attaches nothing.
type tracer struct {
	spans *spanRecorder
	rec   *trace.Recorder
}

func (t *tracer) recorder() *trace.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// span times fn as a child of the currently open span.
func (t *tracer) span(name string, fn func()) {
	if t == nil || t.spans == nil {
		fn()
		return
	}
	t.spans.do(name, fn)
}
