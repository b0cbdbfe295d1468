package core

import (
	"errors"
	"fmt"

	"jitckpt/internal/analysis"
	"jitckpt/internal/checkpoint"
	"jitckpt/internal/cuda"
	"jitckpt/internal/failure"
	"jitckpt/internal/gpu"
	"jitckpt/internal/intercept"
	"jitckpt/internal/metrics"
	"jitckpt/internal/nccl"
	"jitckpt/internal/peerckpt"
	"jitckpt/internal/pipefree"
	"jitckpt/internal/scheduler"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// JobConfig configures one simulated training job run.
type JobConfig struct {
	WL     workload.Workload
	Policy Policy
	// Iters is the number of useful minibatches to complete.
	Iters int
	Seed  int64
	// Horizon bounds the simulation (0 = generous default).
	Horizon vclock.Time
	// Failures is the absolute-time injection plan (empty = failure-free).
	Failures failure.Plan
	// IterFailures inject relative to training progress: when the
	// reference rank starts iteration Iter, the fault fires Frac
	// minibatches later. This is how the evaluation places failures in
	// specific phases (forward ≈ 0.1, backward ≈ 0.5, all-reduce ≈ 0.85,
	// optimizer ≈ 0.95).
	IterFailures []IterInjection
	// CkptInterval overrides the periodic interval (0 = optimal c* at
	// the OPT job's ≈2 failures/day over 992 GPUs, or 24 h for PC_1/day).
	CkptInterval vclock.Time
	// SpareNodes adds standby nodes for hard-error migration.
	SpareNodes int
	// Accum forces a gradient-accumulation factor from iteration 0 (see
	// train.Config.Accum). Oracle runs use it to replay a degraded-mode
	// trajectory from the start at reduced width; 0 or 1 = off.
	Accum int
	// DiskStore, when set, replaces the run's own shared checkpoint store.
	// Oracle runs pass the store of a prior run so they restore from its
	// checkpoints; the harness then does not create a fresh store.
	DiskStore *checkpoint.Store
	// RestoreWriterWorld bounds the writer ranks admitted during
	// checkpoint assembly (0 = the larger of the full and current world).
	// Oracle runs restoring another job's store set it to that job's full
	// world so checkpoints written by its wider eras are admitted.
	RestoreWriterWorld int
	// HangTimeout configures the watchdog (0 = 10 s, short for fast
	// simulations; the paper's deployments use larger values).
	HangTimeout vclock.Time
	// CollectLoss records per-iteration losses from the reference rank.
	CollectLoss bool
	// ValidateAt runs the §4.1 replay-log correctness verification on
	// every rank at the end of the given iteration's backward pass
	// (0 = off). ValidateEvery re-validates every N iterations after
	// that, "to detect any change of behavior as training progresses"
	// (§4.1). Transparent policy only.
	ValidateAt    int
	ValidateEvery int
	// Chaos configures storage-fault and recovery-phase fault injection
	// (nil = none).
	Chaos *ChaosConfig
	// Recorder, when set, is attached to the run's environment and
	// receives the structured event trace (spans and instants from every
	// instrumented layer); it is the run's one observability input. One
	// Recorder may be shared across sequential Run calls: each run is
	// recorded under a fresh run ID. To watch a run live, give it a
	// retention-free recorder whose sink is a tracestream.Stream.
	Recorder *trace.Recorder
	// Peer overrides the peer-shelter tier's parameters (policies with the
	// Peer column only; nil = defaults). Setting DataShards/ParityShards
	// switches the shelter from whole-entry replication to Reed-Solomon
	// striping: each rank's state splits into k data + m parity fragments
	// spread across distinct failure domains, and restore reconstructs
	// missing data from parity. A zero LinkBandwidth inherits the
	// workload's peer-link bandwidth.
	Peer *peerckpt.Params
	// MultiStepSlices sets how many per-iteration shard slices the
	// multi-step overlapped disk writer splits each logical snapshot into
	// (policies with the MultiStep column only; 0 = 4). The writer's
	// generation interval is CkptInterval (0 = optimal c*).
	MultiStepSlices int
	// RackSize is the failure-domain width of a single-job run's private
	// cluster (gpu.Cluster.RackSize: 0 = the default of 2). Shared (fleet)
	// runs take the cluster's value instead.
	RackSize int
	// Shared, when set, runs the job inside a cluster-owned simulation
	// (StartJob) instead of a private one: the cluster owns the
	// environment, nodes and allocator, and the job leases capacity
	// through it. Run rejects configs with Shared set.
	Shared *SharedSim
}

// RunResult reports what the job did.
type RunResult struct {
	Policy     Policy
	Completed  bool
	WallTime   vclock.Time
	Accounting metrics.Accounting
	// Minibatch is the measured steady-state minibatch time.
	Minibatch vclock.Time
	// Loss maps iteration to loss on the reference (last-stage, d=0)
	// rank; a re-executed iteration overwrites the doomed attempt's value,
	// so the curve is the committed trajectory's.
	Loss map[int]float32
	// Reports are transparent-recovery episodes.
	Reports []*RecoveryReport
	// Incarnations counts job (re)starts (1 = never restarted).
	Incarnations int
	// JITCheckpointTime and RestoreTime are per-episode measurements for
	// Table 4 (user-level policy only).
	JITCheckpointTime vclock.Time
	RestoreTime       vclock.Time
	// Validations counts ranks whose §4.1 replay validation passed;
	// ValidationFailures counts ranks where it did not.
	Validations        int
	ValidationFailures int
	// ItersExecuted counts every minibatch executed, including redone
	// ones.
	ItersExecuted int
	// Peer summarizes the peer-shelter tier's replication activity
	// (policies with the Peer column only).
	Peer peerckpt.Stats
	// Pipe summarizes the checkpoint-free stage-redundancy tier's activity
	// (policies with the PipeFree column only).
	Pipe pipefree.Stats
	// MultiStepCommits counts multi-step generations the reference rank
	// committed (policies with the MultiStep column only).
	MultiStepCommits int
	// CkptReadBytes is the total modelled bytes read from checkpoint
	// stores (disk, tmpfs, and peer-shelter hosts) during restores — the
	// counter auditing the pipe-free family's zero-checkpoint-read claim.
	CkptReadBytes int64
	// Disk is the run's shared checkpoint store; oracle runs pass it back
	// in via JobConfig.DiskStore to restore from this run's checkpoints.
	Disk *checkpoint.Store
	// SimStats are the simulation kernel's event counters for the run
	// (process dispatches, timer fires, event triggers, spawns) — the
	// denominator-free raw material for events/sec benchmarking. In a
	// shared (fleet) simulation these are the cluster-wide counters at
	// the time this job finished.
	SimStats vclock.Stats
	// RecoveryLatencies is one entry per recovery episode: the time from
	// failure detection to the reference rank's first subsequent
	// minibatch start (for the transparent policy, each episode's
	// reported total). The fleet aggregation builds its per-tenant
	// recovery-latency distribution from these.
	RecoveryLatencies []vclock.Time
	// SkippedInjections counts planned injections that never fired
	// because their target was already lost when they came due.
	SkippedInjections int
	// Yields counts arbiter-requested preemption yields the job honored
	// (elastic fleet jobs only).
	Yields int
	// Shrinks and Expands count elastic resizes: one per elastic/shrink and
	// elastic/expand instant the run emits.
	Shrinks, Expands int
}

// OptimalInterval computes the periodic-checkpoint interval 1/c* for a
// workload from the §5.2 model, using the measured checkpoint cost.
func OptimalInterval(wl workload.Workload, fPerGPUDay float64) vclock.Time {
	o := wl.CkptTarget.Sec()
	if o <= 0 {
		o = float64(wl.StateBytesPerGPU()) / wl.CkptBandwidth()
	}
	c := analysis.OptimalFrequency(analysis.Params{O: o, F: analysis.PerDay(fPerGPUDay), N: wl.GPUs()})
	if c <= 0 {
		return vclock.Hour
	}
	return vclock.Seconds(1 / c)
}

// Run executes the job and returns its result.
func Run(cfg JobConfig) (*RunResult, error) {
	if cfg.Shared != nil {
		return nil, errors.New("core: Run with JobConfig.Shared set; use StartJob")
	}
	h, err := start(cfg)
	if h == nil {
		return nil, err
	}
	if err == nil {
		err = h.env.RunUntil(h.cfg.Horizon)
	}
	if err == nil {
		h.finish()
	}
	return h.res, err
}

// start validates cfg, applies its defaults, builds the job's harness and
// launches its processes. A harness comes back with an error only when the
// launch failed.
func start(cfg JobConfig) (*harness, error) {
	if err := prepare(&cfg); err != nil {
		return nil, err
	}
	h := newHarness(cfg)
	if err := h.setup(); err != nil {
		return nil, err
	}
	return h, h.launch()
}

// prepare validates the config and applies defaults.
func prepare(cfg *JobConfig) error {
	if cfg.Iters <= 0 {
		return errors.New("core: Iters must be positive")
	}
	world := cfg.WL.Topo.World()
	if err := cfg.Failures.Validate(world); err != nil {
		return err
	}
	for i, inj := range cfg.IterFailures {
		if inj.Rank < 0 || inj.Rank >= world {
			return fmt.Errorf("core: IterFailures[%d] (%v at iter %d) targets rank %d outside world [0,%d)",
				i, inj.Kind, inj.Iter, inj.Rank, world)
		}
	}
	if cfg.HangTimeout <= 0 {
		cfg.HangTimeout = 10 * vclock.Second
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = vclock.Time(cfg.Iters+20)*cfg.WL.Minibatch*4 +
			vclock.Time(len(cfg.Failures.Injections)+1)*10*vclock.Minute + vclock.Hour
	}
	return nil
}

func newHarness(cfg JobConfig) *harness {
	h := &harness{cfg: cfg, pol: cfg.Policy.Info(), shared: cfg.Shared, yieldAt: -1, expandAt: -1, label: "job"}
	if h.shared != nil && h.shared.Label != "" {
		h.label = h.shared.Label
	}
	return h
}

// IterInjection is a failure anchored to training progress.
type IterInjection struct {
	Iter int
	Frac float64
	Rank int
	Kind failure.Kind
}

// harness holds the run's mutable state.
type harness struct {
	cfg     JobConfig
	pol     PolicyInfo // cfg.Policy's table row: the tiers this run stacks
	env     *vclock.Env
	cluster *gpu.Cluster // private, or the fleet's: failure/shelter bookkeeping resolves against it
	engine  *nccl.Engine
	pool    Capacity
	disk    *checkpoint.Store
	kernels cuda.Registry
	// The policy row's recovery stack in restore-preference order, and what
	// buildTiers folded from it: the JIT flush target (nil = no user-level
	// stack), the narrowest placement every tier works on, and the longest
	// stall a saver may put between two heartbeats.
	tiers     []*tier
	flush     func(rank int) (ns string, to checkpoint.Target)
	minNodes  int
	beatSlack vclock.Time

	// Shared-simulation (fleet) state.
	shared   *SharedSim
	label    string
	startAt  vclock.Time
	finished bool
	yieldAt  int // iteration to stop at for an arbiter-requested yield; -1 if none
	expandAt int // iteration degraded workers stop at for a mid-run expand; -1 if none
	yields   int

	placement scheduler.Placement
	// gen is the communicator generation: the restart loop bumps it per
	// incarnation, the transparent coordinator per recovery attempt.
	gen int

	// Elastic degraded-mode state (elastic.go): topo/accum/nodes are the
	// CURRENT shape every incarnation builds workers from and allocates
	// (the workload's full shape unless an elastic shrink narrowed it).
	topo          train.Topology
	accum         int
	nodes         int
	heldNodes     int // nodes the running incarnation occupies
	maxIter       int // highest iteration any rank has started
	waitCap       vclock.Time
	degradedIters int
	degradedExtra int // sum of (accum-1) over degraded iteration starts

	res        *RunResult
	iterStarts map[int]vclock.Time // reference rank's StartMinibatch times
	refRank    int
	doneRanks  map[int]bool
	lastBeat   map[int]vclock.Time
	ckptStall  vclock.Time
	ckptCount  int
	execIters  int
	recovering bool        // a detected failure has not yet been followed by progress
	recoverAt  vclock.Time // when the current episode was detected

	injector    *failure.Injector
	pendingIter []IterInjection
	deviceOf    func(rank int) *gpu.Device
	runSpan     trace.Span
}

// setup builds the job's stacks: environment (private, unless a shared
// one is supplied), cluster and pool (private, or leased), engine,
// stores, tiers, and the failure injector. It performs no simulated work;
// launch starts the job's processes.
func (h *harness) setup() error {
	cfg := h.cfg
	wl := cfg.WL
	if h.shared != nil {
		h.env = h.shared.Env
		h.startAt = h.env.Now()
		h.cluster = h.shared.Cluster
		h.pool = h.shared.Capacity
		h.runSpan = trace.Of(h.env).Begin(h.env.Now(), "core", trace.LaneSim, "run",
			"job", h.label, "policy", cfg.Policy, "gpus", wl.GPUs(), "iters", cfg.Iters)
	} else {
		h.env = vclock.NewEnv(cfg.Seed)
		if rec := cfg.Recorder; rec != nil {
			rec.BeginRun(fmt.Sprintf("%v seed=%d", cfg.Policy, cfg.Seed))
			trace.Attach(h.env, rec)
			h.runSpan = rec.Begin(0, "core", trace.LaneSim, "run",
				"job", h.label, "policy", cfg.Policy, "gpus", wl.GPUs(),
				"iters", cfg.Iters, "seed", cfg.Seed)
		}
		h.cluster = gpu.NewCluster(h.env, wl.Nodes+cfg.SpareNodes, wl.PerNode, 1<<40)
		h.cluster.RackSize = cfg.RackSize
		h.pool = scheduler.NewPool(h.env, h.cluster.Nodes)
	}
	h.engine = nccl.NewEngine(h.env, wl.NCCLParams())
	if cfg.DiskStore != nil {
		h.disk = cfg.DiskStore
	} else {
		h.disk = checkpoint.NewStore(h.env, "shared", wl.CkptStoreParams())
	}
	h.kernels = train.Kernels()
	h.res = &RunResult{Policy: cfg.Policy, Loss: make(map[int]float32), Disk: h.disk}
	h.iterStarts = make(map[int]vclock.Time)
	// The reference rank (d=0, last stage, t=0) has the same rank number
	// at every data-parallel width, so it survives elastic shrinks.
	h.refRank = wl.Topo.Rank(0, wl.Topo.P-1, 0)
	h.topo, h.accum, h.nodes = wl.Topo, max(cfg.Accum, 1), wl.Nodes

	// Failure injector resolves targets against the current placement and
	// the cluster's rack geometry: RackDown is precisely the adversary that
	// breaks the shelter's weaker "distinct nodes suffice" assumption.
	h.injector = &failure.Injector{
		Env:      h.env,
		Cluster:  h.cluster,
		DeviceOf: h.device,
		Engine:   h.engine,
		CommKeyOf: func(rank int) string {
			_, p, t := wl.Topo.Coords(rank)
			if wl.Topo.FSDP() {
				return train.FSDPRepCommKey("job", 0, p)
			}
			return train.DPCommKey("job", p, t)
		},
		GenOf: func(string) int { return h.gen },
	}
	if err := h.buildTiers(); err != nil {
		return err
	}
	// A StorageFault opens a short window during which shared-store
	// writes fail transiently; the writers' bounded retry-with-backoff is
	// what absorbs it. Chaos-plan write outcomes compose underneath.
	var storageFaultWindow int
	h.disk.SetChaos(func(path string) checkpoint.WriteOutcome {
		if storageFaultWindow > 0 {
			storageFaultWindow--
			return checkpoint.WriteFailTransient
		}
		if cfg.Chaos != nil && cfg.Chaos.DiskChaos != nil {
			return cfg.Chaos.DiskChaos(path)
		}
		return checkpoint.WriteOK
	})
	h.injector.OnStorageFault = func(failure.Injection) { storageFaultWindow += 2 }
	h.injector.OnInject = func(inj failure.Injection) {
		if inj.Kind == failure.NodeDown || inj.Kind == failure.RackDown {
			// A whole-host failure takes its sheltered entries (and
			// retained stage-redundancy bundles) with it the instant it
			// happens — not at incarnation teardown. RackDown fails
			// several nodes at once, so sweep rather than resolve one rank.
			h.sweepFailedNodes()
		}
		if h.shared != nil && h.shared.OnInject != nil {
			h.shared.OnInject(inj)
		}
	}
	if cfg.Chaos != nil {
		h.injector.ArmPhase(cfg.Chaos.PhaseInjections...)
	}
	// Repair events re-admit failed hardware. When the job is running
	// degraded and the repaired capacity again covers the full width,
	// schedule a mid-run expand: degraded workers stop (and checkpoint) a
	// couple of iterations ahead, and the next incarnation restarts at
	// full width.
	h.injector.OnRepair = func(node *gpu.Node) {
		h.pool.MarkRepaired(node.ID)
		h.noteRepairCapacity()
	}
	plannedRepairs := 0
	for _, inj := range cfg.IterFailures {
		if inj.Kind == failure.NodeRepaired {
			plannedRepairs++
		}
	}
	h.injector.NotePlannedRepairs(plannedRepairs)
	h.injector.Start(cfg.Failures)
	// Communicator (re-)initialization under a fresh generation is a
	// recovery phase; generation 0 is initial job setup and is not.
	h.engine.SetOnCommInit(func(key string, gen, rank int) {
		if gen > 0 {
			h.injector.NotePhase(rank, failure.PhaseCommInit)
		}
	})
	h.pendingIter = append([]IterInjection(nil), cfg.IterFailures...)
	return nil
}

// device resolves the device currently hosting a rank: through the live
// rank stacks when the transparent path installed them (a hard-error
// migration moves ranks), else through the incarnation's placement.
func (h *harness) device(rank int) *gpu.Device {
	if h.deviceOf != nil {
		return h.deviceOf(rank)
	}
	return h.placement[rank]
}

// markNodeLost drops what a dead host took with it: its sheltered entries
// and retained stage-redundancy bundles.
func (h *harness) markNodeLost(id int) {
	for _, t := range h.tiers {
		if t.nodeLost != nil {
			t.nodeLost(id)
		}
	}
}

// foldTiers moves the tiers' counters into the result.
func (h *harness) foldTiers() {
	for _, t := range h.tiers {
		if t.fold != nil {
			t.fold(h.res)
		}
	}
}

// sweepFailedNodes marks every currently failed node lost.
func (h *harness) sweepFailedNodes() {
	for _, n := range h.cluster.Nodes {
		if n.Failed {
			h.markNodeLost(n.ID)
		}
	}
}

// launch starts the job's simulated processes; the caller (Run or the
// cluster) drives the environment forward.
func (h *harness) launch() error {
	if h.pol.Transparent {
		return h.runTransparent()
	}
	return h.runIncarnations()
}

// noteNodesLost drops peer-sheltered entries on cluster-destroyed nodes
// the moment they die (the workers themselves fail organically through
// their dead devices). Cluster-scoped injections bypass the job's own
// injector, so its OnInject sweep never sees them.
func (h *harness) noteNodesLost(nodeIDs []int) {
	if h.finished {
		return
	}
	for _, id := range nodeIDs {
		h.markNodeLost(id)
	}
}

// workerConfig builds the common per-rank training configuration.
func (h *harness) workerConfig(rank int, api cuda.API, gil *vclock.Mutex, layer *intercept.Layer) train.Config {
	wl := h.cfg.WL
	tc := train.Config{
		Name:     fmt.Sprintf("w%d", rank),
		JobKey:   "job",
		Rank:     rank,
		Topo:     h.topo,
		Model:    wl.TrainModel(),
		Opt:      wl.Optimizer(),
		Step:     wl.StepTime(),
		API:      api,
		DataSeed: 7,
		Accum:    h.accum,
		GIL:      gil,
	}
	if layer != nil {
		tc.Hooks = train.Hooks{
			StartMinibatch: func(iter int) {
				layer.StartMinibatch(iter)
				h.noteIterStart(rank, iter)
			},
			PreOptimizer: func(p *vclock.Proc, iter int) {
				if h.shouldValidate(iter) {
					res, err := layer.Validate(p)
					if err == nil && res.OK {
						h.res.Validations++
					} else {
						h.res.ValidationFailures++
					}
				}
				layer.PreOptimizerStep()
			},
			PostOptimizer: layer.PostOptimizerStep,
		}
	} else {
		tc.Hooks = train.Hooks{StartMinibatch: func(iter int) { h.noteIterStart(rank, iter) }}
	}
	if h.cfg.CollectLoss && rank == h.refRank {
		tc.OnLoss = func(iter int, loss float32) { h.res.Loss[iter] = loss }
	}
	return tc
}

// shouldValidate reports whether the §4.1 verification runs at iter.
func (h *harness) shouldValidate(iter int) bool {
	if !h.pol.Transparent || h.cfg.ValidateAt <= 0 {
		return false
	}
	if iter == h.cfg.ValidateAt {
		return true
	}
	return h.cfg.ValidateEvery > 0 && iter > h.cfg.ValidateAt &&
		(iter-h.cfg.ValidateAt)%h.cfg.ValidateEvery == 0
}

func (h *harness) noteIterStart(rank, iter int) {
	if h.lastBeat != nil {
		h.lastBeat[rank] = h.env.Now()
	}
	if iter > h.maxIter {
		h.maxIter = iter
	}
	if rank != h.refRank {
		return
	}
	if h.recovering {
		h.res.RecoveryLatencies = append(h.res.RecoveryLatencies, h.env.Now()-h.recoverAt)
		h.recovering = false
	}
	if _, seen := h.iterStarts[iter]; !seen {
		h.iterStarts[iter] = h.env.Now()
		// Fire iteration-anchored failures.
		remain := h.pendingIter[:0]
		for _, inj := range h.pendingIter {
			if inj.Iter != iter {
				remain = append(remain, inj)
				continue
			}
			delay := vclock.Time(inj.Frac * float64(h.cfg.WL.Minibatch))
			h.env.Go("iter-injector", func(p *vclock.Proc) {
				if delay > 0 {
					p.Sleep(delay)
				}
				h.injector.Apply(failure.Injection{At: p.Now(), Target: inj.Rank, Kind: inj.Kind})
			})
		}
		h.pendingIter = remain
	}
	h.execIters++
	if h.accum > 1 {
		h.degradedIters++
		h.degradedExtra += h.accum - 1
	}
}

// measuredMinibatch estimates the clean minibatch time from early
// iteration start gaps.
func (h *harness) measuredMinibatch() vclock.Time {
	best := vclock.Time(0)
	for i := 1; i <= 5; i++ {
		a, okA := h.iterStarts[i]
		b, okB := h.iterStarts[i+1]
		if okA && okB {
			gap := b - a
			if best == 0 || gap < best {
				best = gap
			}
		}
	}
	if best == 0 {
		best = h.cfg.WL.Minibatch
	}
	return best
}

// finish computes the accounting from the run's observations.
func (h *harness) finish() {
	res := h.res
	res.WallTime = h.env.Now() - h.startAt
	res.SimStats = h.env.Stats()
	res.Minibatch = h.measuredMinibatch()
	res.ItersExecuted = h.execIters
	res.SkippedInjections = h.injector.SkippedCount()
	res.Yields = h.yields
	// The final incarnation's world size: an elastic run that finished in
	// degraded mode completed with fewer ranks than the full workload.
	res.Completed = len(h.doneRanks) == h.topo.World()
	if h.degraded() {
		// Trace invariant 6: a run that closes while degraded must say so
		// explicitly — every shrink is followed by an expand or this.
		trace.Of(h.env).Instant(h.env.Now(), "elastic", trace.LaneSim, "end-degraded",
			"world", h.topo.World(), "completed", res.Completed)
	}

	// Transparent recovery episodes report their own detection-to-resume
	// totals; surface them in the same per-episode latency series the
	// incarnation policies record through noteIterStart.
	if len(res.Reports) > 0 && len(res.RecoveryLatencies) == 0 {
		for _, rep := range res.Reports {
			res.RecoveryLatencies = append(res.RecoveryLatencies, rep.Total())
		}
	}
	h.foldTiers()
	mb := res.Minibatch
	acct := metrics.Accounting{N: h.cfg.WL.GPUs()}
	acct.Checkpoints = h.ckptCount
	// A degraded iteration runs Accum microbatches and makes the forward
	// progress of Accum full-width iterations' worth of samples: credit it
	// with Accum×mb of useful time (DegradedUseful reports the total).
	useful := vclock.Time(min(h.execIters, h.cfg.Iters))*mb +
		vclock.Time(h.degradedExtra)*mb
	redoIters := h.execIters - min(h.execIters, h.cfg.Iters)
	acct.Useful = useful
	acct.RedoWork = vclock.Time(redoIters) * mb
	acct.CkptStall = h.ckptStall
	acct.WaitingForCapacity = h.waitCap
	acct.DegradedIters = h.degradedIters
	acct.DegradedUseful = vclock.Time(h.degradedIters+h.degradedExtra) * mb
	acct.Recoveries = max(res.Incarnations-1, len(res.Reports))
	// Whatever the run spent that no bucket claims is recovery overhead —
	// for a completed run the fixed recovery costs, for a stalled or
	// failed one the time burnt before it gave up. Charging it keeps
	// useful + wasted == wall exact at every terminal state.
	fixed := res.WallTime - acct.Useful - acct.RedoWork - acct.CkptStall - acct.WaitingForCapacity
	if fixed < 0 {
		// Degraded-iteration credit can slightly overestimate progress
		// rate; shave Useful rather than break useful+wasted == wall.
		acct.Useful += fixed
		fixed = 0
	}
	acct.RecoveryFixed = fixed
	res.Accounting = acct
	// The authoritative accounting instant: the streaming aggregator's
	// final per-job rollup is parsed from these args, emitted from the
	// very struct RunResult carries, so live and post-hoc numbers cannot
	// diverge (streaming is a view, never a second source of truth).
	// Durations are integer nanoseconds: %v's "1.500s" formatting would
	// lose the exactness the differential suite asserts.
	trace.Of(h.env).Instant(h.env.Now(), "core", trace.LaneSim, "acct",
		"job", h.label, "n", acct.N,
		"useful", int64(acct.Useful),
		"ckpt_stall", int64(acct.CkptStall),
		"recovery_fixed", int64(acct.RecoveryFixed),
		"redo", int64(acct.RedoWork),
		"wait_capacity", int64(acct.WaitingForCapacity),
		"recoveries", acct.Recoveries,
		"checkpoints", acct.Checkpoints,
		"degraded_iters", acct.DegradedIters,
		"degraded_useful", int64(acct.DegradedUseful),
		"wall", int64(res.WallTime),
		"completed", res.Completed,
		"incarnations", res.Incarnations,
		"episodes", len(res.RecoveryLatencies))
	h.runSpan.End(h.env.Now(), "completed", res.Completed,
		"incarnations", res.Incarnations, "recoveries", acct.Recoveries)
}

// jobDone finalizes a fleet job exactly once: accounting closes at the
// current virtual time and the cluster's OnDone observer fires. Single-job
// runs finalize through Run; fleet jobs through their supervisor exit,
// transparent completion, or ForceFinish at the cluster horizon.
func (h *harness) jobDone() {
	if h.finished {
		return
	}
	h.finished = true
	h.finish()
	if h.shared != nil && h.shared.OnDone != nil {
		h.shared.OnDone(h.res)
	}
}

// noteDetected emits the failure-detection instant trace invariants key
// on: every JIT checkpoint and every recovery-then-resume must be
// anchored to one of these. It also opens a recovery-latency episode:
// the episode closes at the reference rank's next minibatch start.
func (h *harness) noteDetected(rank int, by string) {
	t := h.env.Now()
	if !h.recovering {
		h.recovering = true
		h.recoverAt = t
	}
	lane := trace.LaneSim
	if rank >= 0 {
		lane = trace.Rank(rank)
	}
	trace.Of(h.env).Instant(t, "fail", lane, "detected", "by", by)
}
