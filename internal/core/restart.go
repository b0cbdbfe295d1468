package core

import (
	"fmt"
	"strings"

	"jitckpt/internal/cuda"
	"jitckpt/internal/failure"
	"jitckpt/internal/gpu"
	"jitckpt/internal/intercept"
	"jitckpt/internal/scheduler"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// ---------------------------------------------------------------------
// Incarnation-based policies: none, periodic, user-level JIT.
// ---------------------------------------------------------------------

// incarnationEnd reports how one job incarnation ended.
type incarnationEnd int

const (
	endCompleted incarnationEnd = iota
	endFailed
	endHorizon
	// endExpand: degraded workers stopped and checkpointed so the next
	// incarnation can restart at full width on repaired nodes.
	endExpand
	// endYield: workers stopped and checkpointed for an arbiter-requested
	// preemption; the next incarnation re-allocates under the arbiter's
	// reservations (and typically takes the elastic shrink path).
	endYield
)

func (e incarnationEnd) String() string {
	return [...]string{"completed", "failed", "horizon", "expand", "yield"}[e]
}

func (h *harness) runIncarnations() error {
	// The whole incarnation loop runs inside a supervisor process.
	h.doneRanks = make(map[int]bool)
	name := "supervisor"
	if h.shared != nil {
		name = h.label + ".supervisor"
	}
	h.env.Go(name, func(p *vclock.Proc) {
		if h.shared != nil {
			defer h.jobDone()
		}
		for {
			end := h.runOneIncarnation(p)
			h.res.Incarnations++
			if end == endCompleted || end == endHorizon || h.res.Incarnations > 50 {
				return
			}
		}
	})
	return nil
}

// awaitCapacity parks p in wait until capacity may have changed or the
// horizon passes, charging the time to WaitingForCapacity; false means
// there is nothing to wait for (a nil wait) or the horizon is already
// behind.
func (h *harness) awaitCapacity(p *vclock.Proc, wait func(*vclock.Proc, vclock.Time) bool) bool {
	timeout := h.cfg.Horizon - p.Now()
	if wait == nil || timeout <= 0 {
		return false
	}
	t0 := p.Now()
	wait(p, timeout)
	h.waitCap += p.Now() - t0
	return true
}

// allocate reserves the incarnation's nodes, shrinking — or waiting for a
// planned repair or a fleet capacity change — when no full placement
// exists. Fixed-width single-job policies give up until the horizon
// (ok=false); elastic policies degrade instead of dying.
func (h *harness) allocate(p *vclock.Proc) ([]*gpu.Node, bool) {
	wl := h.cfg.WL
	nodes, err := h.pool.Allocate(h.nodes, nil)
	for err != nil {
		var wait func(*vclock.Proc, vclock.Time) bool
		if h.pol.Elastic {
			if topo, n, ok := shrink(h.topo, wl.PerNode, h.pool.FreeHealthy(), h.minNodes); ok {
				// Accumulation is relative to the FULL width, so nested
				// shrinks keep the global batch.
				h.topo, h.nodes, h.expandAt = topo, n, -1
				h.accum = wl.Topo.D / topo.D * max(h.cfg.Accum, 1)
				h.res.Shrinks++
				trace.Of(h.env).Instant(p.Now(), "elastic", trace.LaneSim, "shrink",
					"world", topo.World(), "accum", h.accum, "nodes", n)
				nodes, err = h.pool.Allocate(n, nil)
				continue
			}
			if h.injector.RepairsPending() {
				wait = h.injector.AwaitRepair
			}
		}
		if wait == nil && h.shared != nil {
			// Fleet job: block until cluster capacity may have changed (a
			// release, repair, or reservation shift), then retry.
			wait = h.shared.AwaitCapacity
		}
		if !h.awaitCapacity(p, wait) {
			return nil, false
		}
		nodes, err = h.pool.Allocate(h.nodes, nil)
	}
	return nodes, true
}

// runOneIncarnation runs one job incarnation and reports how it ended.
func (h *harness) runOneIncarnation(p *vclock.Proc) (end incarnationEnd) {
	wl := h.cfg.WL

	// Elastic re-expand at the incarnation boundary: a degraded job
	// returns to full width as soon as the repaired capacity exists. The
	// rejoining ranks bootstrap from the degraded era's checkpoints —
	// position keys are width-invariant, so cross-world assembly hands
	// every new rank a surviving replica's state.
	if h.degraded() && h.pool.FreeHealthy() >= wl.Nodes {
		h.topo, h.accum, h.nodes, h.expandAt = wl.Topo, max(h.cfg.Accum, 1), wl.Nodes, -1
		h.res.Expands++
		trace.Of(h.env).Instant(p.Now(), "elastic", trace.LaneSim, "expand",
			"world", h.topo.World(), "nodes", h.nodes)
	}

	nodes, ok := h.allocate(p)
	if !ok {
		return endHorizon
	}
	// A pending yield is consumed by re-allocation: the job now holds
	// exactly what the arbiter's reservations allow; a still-unsatisfied
	// arbiter will simply request another yield.
	h.yieldAt = -1
	h.heldNodes = len(nodes)
	defer func() { h.heldNodes = 0 }()
	defer h.pool.Release(nodes)

	world := h.topo.World()
	isp := trace.Of(h.env).Begin(p.Now(), "core", trace.LaneSim, "incarnation",
		"gen", h.gen, "world", world)
	defer func() { isp.End(p.Now(), "end", end) }()

	placement, err := scheduler.Place(nodes, world)
	if err != nil {
		return endHorizon
	}
	h.placement = placement
	// Completion is judged against the CURRENT world: stale done-marks
	// from a wider incarnation must not count.
	h.doneRanks = make(map[int]bool)
	for _, t := range h.tiers {
		if t.plan != nil && t.plan(p) != nil {
			return endHorizon
		}
	}
	// lastBeat entries appear when a rank starts its first minibatch;
	// the heartbeat watchdog ignores ranks still in setup (communicator
	// rendezvous and checkpoint restore legitimately take tens of
	// seconds).
	h.lastBeat = make(map[int]vclock.Time)
	inc := &incarnation{
		h: h, world: world,
		// The recovery episode belongs to this incarnation: saves an
		// earlier episode noted must not satisfy this one's restart.
		ep:    h.newEpisode(noTarget),
		ended: h.env.NewEvent(fmt.Sprintf("job.ended.g%d", h.gen)),
	}
	if !inc.buildStacks() {
		return endHorizon
	}
	for r, st := range inc.stacks {
		st.proc = h.env.Go(fmt.Sprintf("worker%d.g%d", r, h.gen), func(wp *vclock.Proc) { inc.runRank(wp, r) })
	}
	h.env.Go(fmt.Sprintf("heartbeat.g%d", h.gen), inc.heartbeat)
	p.Wait(inc.ended)
	return inc.teardown(p)
}

// incarnation is one run of the job's ranks between two restarts: their
// stacks, the recovery episode a failure among them opens, and the one
// completion event that ends it.
type incarnation struct {
	h      *harness
	ep     *episode
	world  int
	stacks []*rankStack
	// ended fires once per incarnation; how records why: the last worker
	// done, every worker at a planned stop (expand or yield) with its state
	// persisted, or a failure — which overrides the others for as long as
	// the supervisor has not yet acted on them.
	ended                *vclock.Event
	how                  incarnationEnd
	doneCount, stopCount int
}

// rankStack is one rank's stack in an incarnation.
type rankStack struct {
	worker *train.Worker
	layer  *intercept.Layer
	ujit   *UserLevelRank
	savers []rankSaver
	proc   *vclock.Proc
}

func (inc *incarnation) endWith(e incarnationEnd) {
	if !inc.ended.Triggered() || e == endFailed {
		inc.how = e
	}
	inc.ended.Trigger()
}

// fail is the one way a rank (or, with rank -1, the heartbeat) ends the
// incarnation in failure.
func (inc *incarnation) fail(rank int, by string) {
	inc.h.noteDetected(rank, by)
	inc.endWith(endFailed)
}

// buildStacks builds every rank's stack on the placement: its driver, the
// user-level JIT stack when the row has a flush target (interception layer,
// GIL, and a UserLevelRank saving through the episode), its worker and the
// tiers' savers. false means a stack could not be built.
func (inc *incarnation) buildStacks() bool {
	h := inc.h
	wl := h.cfg.WL
	inc.stacks = make([]*rankStack, inc.world)
	for r := range inc.stacks {
		drv, err := cuda.NewDriver(h.placement[r], h.engine, h.kernels, wl.CUDAParams())
		if err != nil {
			return false
		}
		st := &rankStack{}
		var api cuda.API = drv
		var gil *vclock.Mutex
		if h.flush != nil {
			gil = vclock.NewMutex(h.env, fmt.Sprintf("gil%d", r))
			st.layer = intercept.New(h.env, drv, fmt.Sprintf("rank%d", r), intercept.Config{
				Mode:        intercept.ModeUserLevel,
				HangTimeout: h.cfg.HangTimeout,
			})
			api = st.layer
		}
		worker, err := train.NewWorker(h.workerConfig(r, api, gil, st.layer))
		if err != nil {
			return false
		}
		st.worker = worker
		if st.layer != nil {
			st.ujit = &UserLevelRank{
				Rank: r, Layer: st.layer, Worker: worker, GIL: gil,
				Save:      inc.ep.save,
				NotePhase: func() { h.injector.NotePhase(r, failure.PhaseCheckpoint) },
			}
			st.layer.SetOnFault(st.ujit.Hook())
		}
		for _, t := range h.tiers {
			if t.saver != nil {
				st.savers = append(st.savers, rankSaver{t.saveLabel, t.saver(r, worker)})
			}
		}
		inc.stacks[r] = st
	}
	return true
}

// runRank is rank r's worker process: set up, restore, then train through
// the tiers' savers until the run's last iteration or a planned stop.
func (inc *incarnation) runRank(wp *vclock.Proc, r int) {
	h, st := inc.h, inc.stacks[r]
	if st.ujit != nil {
		st.ujit.MainProc = wp
	}
	if err := st.worker.Setup(wp, h.gen); err != nil {
		inc.fail(r, "setup")
		return
	}
	// Restore from the newest usable checkpoint, if any.
	if h.res.Incarnations > 0 || h.hasCheckpoint() {
		restored, rerr := inc.restoreRank(wp, r)
		if rerr != nil {
			// A checkpoint was assembled but could not be read or loaded
			// (e.g. a fault mid-restore): fail the incarnation rather than
			// silently restarting this one rank at iteration 0 while its
			// peers resume at N.
			inc.fail(r, "restore")
			return
		}
		if !restored {
			// No checkpoint: restart from scratch.
			st.worker.SetIter(0)
		}
	}
	for st.worker.Iter() < h.cfg.Iters {
		// Planned stops (elastic jobs only: nothing else sets expandAt or
		// yieldAt): a mid-run expand (degraded workers stop at the scheduled
		// iteration so the next incarnation can restart at full width on
		// repaired nodes) or an arbiter-requested preemption yield (the next
		// incarnation re-allocates under reservations and shrinks). Either
		// way every worker persists its state first; the per-iteration
		// all-reduce keeps ranks in lockstep, so all of them stop at the
		// same iteration.
		stop, by := endCompleted, ""
		if h.expandAt >= 0 && st.worker.Iter() >= h.expandAt {
			stop, by = endExpand, "elastic-save"
		} else if h.yieldAt >= 0 && st.worker.Iter() >= h.yieldAt {
			stop, by = endYield, "yield-save"
		}
		if by != "" {
			if err := h.elasticSave(wp, st.worker, inc.ep); err != nil {
				inc.fail(r, by)
				return
			}
			if inc.stopCount++; inc.stopCount == inc.world {
				inc.endWith(stop)
			}
			return
		}
		if _, err := st.worker.RunIter(wp); err != nil {
			inc.fail(r, "iter-error")
			return
		}
		for _, sv := range st.savers {
			stall, err := sv.save(wp)
			if err != nil {
				inc.fail(r, sv.label)
				return
			}
			if stall > 0 && r == h.refRank {
				h.ckptStall += stall
				h.ckptCount++
			}
		}
	}
	h.doneRanks[r] = true
	if inc.doneCount++; inc.doneCount == inc.world {
		inc.endWith(endCompleted)
	}
}

// heartbeat is the incarnation's watchdog process: it declares failure when
// progress stalls (the periodic baselines have no interception layer to
// detect hangs).
func (inc *incarnation) heartbeat(hp *vclock.Proc) {
	h := inc.h
	cfg, wl := h.cfg, h.cfg.WL
	// A degraded iteration runs accum microbatches, so heartbeats
	// legitimately arrive accum× further apart.
	mbEff := wl.Minibatch * vclock.Time(max(h.accum, 1))
	// A saver that runs in the critical path legitimately stalls beats, so
	// the threshold carries the longest such stall; an overlapped writer
	// adds none, and the threshold keeps only the configured interval for
	// it.
	threshold := 3*mbEff + cfg.HangTimeout + max(cfg.CkptInterval, h.beatSlack)
	// Ranks with no beat yet are normally in legitimate setup (communicator
	// rendezvous, checkpoint restore) and are skipped — but a fault during
	// setup can wedge or kill every rank before any first beat, in which
	// case the per-rank staleness check would never fire and the
	// incarnation would hang until the horizon. Bound setup by a grace
	// period generous enough for rendezvous plus restore at the modelled
	// bandwidths.
	np := wl.NCCLParams()
	setupGrace := threshold + wl.RestoreInit() +
		np.CommInitBase + vclock.Time(inc.world)*np.CommInitPerRank +
		4*gpu.TransferTime(wl.StateBytesPerGPU(), wl.CkptStoreParams().ReadBW) +
		30*vclock.Second
	incStart := hp.Now()
	for !hp.WaitTimeout(inc.ended, 2*vclock.Second) {
		for r := 0; r < inc.world; r++ {
			if h.doneRanks[r] {
				continue
			}
			beat, started := h.lastBeat[r]
			if started && hp.Now()-beat > threshold || !started && hp.Now()-incStart > setupGrace {
				inc.fail(-1, "heartbeat")
				return
			}
		}
	}
}

// teardown closes the incarnation once ended has fired and reports how it
// ended. After a failure it waits for the episode's checkpoint quorum
// before killing the ranks (§3.3) — 2 min here, after which recovery falls
// to whatever older checkpoint a tier holds — and takes the failed nodes
// out of the pool.
func (inc *incarnation) teardown(p *vclock.Proc) incarnationEnd {
	h := inc.h
	h.foldTiers()
	if inc.how == endFailed {
		if h.flush != nil {
			inc.ep.wait(p, 2*vclock.Minute)
		}
		// A failure mid-expand-window invalidates the scheduled stop: the
		// incarnation boundary re-evaluates capacity from scratch.
		h.expandAt = -1
	}
	for _, st := range inc.stacks {
		// Stop the interception watchdogs so their poll timers do not keep
		// the simulation alive until the horizon.
		if st.layer != nil {
			st.layer.StopWatchdog()
		}
		if inc.how == endFailed {
			if st.ujit != nil && st.ujit.CheckpointDone && st.ujit.SaveDuration > h.res.JITCheckpointTime {
				h.res.JITCheckpointTime = st.ujit.SaveDuration
			}
			st.proc.Kill()
		}
	}
	switch inc.how {
	case endCompleted:
		return inc.how
	case endYield:
		h.yields++
		trace.Of(h.env).Instant(p.Now(), "elastic", trace.LaneSim, "yield",
			"world", inc.world, "iter", h.yieldAt)
	case endFailed:
		// Exclude nodes whose devices are unhealthy.
		for r := 0; r < inc.world; r++ {
			if dev := h.placement[r]; dev.Health() != gpu.Healthy {
				h.pool.MarkFailed(dev.NodeID)
			}
		}
		// Whole-host failures take their sheltered entries and retained
		// stage-redundancy bundles with them (the injector already marked
		// injection-driven ones; this sweep catches any other path that
		// failed a node).
		h.sweepFailedNodes()
		// A failure supersedes any pending yield: the incarnation boundary
		// re-allocates from scratch under current reservations anyway.
		h.yieldAt = -1
	}
	// Expand, yield and failure all restart under a fresh generation (the
	// expand itself happens at the next incarnation's boundary).
	h.gen++
	return inc.how
}

// hasCheckpoint reports whether a fresh job finds a predecessor's
// checkpoints in any of its tiers' disk namespaces.
func (h *harness) hasCheckpoint() bool {
	for _, t := range h.tiers {
		if t.ns != "" && len(h.disk.List(fmt.Sprintf("job/ckpt/%s/", t.ns))) > 0 {
			return true
		}
	}
	return false
}

// restoreRank loads the episode's assembled checkpoint (across the policy's
// disk namespaces and any surviving in-memory tier) into rank's worker and
// charges the fixed job-initialization cost. restored=false with a nil
// error means there is nothing to restore from (fresh start); a non-nil
// error means a checkpoint was assembled but this rank failed to load it —
// restarting at iteration 0 would diverge from its peers, so the caller
// must fail the incarnation instead.
func (inc *incarnation) restoreRank(p *vclock.Proc, rank int) (bool, error) {
	h, w := inc.h, inc.stacks[rank].worker
	h.injector.NotePhase(rank, failure.PhaseRestore)
	t0 := p.Now()
	sp := trace.Of(h.env).Begin(t0, "ckpt", trace.Rank(rank), "restore")
	plan, err := inc.ep.assemble(p, rank, w)
	if err != nil {
		sp.End(p.Now(), "err", err)
		return false, nil
	}
	cand := plan.For[rank]
	readBefore := h.storeReadBytes()
	ms, err := cand.Load(p)
	if err != nil {
		sp.End(p.Now(), "err", err)
		return false, fmt.Errorf("core: rank %d restore read: %w", rank, err)
	}
	readBytes := h.storeReadBytes() - readBefore
	h.res.CkptReadBytes += readBytes
	p.Sleep(h.cfg.WL.RestoreInit())
	if err := w.LoadModelState(p, ms); err != nil {
		sp.End(p.Now(), "err", err)
		return false, fmt.Errorf("core: rank %d restore load: %w", rank, err)
	}
	w.SetIter(plan.Iter)
	if rank == h.refRank && h.res.RestoreTime == 0 {
		h.res.RestoreTime = p.Now() - t0
	}
	// Desc is "<tier>:<dir>"; the trace pins just the tier so the label
	// stays stable across iteration renumbering.
	src, _, _ := strings.Cut(cand.Desc, ":")
	trace.Of(h.env).Instant(p.Now(), "ckpt", trace.Rank(rank), "restore-done",
		"valid", true, "iter", plan.Iter, "src", src, "read_bytes", readBytes)
	sp.End(p.Now(), "iter", plan.Iter)
	return true, nil
}

// storeReadBytes sums the modelled bytes every checkpoint store involved
// in this run has served: the shared disk and the tiers' own stores.
// Diffing it around a restore's Load yields that recovery's
// checkpoint-read traffic.
func (h *harness) storeReadBytes() int64 {
	total := h.disk.ReadBytes()
	for _, t := range h.tiers {
		if t.readBytes != nil {
			total += t.readBytes()
		}
	}
	return total
}
