package core

import (
	"fmt"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/cuda"
	"jitckpt/internal/gpu"
	"jitckpt/internal/intercept"
	"jitckpt/internal/metrics"
	"jitckpt/internal/proxy"
	"jitckpt/internal/replay"
	"jitckpt/internal/scheduler"
	"jitckpt/internal/tensor"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// ---------------------------------------------------------------------
// Transparent policy: one incarnation, coordinator-driven recovery.
// ---------------------------------------------------------------------

func (h *harness) runTransparent() error {
	if h.shared != nil {
		// Fleet admission: wait (in simulated time) until the arbiter's
		// lease grants the full width, then start. Transparent jobs are
		// fixed-width, so admission is all-or-nothing.
		h.env.Go(h.label+".admit", func(p *vclock.Proc) {
			nodes, ok := h.allocate(p)
			if !ok {
				h.jobDone()
				return
			}
			if serr := h.startTransparent(nodes); serr != nil {
				h.env.Tracef("%s: transparent start failed: %v", h.label, serr)
				h.pool.Release(nodes)
				h.jobDone()
			}
		})
		return nil
	}
	nodes, err := h.pool.Allocate(h.cfg.WL.Nodes, nil)
	if err != nil {
		return err
	}
	return h.startTransparent(nodes)
}

// startTransparent builds the rank stacks and their coordinator on
// allocated nodes and launches the workers.
func (h *harness) startTransparent(nodes []*gpu.Node) error {
	cfg := h.cfg
	wl := cfg.WL
	placement, err := scheduler.Place(nodes, wl.Topo.World())
	if err != nil {
		return err
	}
	h.placement = placement
	h.doneRanks = make(map[int]bool)

	ranks := make([]*proxyRank, wl.Topo.World())
	c := &coordinator{h: h, ranks: ranks, faultQ: vclock.NewQueue[rankFault](h.env, "job.faults")}
	for r := 0; r < wl.Topo.World(); r++ {
		server, err := proxy.NewServer(h.env, placement[r], h.engine, h.kernels, wl.CUDAParams(), proxy.DefaultParams())
		if err != nil {
			return err
		}
		client := proxy.NewClient(h.env, server)
		layer := intercept.New(h.env, client, fmt.Sprintf("rank%d", r), intercept.Config{
			Mode:        intercept.ModeTransparent,
			HangTimeout: cfg.HangTimeout,
			OnFault:     c.hook(r),
		})
		worker, err := train.NewWorker(h.workerConfig(r, layer, nil, layer))
		if err != nil {
			return err
		}
		ranks[r] = &proxyRank{Rank: r, Layer: layer, Client: client, Server: server, Worker: worker}
	}
	h.env.Go("job.coordinator", c.run)
	// Resolve failure targets through the live rank stacks: a hard-error
	// migration moves ranks to new devices.
	h.deviceOf = func(rank int) *gpu.Device { return ranks[rank].Server.Device() }

	for r := 0; r < wl.Topo.World(); r++ {
		h.env.Go(fmt.Sprintf("worker%d", r), func(p *vclock.Proc) {
			w := ranks[r].Worker
			if err := w.Setup(p, 0); err != nil {
				h.env.Tracef("rank %d setup failed: %v", r, err)
				return
			}
			if err := w.RunIters(p, cfg.Iters); err != nil {
				h.env.Tracef("rank %d training failed: %v", r, err)
				return
			}
			h.doneRanks[r] = true
			if len(h.doneRanks) == wl.Topo.World() {
				// Job complete: stop the watchdogs so their poll timers
				// do not keep the simulation alive until the horizon.
				for _, tr := range ranks {
					tr.Layer.StopWatchdog()
				}
				if h.shared != nil {
					// Return the leased nodes (post-migration placements
					// included: resolve through the live rank stacks) and
					// close the job's fleet accounting.
					seen := make(map[int]bool)
					var ids []int
					for _, tr := range ranks {
						if dev := tr.Server.Device(); dev != nil && !seen[dev.NodeID] {
							seen[dev.NodeID] = true
							ids = append(ids, dev.NodeID)
						}
					}
					h.pool.ReleaseByID(ids...)
					h.jobDone()
				}
			}
		})
	}
	h.res.Incarnations = 1
	return nil
}

// proxyRank is one rank's transparent-recovery stack: the application
// (Worker) programs against Layer, which wraps a proxy Client talking to
// the Server that owns the device.
type proxyRank struct {
	Rank   int
	Layer  *intercept.Layer
	Client *proxy.Client
	Server *proxy.Server
	Worker *train.Worker
}

// maxRecoveryAttempts bounds recovery restarts per episode.
const maxRecoveryAttempts = 3

// rankFault is a fault notification from one rank's interception layer.
type rankFault struct {
	rank int
	f    intercept.Fault
}

// coordinator is the transparent JIT recovery controller of one job. In
// the paper this logic lives in the device-proxy interception layer plus
// the cluster control plane; here the layers' fault hooks feed it and its
// process drives recoveries. It owns only the rank stacks and the fault
// queue: the workload, stores, monitor, capacity, communicator generation
// (h.gen) and reports (h.res.Reports) are the harness's.
type coordinator struct {
	h      *harness
	ranks  []*proxyRank
	faultQ *vclock.Queue[rankFault]
}

// hook returns the OnFault callback for a rank's interception layer. It
// only enqueues: recovery runs in the coordinator's process.
func (c *coordinator) hook(rank int) func(p *vclock.Proc, f intercept.Fault) {
	return func(_ *vclock.Proc, f intercept.Fault) {
		env := c.h.env
		trace.Of(env).Instant(env.Now(), "fail", trace.Rank(rank), "detected",
			"by", "intercept", "iter", f.Iter)
		c.faultQ.Push(rankFault{rank: rank, f: f})
	}
}

// run is the coordinator's process: one recovery episode per fault that
// finds it idle.
func (c *coordinator) run(p *vclock.Proc) {
	for {
		first := c.faultQ.Pop(p)
		report := c.recover(p, first)
		c.h.res.Reports = append(c.h.res.Reports, report)
		// Faults raised before or during this recovery are stale.
		c.faultQ.Drain()
	}
}

// recover drives one recovery episode end to end. The episode is
// re-entrant: a fault arriving mid-recovery (a second GPU failing while
// ranks replay, a network hang during communicator re-init) makes the
// attempt time out or error, after which the coordinator kills any
// straggling per-rank recovery processes, re-gates every rank, drains the
// stale fault queue, and restarts recovery from classification under a
// fresh communicator generation — instead of wedging on an unbounded wait.
func (c *coordinator) recover(p *vclock.Proc, first rankFault) *RecoveryReport {
	env := c.h.env
	detected := p.Now()
	rsp := trace.Of(env).Begin(detected, "core", trace.LaneSim, "recovery",
		"rank", first.rank, "fault", first.f.Kind)
	var report *RecoveryReport
	// lost tracks ranks whose device state became suspect during a failed
	// attempt (buffers re-allocated, restore or replay cut short): on the
	// next attempt they must restore from a replica or checkpoint even if
	// their device now looks healthy — otherwise a retry would resume
	// training from fabricated state.
	lost := make(map[int]bool)
	// The advanced/baseIter classification describes the pre-episode state
	// of the parked hosts, which a failed attempt cannot change — but the
	// attempt's own teardown destroys the device-side evidence (drained
	// devices, aborted ops), so it is computed once and carried across
	// attempts.
	var cls *episodeClass
	var ok bool
	for attempt := 1; ; attempt++ {
		report, ok, cls = c.attemptRecovery(p, first, attempt, lost, cls)
		report.Attempts = attempt
		if ok || attempt >= maxRecoveryAttempts || report.Terminal() {
			if !ok {
				env.Tracef("job: recovery gave up after %d attempts (%s)", attempt, report.Kind)
			}
			break
		}
		env.Tracef("job: recovery attempt %d failed, restarting recovery", attempt)
		// Faults raised by the failed attempt itself are stale: the next
		// attempt re-classifies every rank from current device health.
		c.faultQ.Drain()
	}
	report.DetectedAt = detected
	report.CompletedAt = p.Now()
	env.Tracef("job: recovery complete in %v", report.Total())
	rsp.End(p.Now(), "ok", ok, "attempts", report.Attempts, "kind", report.Kind)
	return report
}

// attemptTimeout is the per-attempt recovery deadline.
func (c *coordinator) attemptTimeout() vclock.Time {
	if t := c.h.cfg.RecoveryAttemptTimeout; t > 0 {
		return t
	}
	// Generous default: base coordination slack plus several end-to-end
	// state copies at a conservative 1 GB/s (covers PCIe copies, store
	// writes/reads and serialization on the hard path without ever firing
	// during a healthy recovery).
	t := 2 * vclock.Minute
	if b := c.h.cfg.WL.StateBytesPerGPU(); b > 0 {
		t += 8 * gpu.TransferTime(b, 1e9)
	}
	return t
}

// episodeClass is the once-per-episode classification of the failed
// minibatch: whether the optimizer step completed (§4.2.2 roll-forward)
// and which iteration the surviving state belongs to.
type episodeClass struct {
	advanced bool
	baseIter int
}

// attemptRecovery runs one recovery attempt: gate, quiesce, classify,
// dispatch. It reports whether every rank recovered, and returns the
// episode classification for reuse by later attempts.
func (c *coordinator) attemptRecovery(p *vclock.Proc, first rankFault, attempt int, lost map[int]bool, cls *episodeClass) (*RecoveryReport, bool, *episodeClass) {
	env := c.h.env
	env.Tracef("job: recovery attempt %d begins (rank %d, fault %v)", attempt, first.rank, first.f.Kind)

	// Let concurrently-detected faults land, then gate every rank:
	// in-flight proxy calls abort, application threads park at the
	// interception layer on their next call.
	p.Sleep(50 * vclock.Millisecond)
	for {
		if _, ok := c.faultQ.TryPop(); !ok {
			break
		}
	}
	for _, r := range c.ranks {
		r.Layer.BeginRecovery()
		r.Client.AbortPending()
	}
	p.Yield() // let released threads park

	// Quiesce: healthy GPUs keep executing already-enqueued work while
	// the hosts are parked. Give them ~1.5 minibatches to either drain
	// completely or wedge at the hung collective.
	if mb := c.h.cfg.WL.Minibatch; mb > 0 {
		p.Sleep(mb * 3 / 2)
	}

	// Classify the episode. A healthy device with zero pending
	// operations has executed everything the host issued — including
	// the optimizer step, since the pre-optimizer world barrier (the
	// global grad-norm all-reduce) means either no rank's optimizer ran
	// or every healthy rank's did (§4.2.2). baseIter is the failed
	// minibatch i; when advanced, surviving state is start-of-(i+1).
	// Two advance signals: (a) a fully-drained healthy device — its host
	// parks only at end-of-iteration sync points, so zero pending ops
	// means the whole minibatch, optimizer included, executed; (b) host
	// iteration skew — a host past baseIter proves the world barrier of
	// baseIter completed.
	if cls == nil {
		advanced := false
		baseIter := -1
		maxIter := -1
		for _, r := range c.ranks {
			it := r.Layer.Iter()
			if baseIter < 0 || it < baseIter {
				baseIter = it
			}
			if it > maxIter {
				maxIter = it
			}
		}
		for _, r := range c.ranks {
			d := r.Server.Device()
			if d.Health() == gpu.Healthy && d.PendingOps() == 0 {
				advanced = true
			}
		}
		if maxIter > baseIter {
			advanced = true
		}
		cls = &episodeClass{advanced: advanced, baseIter: baseIter}
		env.Tracef("job: episode classified advanced=%v baseIter=%d", advanced, baseIter)
	}

	var hard []int
	for _, r := range c.ranks {
		if r.Server.Device().Health() == gpu.Hard {
			hard = append(hard, r.Rank)
		}
	}
	if len(hard) > 0 {
		rep, ok := c.recoverHard(p, hard, cls.advanced, cls.baseIter, lost)
		return rep, ok, cls
	}
	rep, ok := c.recoverTransient(p, cls.advanced, cls.baseIter, lost)
	return rep, ok, cls
}

// strategyOf classifies a rank's transient recovery strategy per §4.2:
// 1 = GPU fine, retain buffers; 2 = driver corruption suspected, copy
// state to host around a proxy restart; 3 = GPU state inaccessible, reset
// and copy from a replica.
func strategyOf(r *proxyRank) int {
	switch r.Server.Device().Health() {
	case gpu.Sticky:
		return 3
	case gpu.DriverCorrupt:
		return 2
	default:
		return 1
	}
}

// rankRecovery is the per-rank recovery state shared across phases.
type rankRecovery struct {
	r     *proxyRank
	strat int
	// skipReplay: the rank's device state is already at the target
	// minibatch boundary; do not re-execute the minibatch log.
	skipReplay bool
	// ignoreMut: swallow the host's remaining state-mutating calls for
	// the current minibatch (§4.2.2 roll-forward).
	ignoreMut bool
	tr        *cuda.Handles
	saved     map[string]tensor.Vector
	timer     *metrics.PhaseTimer
	done      *vclock.Event
	proc      *vclock.Proc
	// mutated marks the point of no return within an attempt: the rank's
	// device state has been re-allocated, partially restored, or is being
	// replayed. If the attempt dies after this point the state is suspect
	// and the next attempt must restore it from elsewhere.
	mutated bool
	err     error
}

// awaitRecs waits for every per-rank recovery to finish, bounded by the
// attempt deadline. A recovery that misses the deadline (wedged by a fault
// injected mid-recovery) is killed and marked errored so the episode can
// restart. Ranks that failed after mutating their device state are added
// to lost; ranks that fully recovered are removed from it. It reports
// whether every rank recovered cleanly.
func (c *coordinator) awaitRecs(p *vclock.Proc, recs []*rankRecovery, deadline vclock.Time, lost map[int]bool) bool {
	ok := true
	for _, rec := range recs {
		remaining := deadline - p.Now()
		if remaining <= 0 || !p.WaitTimeout(rec.done, remaining) {
			if rec.proc != nil {
				rec.proc.Kill()
			}
			if rec.err == nil {
				rec.err = fmt.Errorf("core: rank %d recovery timed out mid-attempt", rec.r.Rank)
			}
			c.h.env.Tracef("job: rank %d recovery killed: %v", rec.r.Rank, rec.err)
		}
		if rec.err != nil {
			ok = false
			if rec.mutated {
				lost[rec.r.Rank] = true
			}
		} else {
			delete(lost, rec.r.Rank)
		}
	}
	return ok
}

// recoverTransient implements §4.2 for all ranks concurrently. The
// communicator re-initialization rendezvous acts as the natural barrier
// between handle reconstruction and cross-rank state copies.
func (c *coordinator) recoverTransient(p *vclock.Proc, advanced bool, baseIter int, lost map[int]bool) (*RecoveryReport, bool) {
	env := c.h.env
	c.h.gen++
	newGen := c.h.gen
	deadline := p.Now() + c.attemptTimeout()
	recs := make([]*rankRecovery, len(c.ranks))
	for i, r := range c.ranks {
		strat := strategyOf(r)
		if lost[r.Rank] && strat == 1 {
			// A prior attempt corrupted this rank's state even though its
			// device is healthy: reset and copy from a replica.
			strat = 3
		}
		rec := &rankRecovery{
			r:     r,
			strat: strat,
			done:  env.NewEvent(fmt.Sprintf("recover.r%d", r.Rank)),
		}
		if rec.strat == 1 {
			// Healthy rank: skip replay when its GPU already holds the
			// target boundary state (host still inside minibatch i);
			// a host that advanced into i+1 replays its partial log.
			rec.skipReplay = advanced && r.Layer.Iter() == baseIter
		} else {
			rec.skipReplay = advanced
			rec.ignoreMut = advanced
		}
		recs[i] = rec
	}
	for _, rec := range recs {
		rec := rec
		rec.proc = env.Go(fmt.Sprintf("job.recover.r%d", rec.r.Rank), func(pr *vclock.Proc) {
			defer rec.done.Trigger()
			rec.timer = metrics.NewPhaseTimerLane(env, trace.Rank(rec.r.Rank))
			if err := c.recoverRankTransient(pr, rec, recs, newGen); err != nil {
				rec.err = err
				env.Tracef("job: rank %d recovery failed: %v", rec.r.Rank, err)
			}
		})
	}
	ok := c.awaitRecs(p, recs, deadline, lost)
	return c.buildReport(recs, "transient", advanced), ok
}

func (c *coordinator) recoverRankTransient(pr *vclock.Proc, rec *rankRecovery, all []*rankRecovery, newGen int) error {
	r := rec.r
	layer := r.Layer
	client := r.Client

	// Strategy 2 first reads GPU state to the host through the proxy
	// server's context, which still serves reads while the driver is
	// corrupt. All buffers are copied — the device memory is complete
	// and intact, only the driver software state is suspect.
	if rec.strat == 2 {
		saved, err := c.readTensors(pr, rec.r, nil, true)
		if err != nil {
			return fmt.Errorf("core: rank %d copy-to-host: %w", r.Rank, err)
		}
		rec.saved = saved
		rec.timer.Mark("copy-to-host")
	}

	// Teardown: delete communicators and GPU handles (Table 7 step 1).
	if rec.strat == 1 {
		// Abort in-flight server-side operations wedged in hung device
		// calls, then dismantle handles through the live driver.
		r.Server.ResetThreads()
		teardownViaAPI(pr, layer, client)
	} else {
		// Restarting the device proxy server clears corrupted driver and
		// network state (§4.2); device buffers are lost with the context.
		rec.mutated = true
		r.Server.Stop()
		client.AbortPending()
		if err := r.Server.Restart(); err != nil {
			return fmt.Errorf("core: rank %d proxy restart: %w", r.Rank, err)
		}
	}
	pr.Sleep(c.h.cfg.WL.Teardown)
	rec.timer.Mark("teardown")

	if err := rebuildGPU(pr, rec, rec.strat != 1, newGen); err != nil {
		return err
	}

	// Restore parameter/optimizer contents. The comm rendezvous above
	// guarantees every rank has finished re-allocating buffers, so
	// replica reads are safe now.
	switch {
	case rec.strat == 3:
		if err := c.copyFromReplica(pr, rec, all); err != nil {
			return err
		}
		rec.timer.Mark("replica-copy")
	case rec.strat == 2:
		if err := writeTensors(pr, layer, client, rec.tr, rec.saved, true); err != nil {
			return fmt.Errorf("core: rank %d restore-from-host: %w", r.Rank, err)
		}
		rec.timer.Mark("restore-from-host")
	}

	src := [4]string{1: "device", 2: "host", 3: "replica"}[rec.strat]
	return c.replayTail(pr, rec, newGen, layer.Iter(), src)
}

// rebuildGPU re-creates a rank's GPU objects from the creation log, binding
// their new physical handles into rec.tr (a clone of the layer's table, so
// a failed attempt leaves the layer untouched): a fresh default stream —
// the old one is wedged, or belongs to a driver that no longer exists —
// then buffers (only when realloc: strategy 1 keeps device memory), GPU
// handles, and communicators under generation gen.
func rebuildGPU(pr *vclock.Proc, rec *rankRecovery, realloc bool, gen int) error {
	r := rec.r
	tr := r.Layer.Handles().Clone()
	rec.tr = tr
	newDefault, err := r.Client.StreamCreate(pr)
	if err != nil {
		return fmt.Errorf("core: rank %d new default stream: %w", r.Rank, err)
	}
	tr.Streams[cuda.DefaultStream] = newDefault

	mallocs, handles, comms := splitCreationLog(r.Layer.Log().Creation)
	if realloc {
		if err := replay.Apply(pr, r.Client, mallocs, tr, replay.Options{}); err != nil {
			return fmt.Errorf("core: rank %d buffer realloc: %w", r.Rank, err)
		}
	}
	rec.timer.Mark("reset-buffers")
	if err := replay.Apply(pr, r.Client, handles, tr, replay.Options{}); err != nil {
		return fmt.Errorf("core: rank %d handle recreate: %w", r.Rank, err)
	}
	rec.timer.Mark("recreate-handles")
	if err := replay.Apply(pr, r.Client, comms, tr, replay.Options{Gen: gen}); err != nil {
		return fmt.Errorf("core: rank %d comm re-init: %w", r.Rank, err)
	}
	rec.timer.Mark("comm-init")
	return nil
}

// replayTail finishes a rank's recovery once its buffers hold the restored
// state: replay the minibatch's device APIs (§4.2.1) unless the state is
// already at the target boundary, have a rolled-forward rank swallow the
// rest of its optimizer step (§4.2.2), and reopen the layer on rec.tr.
func (c *coordinator) replayTail(pr *vclock.Proc, rec *rankRecovery, gen, iter int, src string) error {
	r := rec.r
	if rec.ignoreMut {
		r.Layer.IgnoreMutationsUntilNextMinibatch()
	}
	if !rec.skipReplay {
		rec.mutated = true
		c.h.env.Tracef("rank %d: replaying %d minibatch calls (strat %d)", r.Rank, len(r.Layer.Log().Minibatch), rec.strat)
		if err := replay.Apply(pr, r.Client, r.Layer.Log().Minibatch, rec.tr, replay.Options{Gen: gen}); err != nil {
			return fmt.Errorf("core: rank %d minibatch replay: %w", r.Rank, err)
		}
	}
	rec.timer.Mark("replay")
	trace.Of(c.h.env).Instant(pr.Now(), "ckpt", trace.Rank(r.Rank), "restore-done",
		"valid", true, "iter", iter, "src", src)
	r.Layer.EndRecovery(rec.tr)
	return nil
}

// teardownViaAPI destroys communicators, streams and events through the
// live driver — strategy 1 keeps the proxy (and device memory) intact.
func teardownViaAPI(pr *vclock.Proc, layer *intercept.Layer, client *proxy.Client) {
	// Destroy in reverse dependency order; errors are non-fatal (objects
	// may be wedged, which is exactly why we are here).
	h := layer.Handles()
	for _, call := range layer.Log().Creation {
		if call.Op == cuda.OpCommInit {
			if phys, ok := h.Comms[cuda.Comm(call.Created)]; ok {
				client.CommDestroy(pr, phys)
			}
		}
	}
	for _, call := range layer.Log().Creation {
		switch call.Op {
		case cuda.OpStreamCreate:
			if phys, ok := h.Streams[cuda.Stream(call.Created)]; ok {
				client.StreamDestroy(pr, phys)
			}
		case cuda.OpEventCreate:
			if phys, ok := h.Events[cuda.Event(call.Created)]; ok {
				client.EventDestroy(pr, phys)
			}
		}
	}
	// The wedged physical default stream is replaced rather than reused.
	if phys, ok := h.Streams[cuda.DefaultStream]; ok && phys == cuda.DefaultStream {
		client.StreamDestroy(pr, cuda.DefaultStream)
	}
}

// copyFromReplica restores a rank's parameter and optimizer buffers from a
// healthy data-parallel replica's device memory (§4.2's replica copy).
func (c *coordinator) copyFromReplica(pr *vclock.Proc, rec *rankRecovery, all []*rankRecovery) error {
	rep := c.pickReplica(rec, all)
	if rep == nil {
		return fmt.Errorf("core: rank %d has no healthy replica to recover from", rec.r.Rank)
	}
	// Read from the replica's device (its buffers were retained), then
	// write into this rank's re-allocated buffers.
	data, err := c.readTensors(pr, rep.r, rep.tr, false)
	if err != nil {
		return fmt.Errorf("core: rank %d read replica %d: %w", rec.r.Rank, rep.r.Rank, err)
	}
	if err := writeTensors(pr, rec.r.Layer, rec.r.Client, rec.tr, data, false); err != nil {
		return fmt.Errorf("core: rank %d write replica state: %w", rec.r.Rank, err)
	}
	return nil
}

// pickReplica chooses a healthy, buffer-retaining replica of rec.
func (c *coordinator) pickReplica(rec *rankRecovery, all []*rankRecovery) *rankRecovery {
	for _, repRank := range c.h.cfg.WL.Topo.ReplicaRanks(rec.r.Rank) {
		for _, cand := range all {
			if cand.r.Rank == repRank && cand.strat == 1 {
				return cand
			}
		}
	}
	return nil
}

// rankWorkTime returns a rank's recovery work time: the wall span of its
// recovery minus time spent waiting for other ranks at the communicator
// rendezvous (the paper's Tables 5–6 exclude "the wait time for ranks to
// detect errors in other ranks"). The wait is replaced by the analytic
// bootstrap cost every rank pays after the rendezvous releases.
func rankWorkTime(rec *rankRecovery) vclock.Time {
	if rec.timer == nil {
		// The recovery proc was killed before it started (failed attempt).
		return 0
	}
	total := rec.timer.Sum()
	commPhase := rec.timer.Get("comm-init")
	if commPhase == 0 {
		return total
	}
	params := rec.r.Server.Driver().Engine().Params()
	var bootstrap vclock.Time
	for _, call := range rec.r.Layer.Log().Creation {
		if call.Op == cuda.OpCommInit {
			bootstrap += params.CommInitBase + vclock.Time(call.NRanks)*params.CommInitPerRank
		}
	}
	if commPhase > bootstrap {
		total -= commPhase - bootstrap
	}
	return total
}

// buildReport assembles the episode report from per-rank recoveries. A
// rank whose strategy is 1 kept its GPU state and counts as healthy; every
// other one (strategies 2–3, or 4 on the hard path: Table 6's ranks that
// could not checkpoint) as failed.
func (c *coordinator) buildReport(recs []*rankRecovery, kind string, advanced bool) *RecoveryReport {
	if advanced && kind == "transient" {
		kind = "optimizer-roll-forward"
	}
	rep := &RecoveryReport{Kind: kind, PerRank: make(map[int]vclock.Time)}
	var healthySum, failedSum vclock.Time
	var healthyN, failedN int
	var exemplar *rankRecovery
	for _, rec := range recs {
		dur := rankWorkTime(rec)
		rep.PerRank[rec.r.Rank] = dur
		if rec.strat == 1 {
			healthySum += dur
			healthyN++
			if exemplar == nil {
				exemplar = rec
			}
		} else {
			failedSum += dur
			failedN++
		}
	}
	if healthyN > 0 {
		rep.HealthyAvg = healthySum / vclock.Time(healthyN)
	}
	if failedN > 0 {
		rep.FailedAvg = failedSum / vclock.Time(failedN)
	}
	if exemplar == nil {
		exemplar = recs[0]
	}
	if exemplar.timer != nil {
		for _, ph := range exemplar.timer.Phases() {
			rep.Phases = append(rep.Phases, PhaseDur{Name: ph.Name, Dur: ph.Dur})
		}
	}
	return rep
}

// splitCreationLog partitions creation calls into buffer allocations, GPU
// handle creations, and communicator inits, preserving relative order.
func splitCreationLog(creation []replay.Call) (mallocs, handles, comms []replay.Call) {
	for _, call := range creation {
		switch call.Op {
		case cuda.OpMalloc:
			mallocs = append(mallocs, call)
		case cuda.OpCommInit:
			comms = append(comms, call)
		default:
			handles = append(handles, call)
		}
	}
	return
}

// readTensors reads a rank's parameter/optimizer buffers (every buffer
// when all: the strategy-2 full-device copy) to the host directly through
// the proxy server's device context — no streams involved, so it works
// while the driver is corrupt or streams are wedged — charging PCIe
// transfer time per buffer. A nil tr reads through the layer's handles.
func (c *coordinator) readTensors(pr *vclock.Proc, rec *proxyRank, tr *cuda.Handles, all bool) (map[string]tensor.Vector, error) {
	layer := rec.Layer
	if tr == nil {
		tr = layer.Handles()
	}
	d2h := c.h.cfg.WL.CUDAParams().D2HBandwidth
	out := make(map[string]tensor.Vector)
	for _, info := range layer.VirtualBufs() {
		if !all && !train.IsModelState(info.Tag) {
			continue
		}
		phys, ok := tr.Bufs[info.Handle]
		if !ok {
			return nil, fmt.Errorf("core: no physical buffer for %v", info.Handle)
		}
		data, err := rec.Server.Driver().BufData(phys)
		if err != nil {
			return nil, fmt.Errorf("core: read %s: %w", info.Tag, err)
		}
		pr.Sleep(gpu.TransferTime(info.Bytes, d2h))
		out[train.TensorName(info.Tag, info.Seq)] = data
	}
	return out, nil
}

// writeTensors writes host tensors back into a rank's re-created
// parameter/optimizer buffers (every buffer when all), resolving virtual
// handles through tr.
func writeTensors(pr *vclock.Proc, layer *intercept.Layer, api cuda.API, tr *cuda.Handles, data map[string]tensor.Vector, all bool) error {
	s := tr.Streams[cuda.DefaultStream]
	for _, info := range layer.VirtualBufs() {
		if !all && !train.IsModelState(info.Tag) {
			continue
		}
		name := train.TensorName(info.Tag, info.Seq)
		d, ok := data[name]
		if !ok {
			return fmt.Errorf("core: replica state missing tensor %s", name)
		}
		if err := api.MemcpyH2D(pr, tr.Bufs[info.Handle], d, s); err != nil {
			return fmt.Errorf("core: write %s: %w", name, err)
		}
	}
	return api.StreamSynchronize(pr, s)
}

// recoverHard implements §4.3: healthy ranks JIT-checkpoint, every worker
// is CRIU-checkpointed, the job migrates to replacement nodes, GPU state
// is rebuilt from the replay log, and parameter/optimizer buffers are
// restored from the checkpoint files — the failed rank reading a
// replica's file through the stable tensor naming.
func (c *coordinator) recoverHard(p *vclock.Proc, hard []int, advanced bool, baseIter int, lost map[int]bool) (*RecoveryReport, bool) {
	h := c.h
	env, wl := h.env, h.cfg.WL
	h.gen++
	newGen := h.gen
	deadline := p.Now() + c.attemptTimeout()
	criu := scheduler.CRIU{SnapshotTime: wl.CRIU * 2 / 3, RestoreTime: wl.CRIU / 3}
	hardSet := make(map[int]bool, len(hard))
	for _, r := range hard {
		hardSet[r] = true
	}
	// stateIter labels the checkpoint files: the iteration whose start
	// the surviving GPU state corresponds to.
	stateIter := baseIter
	if advanced {
		stateIter = baseIter + 1
	}

	recs := make([]*rankRecovery, len(c.ranks))
	for i, r := range c.ranks {
		rec := &rankRecovery{
			r: r, strat: 1,
			done: env.NewEvent(fmt.Sprintf("hard.r%d", r.Rank)),
		}
		if hardSet[r.Rank] || r.Server.Device().Health() != gpu.Healthy || lost[r.Rank] {
			rec.strat = 4 // lost or unusable device, or state corrupted by a failed attempt
			rec.skipReplay = advanced
			rec.ignoreMut = advanced
		} else {
			rec.skipReplay = advanced && r.Layer.Iter() == baseIter
		}
		recs[i] = rec
	}

	// Eager no-viable-placement check, before any Phase A+B expense: if
	// the job's surviving nodes plus free spares cannot host it, no amount
	// of JIT checkpointing, CRIU snapshotting, or quorum waiting changes
	// the outcome — the episode is terminal now. (Without this, the
	// coordinator burned its bounded recovery attempts re-running the full
	// hard path against an allocation that can never succeed.) A node is
	// reusable only if none of its ranks is strategy-4: Phase C marks any
	// node hosting a lost/unusable rank permanently failed.
	jobNodes := make(map[int]bool)
	badNodes := make(map[int]bool)
	for _, rec := range recs {
		nid := rec.r.Server.Device().NodeID
		jobNodes[nid] = true
		if rec.strat == 4 {
			badNodes[nid] = true
		}
	}
	nNodes := len(jobNodes)
	if avail := h.pool.FreeHealthy() + nNodes - len(badNodes); avail < nNodes {
		env.Tracef("job: hard recovery: no viable placement (%d nodes available, need %d)", avail, nNodes)
		rep := c.buildReport(recs, "hard", advanced)
		rep.Kind = KindNoViablePlacement
		return rep, false
	}

	// Phase A+B per rank: JIT checkpoint (healthy only) + CRIU snapshot.
	images := make([]scheduler.Image, len(recs))
	for i, rec := range recs {
		i, rec := i, rec
		rec.proc = env.Go(fmt.Sprintf("job.hardckpt.r%d", rec.r.Rank), func(pr *vclock.Proc) {
			defer rec.done.Trigger()
			rec.timer = metrics.NewPhaseTimerLane(env, trace.Rank(rec.r.Rank))
			if rec.strat != 4 {
				jsp := trace.Of(env).Begin(pr.Now(), "ckpt", trace.Rank(rec.r.Rank), "jit-save",
					"iter", stateIter)
				ms := &train.ModelState{Iter: stateIter, Rank: rec.r.Rank}
				tensors, err := c.readTensors(pr, rec.r, nil, false)
				if err != nil {
					rec.err = err
					jsp.End(pr.Now(), "err", err)
					return
				}
				ms.Tensors = tensors
				dir := checkpoint.RankDir("job", JITPolicyName, ms.Iter, rec.r.Rank)
				if err := checkpoint.SaveRank(pr, h.disk, dir, ms, wl.SerializeBW(), wl.StateBytesPerGPU(), wl.StateBytesPerGPU()); err != nil {
					rec.err = err
					jsp.End(pr.Now(), "err", err)
					return
				}
				jsp.End(pr.Now())
				h.monitor.Notify(scheduler.Event{Kind: scheduler.EvCheckpointDone, Rank: rec.r.Rank, Iter: ms.Iter})
			}
			rec.timer.Mark("jit-checkpoint")
			images[i] = criu.Take(pr, rec.r.Rank, rec.r.Worker.Snapshot())
			rec.timer.Mark("criu-snapshot")
		})
	}
	if !c.awaitRecs(p, recs, deadline, lost) {
		// A checkpoint/snapshot wedged or errored (e.g. a device dying
		// mid-read): restart the episode before any node churn happens.
		return c.buildReport(recs, "hard", advanced), false
	}
	for _, rec := range recs {
		rec.done = env.NewEvent(fmt.Sprintf("hard2.r%d", rec.r.Rank))
		rec.proc = nil
	}

	// Quorum: at least one replica per position checkpointed (§3.3).
	if _, ok := h.monitor.WaitCheckpointQuorum(p, wl.Topo, vclock.Minute); !ok {
		env.Tracef("job: WARNING: checkpoint quorum not reached")
	}

	// Phase C: release the job's current nodes back to the pool, exclude
	// the failed ones permanently, and allocate a replacement set.
	for _, rec := range recs {
		h.pool.ReleaseByID(rec.r.Server.Device().NodeID)
	}
	for _, rec := range recs {
		if rec.strat == 4 {
			h.pool.MarkFailed(rec.r.Server.Device().NodeID)
		}
	}
	nodes, err := h.pool.Allocate(nNodes, nil)
	if err != nil {
		// No spare capacity: recovery cannot proceed transparently.
		env.Tracef("job: hard recovery failed: %v", err)
		rep := c.buildReport(recs, "hard", advanced)
		rep.Kind = "hard-failed:" + err.Error()
		return rep, false
	}
	placement, err := scheduler.Place(nodes, len(c.ranks))
	if err != nil {
		rep := c.buildReport(recs, "hard", advanced)
		rep.Kind = "hard-failed:" + err.Error()
		return rep, false
	}

	// Phase D–F per rank: restore CPU image on the new host, rebuild GPU
	// state, restore tensors from checkpoint files, replay.
	asmDone := env.NewEvent("hard.assembly")
	var plan *checkpoint.RestorePlan
	env.Go("job.assemble", func(pr *vclock.Proc) {
		defer asmDone.Trigger()
		var err error
		if plan, err = JITCheckpointPath(pr, h.disk, "job", wl.Topo); err != nil {
			env.Tracef("job: assemble failed: %v", err)
		}
	})
	p.Wait(asmDone)
	if plan == nil {
		rep := c.buildReport(recs, "hard", advanced)
		rep.Kind = "hard-failed:no-checkpoint-assembly"
		return rep, false
	}

	for i, rec := range recs {
		i, rec := i, rec
		rec.proc = env.Go(fmt.Sprintf("job.hardrestore.r%d", rec.r.Rank), func(pr *vclock.Proc) {
			defer rec.done.Trigger()
			if rec.err != nil {
				return
			}
			// The rank is about to be re-attached to a new device and
			// rebuilt; dying partway leaves its state suspect.
			rec.mutated = true
			rec.timer.Skip() // exclude the coordination barrier
			// Attach the worker to its replacement GPU: fresh proxy
			// server and client on the new device.
			newDev := placement[rec.r.Rank]
			server, err := proxy.NewServer(env, newDev, rec.r.Server.Driver().Engine(), h.kernels, wl.CUDAParams(), proxy.DefaultParams())
			if err != nil {
				rec.err = err
				return
			}
			client := proxy.NewClient(env, server)
			rec.r.Server = server
			rec.r.Client = client
			rec.r.Layer.SetInner(client)

			// CRIU restore: the worker's CPU state arrives intact.
			if rec.err = checkImage(rec.r.Rank, criu.Restore(pr, images[i]), rec.r.Worker.Iter()); rec.err != nil {
				return
			}
			rec.timer.Mark("criu-restore")

			// Rebuild all GPU objects on the new server from the creation
			// log.
			if rec.err = rebuildGPU(pr, rec, true, newGen); rec.err != nil {
				return
			}

			// Restore parameter/optimizer buffers from the assembled
			// checkpoint (own file, or a replica's for the failed rank).
			ms, err := plan.For[rec.r.Rank].Load(pr)
			if err != nil {
				rec.err = err
				return
			}
			if err := writeTensors(pr, rec.r.Layer, client, rec.tr, ms.Tensors, false); err != nil {
				rec.err = err
				return
			}
			rec.timer.Mark("restore-state")

			rec.err = c.replayTail(pr, rec, newGen, stateIter, "ckpt")
		})
	}
	ok := c.awaitRecs(p, recs, deadline, lost)
	return c.buildReport(recs, "hard", advanced), ok
}

// checkImage rejects a restored CRIU image that is not of the minibatch the
// worker is in: resuming from it would replay against the wrong CPU state.
func checkImage(rank int, img train.Snapshot, workerIter int) error {
	if img.Iter != workerIter {
		return fmt.Errorf("core: rank %d CRIU image is of iteration %d, the worker is at %d", rank, img.Iter, workerIter)
	}
	return nil
}
