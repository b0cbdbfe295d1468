package core

import (
	"errors"
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
			nodes, why := h.allocate(p)
			if nodes == nil {
				h.end(p.Now(), why)
				return
			}
			if serr := h.startTransparent(nodes); serr != nil {
				h.end(p.Now(), EndNoViablePlacement)
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
	h.held = nodes
	placement, err := scheduler.Place(nodes, wl.Topo.World())
	if err != nil {
		return err
	}
	h.doneRanks = make(map[int]bool)

	c := &coordinator{h: h, stacks: make([]*rankStack, wl.Topo.World()), faultQ: vclock.NewQueue[rankFault](h.env, "job.faults")}
	for r := range c.stacks {
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
		c.stacks[r] = &rankStack{rank: r, layer: layer, client: client, server: server, worker: worker}
	}
	h.placement = placement
	c.proc = h.env.Go("job.coordinator", c.run)
	for r, st := range c.stacks {
		st.proc = h.env.Go(fmt.Sprintf("worker%d", r), func(p *vclock.Proc) {
			if err := st.worker.Setup(p, 0); err != nil {
				return
			}
			if err := st.worker.RunIters(p, cfg.Iters); err != nil {
				return
			}
			h.doneRanks[r] = true
			if len(h.doneRanks) == len(c.stacks) {
				c.end(p, EndCompleted)
			}
		})
	}
	h.res.Incarnations = 1
	return nil
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
// queue: the workload, stores, capacity, placement, communicator
// generation (h.gen) and reports (h.res.Reports) are the harness's.
type coordinator struct {
	h      *harness
	stacks []*rankStack
	faultQ *vclock.Queue[rankFault]
	proc   *vclock.Proc // run's
}

// end ends the job, from p: its rank stacks end (the workers killed when
// the job gave up), the coordinator's process is killed, so no recovery
// outlives the job, and the job closes.
func (c *coordinator) end(p *vclock.Proc, why End) {
	endStacks(c.stacks, why == EndGaveUp)
	c.proc.Kill()
	c.h.end(p.Now(), why)
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
// finds it idle. An episode that gives up ends the job with its workers
// killed, since nothing is left to release them from recovery.
func (c *coordinator) run(p *vclock.Proc) {
	for {
		first := c.faultQ.Pop(p)
		report, ok := c.recover(p, first)
		c.h.res.Reports = append(c.h.res.Reports, report)
		c.h.res.RecoveryLatencies = append(c.h.res.RecoveryLatencies, report.Total())
		if !ok {
			c.end(p, EndGaveUp)
			return
		}
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
// ok=false means it gave up: the episode is terminal or out of attempts.
func (c *coordinator) recover(p *vclock.Proc, first rankFault) (*RecoveryReport, bool) {
	detected := p.Now()
	rsp := trace.Of(c.h.env).Begin(detected, "core", trace.LaneSim, "recovery",
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
		report, ok, cls = c.attemptRecovery(p, lost, cls)
		report.Attempts = attempt
		if ok || attempt >= maxRecoveryAttempts || report.Terminal() {
			break
		}
		// Faults raised by the failed attempt itself are stale: the next
		// attempt re-classifies every rank from current device health.
		c.faultQ.Drain()
	}
	report.DetectedAt = detected
	report.CompletedAt = p.Now()
	rsp.End(p.Now(), "ok", ok, "attempts", report.Attempts, "kind", report.Kind)
	return report, ok
}

// attemptTimeout is the per-attempt recovery deadline.
func (c *coordinator) attemptTimeout() vclock.Time {
	// Base coordination slack plus several end-to-end state copies at a
	// conservative 1 GB/s (covers PCIe copies, store writes/reads and
	// serialization on the hard path without ever firing during a healthy
	// recovery).
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
func (c *coordinator) attemptRecovery(p *vclock.Proc, lost map[int]bool, cls *episodeClass) (*RecoveryReport, bool, *episodeClass) {
	// Let concurrently-detected faults land, then gate every rank:
	// in-flight proxy calls abort, application threads park at the
	// interception layer on their next call.
	p.Sleep(50 * vclock.Millisecond)
	for {
		if _, ok := c.faultQ.TryPop(); !ok {
			break
		}
	}
	for _, r := range c.stacks {
		r.layer.BeginRecovery()
		r.client.AbortPending()
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
		cls = &episodeClass{baseIter: -1}
		maxIter := -1
		for _, r := range c.stacks {
			it := r.layer.Iter()
			if cls.baseIter < 0 || it < cls.baseIter {
				cls.baseIter = it
			}
			maxIter = max(maxIter, it)
			if d := r.server.Device(); d.Health() == gpu.Healthy && d.PendingOps() == 0 {
				cls.advanced = true
			}
		}
		cls.advanced = cls.advanced || maxIter > cls.baseIter
	}

	for _, r := range c.stacks {
		if r.server.Device().Health() == gpu.Hard {
			rep, ok := c.recoverHard(p, cls.advanced, cls.baseIter, lost)
			return rep, ok, cls
		}
	}
	rep, ok := c.recoverTransient(p, cls.advanced, cls.baseIter, lost)
	return rep, ok, cls
}

// strategyOf classifies a rank's transient recovery strategy per §4.2:
// 1 = GPU fine, retain buffers; 2 = driver corruption suspected, copy
// state to host around a proxy restart; 3 = GPU state inaccessible, reset
// and copy from a replica — also for a rank in lost, whose state a prior
// attempt corrupted even though its device is healthy.
func strategyOf(r *rankStack, lost map[int]bool) int {
	switch r.server.Device().Health() {
	case gpu.Sticky:
		return 3
	case gpu.DriverCorrupt:
		return 2
	}
	if lost[r.rank] {
		return 3
	}
	return 1
}

// recsFor builds every rank's recovery under its strategy strat(r). A rank
// that kept its GPU state (strategy 1) skips replay when its GPU already
// holds the target boundary state (host still inside minibatch baseIter);
// a host that advanced into the next one replays its partial log. Every
// other rank's state is restored at the boundary: when advanced, it skips
// replay and swallows the rest of its optimizer step (§4.2.2).
func (c *coordinator) recsFor(advanced bool, baseIter int, strat func(*rankStack) int) []*rankRecovery {
	recs := make([]*rankRecovery, len(c.stacks))
	for i, r := range c.stacks {
		rec := &rankRecovery{r: r, strat: strat(r)}
		if rec.strat == 1 {
			rec.skipReplay = advanced && r.layer.Iter() == baseIter
		} else {
			rec.skipReplay, rec.ignoreMut = advanced, advanced
		}
		recs[i] = rec
	}
	return recs
}

// rankRecovery is the per-rank recovery state shared across phases.
type rankRecovery struct {
	r     *rankStack
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

// fanOut runs body as every rank's recovery process, name.r<rank>, each
// with a fresh done event; body's error is the rank's. It waits for them
// all, bounded by the attempt deadline: a recovery that
// misses it (wedged by a fault injected mid-recovery) is killed and marked
// errored so the episode can restart. Ranks that failed after mutating
// their device state are added to lost; ranks that fully recovered are
// removed from it. It reports whether every rank recovered cleanly.
func (c *coordinator) fanOut(p *vclock.Proc, recs []*rankRecovery, name string, deadline vclock.Time, lost map[int]bool,
	body func(pr *vclock.Proc, rec *rankRecovery) error) bool {
	env := c.h.env
	for _, rec := range recs {
		rec.done = env.NewEvent(fmt.Sprintf("%s.r%d", name, rec.r.rank))
	}
	for _, rec := range recs {
		rec.proc = env.Go(fmt.Sprintf("%s.r%d", name, rec.r.rank), func(pr *vclock.Proc) {
			defer rec.done.Trigger()
			rec.err = body(pr, rec)
		})
	}
	ok := true
	for _, rec := range recs {
		if remaining := deadline - p.Now(); remaining <= 0 || !p.WaitTimeout(rec.done, remaining) {
			rec.proc.Kill()
			if rec.err == nil {
				rec.err = fmt.Errorf("core: rank %d recovery timed out mid-attempt", rec.r.rank)
			}
		}
		if rec.err != nil {
			ok = false
			if rec.mutated {
				lost[rec.r.rank] = true
			}
		} else {
			delete(lost, rec.r.rank)
		}
	}
	return ok
}

// recoverTransient implements §4.2 for all ranks concurrently. The
// communicator re-initialization rendezvous acts as the natural barrier
// between handle reconstruction and cross-rank state copies.
func (c *coordinator) recoverTransient(p *vclock.Proc, advanced bool, baseIter int, lost map[int]bool) (*RecoveryReport, bool) {
	c.h.gen++
	newGen := c.h.gen
	deadline := p.Now() + c.attemptTimeout()
	recs := c.recsFor(advanced, baseIter, func(r *rankStack) int { return strategyOf(r, lost) })
	ok := c.fanOut(p, recs, "job.recover", deadline, lost, func(pr *vclock.Proc, rec *rankRecovery) error {
		return c.recoverRankTransient(pr, rec, recs, newGen)
	})
	return c.buildReport(recs, "transient", advanced), ok
}

func (c *coordinator) recoverRankTransient(pr *vclock.Proc, rec *rankRecovery, all []*rankRecovery, newGen int) error {
	r := rec.r
	rec.timer = metrics.NewPhaseTimerLane(c.h.env, trace.Rank(r.rank))
	layer := r.layer
	client := r.client

	// Strategy 2 first reads GPU state to the host through the proxy
	// server's context, which still serves reads while the driver is
	// corrupt. All buffers are copied — the device memory is complete
	// and intact, only the driver software state is suspect.
	if rec.strat == 2 {
		saved, err := c.readTensors(pr, rec.r, nil, true)
		if err != nil {
			return fmt.Errorf("core: rank %d copy-to-host: %w", r.rank, err)
		}
		rec.saved = saved
		rec.timer.Mark("copy-to-host")
	}

	// Teardown: delete communicators and GPU handles (Table 7 step 1).
	if rec.strat == 1 {
		// Abort in-flight server-side operations wedged in hung device
		// calls, then dismantle handles through the live driver.
		r.server.ResetThreads()
		teardownViaAPI(pr, layer, client)
	} else {
		// Restarting the device proxy server clears corrupted driver and
		// network state (§4.2); device buffers are lost with the context.
		rec.mutated = true
		r.server.Stop()
		client.AbortPending()
		if err := r.server.Restart(); err != nil {
			return fmt.Errorf("core: rank %d proxy restart: %w", r.rank, err)
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
			return fmt.Errorf("core: rank %d restore-from-host: %w", r.rank, err)
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
	tr := r.layer.Handles().Clone()
	rec.tr = tr
	newDefault, err := r.client.StreamCreate(pr)
	if err != nil {
		return fmt.Errorf("core: rank %d new default stream: %w", r.rank, err)
	}
	tr.Bind(cuda.StreamHandle, int(cuda.DefaultStream), int(newDefault))

	mallocs, handles, comms := splitCreationLog(r.layer.Log().Creation)
	if realloc {
		if err := replay.Apply(pr, r.client, mallocs, tr, replay.Options{}); err != nil {
			return fmt.Errorf("core: rank %d buffer realloc: %w", r.rank, err)
		}
	}
	rec.timer.Mark("reset-buffers")
	if err := replay.Apply(pr, r.client, handles, tr, replay.Options{}); err != nil {
		return fmt.Errorf("core: rank %d handle recreate: %w", r.rank, err)
	}
	rec.timer.Mark("recreate-handles")
	if err := replay.Apply(pr, r.client, comms, tr, replay.Options{Gen: gen}); err != nil {
		return fmt.Errorf("core: rank %d comm re-init: %w", r.rank, err)
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
		r.layer.IgnoreMutationsUntilNextMinibatch()
	}
	if !rec.skipReplay {
		rec.mutated = true
		if err := replay.Apply(pr, r.client, r.layer.Log().Minibatch, rec.tr, replay.Options{Gen: gen}); err != nil {
			return fmt.Errorf("core: rank %d minibatch replay: %w", r.rank, err)
		}
	}
	rec.timer.Mark("replay")
	trace.Of(c.h.env).Instant(pr.Now(), "ckpt", trace.Rank(r.rank), "restore-done",
		"valid", true, "iter", iter, "src", src)
	r.layer.EndRecovery(rec.tr)
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
			if phys, ok := cuda.Lookup(h, cuda.CommHandle, cuda.Comm(call.Created)); ok {
				client.CommDestroy(pr, phys)
			}
		}
	}
	for _, call := range layer.Log().Creation {
		switch call.Op {
		case cuda.OpStreamCreate:
			if phys, ok := cuda.Lookup(h, cuda.StreamHandle, cuda.Stream(call.Created)); ok {
				client.StreamDestroy(pr, phys)
			}
		case cuda.OpEventCreate:
			if phys, ok := cuda.Lookup(h, cuda.EventHandle, cuda.Event(call.Created)); ok {
				client.EventDestroy(pr, phys)
			}
		}
	}
	// The wedged physical default stream is replaced rather than reused.
	if phys, ok := cuda.Lookup(h, cuda.StreamHandle, cuda.DefaultStream); ok && phys == cuda.DefaultStream {
		client.StreamDestroy(pr, cuda.DefaultStream)
	}
}

// copyFromReplica restores a rank's parameter and optimizer buffers from a
// healthy data-parallel replica's device memory (§4.2's replica copy).
func (c *coordinator) copyFromReplica(pr *vclock.Proc, rec *rankRecovery, all []*rankRecovery) error {
	rep := c.pickReplica(rec, all)
	if rep == nil {
		return fmt.Errorf("core: rank %d has no healthy replica to recover from", rec.r.rank)
	}
	// Read from the replica's device (its buffers were retained), then
	// write into this rank's re-allocated buffers.
	data, err := c.readTensors(pr, rep.r, rep.tr, false)
	if err != nil {
		return fmt.Errorf("core: rank %d read replica %d: %w", rec.r.rank, rep.r.rank, err)
	}
	if err := writeTensors(pr, rec.r.layer, rec.r.client, rec.tr, data, false); err != nil {
		return fmt.Errorf("core: rank %d write replica state: %w", rec.r.rank, err)
	}
	return nil
}

// pickReplica chooses a healthy, buffer-retaining replica of rec.
func (c *coordinator) pickReplica(rec *rankRecovery, all []*rankRecovery) *rankRecovery {
	for _, repRank := range c.h.cfg.WL.Topo.ReplicaRanks(rec.r.rank) {
		for _, cand := range all {
			if cand.r.rank == repRank && cand.strat == 1 {
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
	params := rec.r.server.Driver().Engine().Params()
	var bootstrap vclock.Time
	for _, call := range rec.r.layer.Log().Creation {
		if call.Op == cuda.OpCommInit {
			bootstrap += params.CommInitBase + vclock.Time(call.NRanks)*params.CommInitPerRank
		}
	}
	if commPhase > bootstrap {
		total -= commPhase - bootstrap
	}
	return total
}

// buildReport assembles the episode report of the given kind (a terminal
// kind as it stands) from per-rank recoveries. A rank whose strategy is 1
// kept its GPU state and counts as healthy; every other one (strategies
// 2–3, or 4 on the hard path: Table 6's ranks that could not checkpoint)
// as failed.
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
		rep.PerRank[rec.r.rank] = dur
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
// transfer time per buffer. Each buffer is copied off its BufData view
// before the transfer sleeps. A nil tr reads through the layer's handles.
func (c *coordinator) readTensors(pr *vclock.Proc, rec *rankStack, tr *cuda.Handles, all bool) (map[string]tensor.Vector, error) {
	layer := rec.layer
	if tr == nil {
		tr = layer.Handles()
	}
	d2h := c.h.cfg.WL.CUDAParams().D2HBandwidth
	out := make(map[string]tensor.Vector)
	for _, info := range layer.VirtualBufs() {
		if !all && !train.IsModelState(info.Tag) {
			continue
		}
		phys, ok := cuda.Lookup(tr, cuda.BufHandle, info.Handle)
		if !ok {
			return nil, fmt.Errorf("core: no physical buffer for %v", info.Handle)
		}
		view, err := rec.server.Driver().BufData(phys)
		if err != nil {
			return nil, fmt.Errorf("core: read %s: %w", info.Tag, err)
		}
		out[train.TensorName(info.Tag, info.Seq)] = view.Clone()
		pr.Sleep(gpu.TransferTime(info.Bytes, d2h))
	}
	return out, nil
}

// writeTensors writes host tensors back into a rank's re-created
// parameter/optimizer buffers (every buffer when all), resolving virtual
// handles through tr.
func writeTensors(pr *vclock.Proc, layer *intercept.Layer, api cuda.API, tr *cuda.Handles, data map[string]tensor.Vector, all bool) error {
	s, _ := cuda.Lookup(tr, cuda.StreamHandle, cuda.DefaultStream)
	for _, info := range layer.VirtualBufs() {
		if !all && !train.IsModelState(info.Tag) {
			continue
		}
		name := train.TensorName(info.Tag, info.Seq)
		d, ok := data[name]
		if !ok {
			return fmt.Errorf("core: replica state missing tensor %s", name)
		}
		b, _ := cuda.Lookup(tr, cuda.BufHandle, info.Handle)
		if err := api.MemcpyH2D(pr, b, d, s); err != nil {
			return fmt.Errorf("core: write %s: %w", name, err)
		}
	}
	return api.StreamSynchronize(pr, s)
}

// recoverHard implements §4.3 as one recovery episode in three phases
// (hardAttempt): save, migrate and restore.
func (c *coordinator) recoverHard(p *vclock.Proc, advanced bool, baseIter int, lost map[int]bool) (*RecoveryReport, bool) {
	h := c.h
	wl := h.cfg.WL
	h.gen++
	// The episode restores the iteration whose start the surviving GPU
	// state corresponds to, the one its saves label their files with.
	stateIter := baseIter
	if advanced {
		stateIter = baseIter + 1
	}
	a := &hardAttempt{
		c: c, gen: h.gen, deadline: p.Now() + c.attemptTimeout(), lost: lost,
		// The episode belongs to this attempt: an earlier episode's saves
		// must not let this one migrate.
		ep: h.newEpisode(stateIter),
		recs: c.recsFor(advanced, baseIter, func(r *rankStack) int {
			if r.server.Device().Health() != gpu.Healthy || lost[r.rank] {
				return 4 // lost or unusable device, or state corrupted by a failed attempt
			}
			return 1
		}),
		criu:   scheduler.CRIU{SnapshotTime: wl.CRIU * 2 / 3, RestoreTime: wl.CRIU / 3},
		images: make([]scheduler.Image, len(c.stacks)),
	}
	// Eager no-viable-placement check, before any save or snapshot
	// expense: if the job's surviving nodes plus free spares cannot host
	// it, no amount of JIT checkpointing, CRIU snapshotting or quorum
	// waiting changes the outcome. (Without it the coordinator burned its
	// bounded attempts re-running the whole hard path against an
	// allocation that can never succeed.) A node is reusable only if none
	// of its ranks is strategy 4: migrate marks any node hosting one
	// failed, so free spares must replace every such node.
	jobNodes, badNodes := make(map[int]bool), make(map[int]bool)
	for _, rec := range a.recs {
		nid := rec.r.server.Device().NodeID
		jobNodes[nid] = true
		if rec.strat == 4 {
			badNodes[nid] = true
		}
	}
	if h.pool.FreeHealthy() < len(badNodes) {
		return c.buildReport(a.recs, KindNoViablePlacement, advanced), false
	}
	if !a.save(p) {
		// A save or snapshot wedged or errored (e.g. a device dying
		// mid-read): restart the episode before any node churn happens.
		return c.buildReport(a.recs, "hard", advanced), false
	}
	// Quorum: at least one replica per position saved (§3.3), 1 min here.
	a.ep.wait(p, vclock.Minute)
	placement, plan, kind := a.migrate(p, len(jobNodes))
	if kind != "" {
		return c.buildReport(a.recs, kind, advanced), false
	}
	ok := a.restore(p, placement, plan)
	return c.buildReport(a.recs, "hard", advanced), ok
}

// hardAttempt is one attempt at §4.3's hard-error recovery: healthy ranks
// JIT-save through the attempt's episode while every worker is
// CRIU-snapshotted, the job migrates to replacement nodes once the quorum
// forms and a plan of the episode's iteration assembles, and every rank is
// rebuilt from the replay log and its tensors loaded from that plan — the
// failed rank reading a replica's file through the stable tensor naming.
type hardAttempt struct {
	c        *coordinator
	ep       *episode
	recs     []*rankRecovery
	criu     scheduler.CRIU
	images   []scheduler.Image // per rank, from save
	gen      int
	deadline vclock.Time
	lost     map[int]bool
}

// save is Phase A+B on every rank: a JIT save of the surviving GPU state
// (strategy-1 ranks only), then a CRIU snapshot.
func (a *hardAttempt) save(p *vclock.Proc) bool {
	return a.c.fanOut(p, a.recs, "job.hardckpt", a.deadline, a.lost, func(pr *vclock.Proc, rec *rankRecovery) error {
		rec.timer = metrics.NewPhaseTimerLane(a.c.h.env, trace.Rank(rec.r.rank))
		if rec.strat != 4 {
			if err := a.jitSave(pr, rec.r); err != nil {
				return err
			}
		}
		rec.timer.Mark("jit-checkpoint")
		a.images[rec.r.rank] = a.criu.Take(pr, rec.r.rank, rec.r.worker.Snapshot())
		rec.timer.Mark("criu-snapshot")
		return nil
	})
}

// jitSave reads r's parameter and optimizer buffers through the proxy and
// saves them through the episode as r's checkpoint of its target.
func (a *hardAttempt) jitSave(pr *vclock.Proc, r *rankStack) error {
	iter := a.ep.target
	jsp := trace.Of(a.c.h.env).Begin(pr.Now(), "ckpt", trace.Rank(r.rank), "jit-save", "iter", iter)
	tensors, err := a.c.readTensors(pr, r, nil, false)
	if err == nil {
		err = a.ep.save(pr, &train.ModelState{Iter: iter, Rank: r.rank, Tensors: tensors})
	}
	if err != nil {
		jsp.End(pr.Now(), "err", err)
		return err
	}
	jsp.End(pr.Now())
	return nil
}

// migrate is Phase C: release the job's current nodes back to the pool,
// exclude the failed ones permanently, allocate and place a replacement
// set, and assemble the episode's plan. A non-empty kind is the terminal
// report kind the episode ends with instead.
func (a *hardAttempt) migrate(p *vclock.Proc, nNodes int) (scheduler.Placement, *checkpoint.RestorePlan, string) {
	h := a.c.h
	h.pool.Release(h.held)
	for _, rec := range a.recs {
		if rec.strat == 4 {
			h.pool.MarkFailed(rec.r.server.Device().NodeID)
		}
	}
	// No spare capacity: recovery cannot proceed transparently.
	nodes, err := h.pool.Allocate(nNodes, nil)
	h.held = nodes
	var placement scheduler.Placement
	if err == nil {
		placement, err = scheduler.Place(nodes, len(a.recs))
	}
	if err != nil {
		return nil, nil, "hard-failed:" + err.Error()
	}
	asmDone := h.env.NewEvent("hard.assembly")
	var plan *checkpoint.RestorePlan
	h.env.Go("job.assemble", func(pr *vclock.Proc) {
		defer asmDone.Trigger()
		// One plan serves every rank; rank 0 asks for it.
		plan, err = a.ep.assemble(pr, 0, a.recs[0].r.worker)
	})
	p.Wait(asmDone)
	switch {
	case errors.Is(err, checkpoint.ErrUnassembled):
		return nil, nil, "hard-failed:no-checkpoint-assembly"
	case err != nil: // errStaleCheckpoint
		return nil, nil, "hard-failed:" + err.Error()
	}
	return placement, plan, ""
}

// restore is Phase D–F on every rank: attach the worker to its replacement
// GPU, restore its CRIU image, rebuild GPU state from the creation log,
// write the plan's tensors (its own file, or a replica's for the failed
// rank) and replay.
func (a *hardAttempt) restore(p *vclock.Proc, placement scheduler.Placement, plan *checkpoint.RestorePlan) bool {
	h := a.c.h
	return a.c.fanOut(p, a.recs, "job.hardrestore", a.deadline, a.lost, func(pr *vclock.Proc, rec *rankRecovery) error {
		r := rec.r
		// The rank is about to be re-attached to a new device and rebuilt;
		// dying partway leaves its state suspect.
		rec.mutated = true
		rec.timer.Skip() // exclude the coordination barrier
		server, err := proxy.NewServer(h.env, placement[r.rank], r.server.Driver().Engine(), h.kernels, h.cfg.WL.CUDAParams(), proxy.DefaultParams())
		if err != nil {
			return err
		}
		r.server, r.client = server, proxy.NewClient(h.env, server)
		h.placement[r.rank] = placement[r.rank]
		r.layer.SetInner(r.client)
		// CRIU restore: the worker's CPU state arrives intact.
		if err := checkImage(r.rank, a.criu.Restore(pr, a.images[r.rank]), r.worker.Iter()); err != nil {
			return err
		}
		rec.timer.Mark("criu-restore")
		if err := rebuildGPU(pr, rec, true, a.gen); err != nil {
			return err
		}
		ms, err := plan.For[r.rank].Load(pr)
		if err != nil {
			return err
		}
		if err := writeTensors(pr, r.layer, r.client, rec.tr, ms.Tensors, false); err != nil {
			return err
		}
		rec.timer.Mark("restore-state")
		return a.c.replayTail(pr, rec, a.gen, a.ep.target, "ckpt")
	})
}

// checkImage rejects a restored CRIU image that is not of the minibatch the
// worker is in: resuming from it would replay against the wrong CPU state.
func checkImage(rank int, img train.Snapshot, workerIter int) error {
	if img.Iter != workerIter {
		return fmt.Errorf("core: rank %d CRIU image is of iteration %d, the worker is at %d", rank, img.Iter, workerIter)
	}
	return nil
}
