package core

import (
	"errors"
	"fmt"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/failure"
	"jitckpt/internal/nccl"
	"jitckpt/internal/peerckpt"
	"jitckpt/internal/pipefree"
	"jitckpt/internal/scheduler"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// tier is one rung of the recovery stack the restart loop runs a policy
// under. The loop knows no tier by name: buildTiers turns the policy row
// into an ordered list and every per-tier decision is a walk over it,
// calling the hooks a tier has. A nil hook means the tier takes no part.
// List order is observable — restore probes cost virtual time, node-lost
// instants are traced, savers run in sequence — so it is fixed and pinned
// (TestPolicyTableTiers).
type tier struct {
	name string
	// ns is the shared-disk namespace the tier restores from, if it has one:
	// what a fresh job looks in for a predecessor's checkpoints (the
	// in-memory tiers start every run empty).
	ns string
	// saveLabel is the "detected by" label of an incarnation the tier's
	// saver failed.
	saveLabel string
	// minNodes is the narrowest placement the tier works on: the floor an
	// elastic shrink respects.
	minNodes int
	// beatSlack is how long the tier's saver may legitimately hold a rank
	// between heartbeats.
	beatSlack vclock.Time

	// plan runs once per incarnation, after placement and before any rank
	// stack is built; an error ends the run.
	plan func(p *vclock.Proc) error
	// flush makes the tier the target of the failure-time JIT save: the
	// namespace and store episode.save writes a rank's state to. The first
	// tier with one wins. In the restart loop, having one is what puts the
	// user-level stack (interception layer, GIL, §3.3 quorum wait) on every
	// rank; the transparent hard path saves there from the proxy side.
	flush func(rank int) (ns string, to checkpoint.Target)
	// saver builds a rank's after-iteration hook for this incarnation.
	saver func(rank int, w *train.Worker) saveFn
	// candidates lists what the tier can restore a rank from.
	candidates func(rank int, w *train.Worker) []checkpoint.Candidate
	// nodeLost drops what a dead host took with it.
	nodeLost func(node int)
	// covered lists the positions whose state the tier already holds, which
	// the §3.3 quorum therefore need not wait for.
	covered func(topo train.Topology) map[string]bool
	// readBytes is the modelled bytes the tier's own stores have served.
	readBytes func() int64
	// fold moves the tier's counters into the result. It runs when an
	// incarnation's completion event has fired, before teardown, and once
	// more at the end of the run: a tier whose counters live in
	// per-incarnation objects folds them before they are dropped.
	fold func(res *RunResult)
}

// saveFn runs one tier's saver for one rank at a minibatch boundary and
// returns the critical-path stall it cost; a save that stalled the
// reference rank is one the accounting counts.
type saveFn func(p *vclock.Proc) (stall vclock.Time, err error)

// rankSaver is one tier's saver on one rank's stack.
type rankSaver struct {
	label string
	save  saveFn
}

// buildTiers builds the policy row's tiers in restore-preference order:
// the disk namespaces (JIT, periodic, elastic), then peer shelter, then
// pipe-free bundles ahead of multi-step generations. It also folds the
// three things the loop needs of the stack as a whole: the JIT flush target
// (the first tier that has one), the node floor and the heartbeat slack.
func (h *harness) buildTiers() error {
	for _, c := range []struct {
		on   bool
		make func() (*tier, error)
	}{
		{h.pol.JITFlush == FlushDisk, h.jitTier},
		{h.pol.Periodic, h.periodicTier},
		// The elastic namespace holds the saves elasticSave takes at planned
		// expand and yield stops.
		{h.pol.Elastic, func() (*tier, error) { return h.namespaceTier("elastic", ElasticPolicyName), nil }},
		{h.pol.Peer, h.peerTier},
		{h.pol.PipeFree, h.pipeFreeTier},
		{h.pol.MultiStep, h.multiStepTier},
	} {
		if !c.on {
			continue
		}
		t, err := c.make()
		if err != nil {
			return err
		}
		h.tiers = append(h.tiers, t)
		h.minNodes, h.beatSlack = max(h.minNodes, t.minNodes), max(h.beatSlack, t.beatSlack)
		if h.flush == nil {
			h.flush = t.flush
		}
	}
	return nil
}

// namespaceTier restores from one namespace of the shared disk store.
func (h *harness) namespaceTier(name, ns string) *tier {
	return &tier{name: name, ns: ns, candidates: func(int, *train.Worker) []checkpoint.Candidate {
		return checkpoint.StoreCandidates(h.disk, "job", ns)
	}}
}

// jitTier is the §3 user-level JIT checkpoint on disk: healthy replicas
// flush to the shared store when a failure is detected, and the restart
// restores from what they wrote.
func (h *harness) jitTier() (*tier, error) {
	t := h.namespaceTier("jit", JITPolicyName)
	t.flush = func(int) (string, checkpoint.Target) { return JITPolicyName, h.disk }
	return t, nil
}

// failureRatePerGPUDay feeds the optimal-frequency computation: the OPT
// job's ≈2 failures/day over 992 GPUs.
const failureRatePerGPUDay = 2.0 / 992

// ckptInterval resolves the interval a periodic or multi-step saver runs
// at: the configured one, else 24 h for PC_1/day, else the optimal 1/c*.
func (h *harness) ckptInterval() vclock.Time {
	switch {
	case h.cfg.CkptInterval != 0:
		return h.cfg.CkptInterval
	case h.pol.Periodic && h.pol.Kind == checkpoint.PCDaily:
		return vclock.Day
	}
	return OptimalInterval(h.cfg.WL, failureRatePerGPUDay)
}

// periodicTier runs a checkpoint.Periodic saver of the row's Kind when Due
// at a minibatch boundary, in the critical path, and restores from the
// kind's namespace. A save stalls beats for up to its interval.
func (h *harness) periodicTier() (*tier, error) {
	wl, interval := h.cfg.WL, h.ckptInterval()
	tmpfs := checkpoint.NewStore(h.env, "tmpfs", checkpoint.TmpfsParams())
	t := h.namespaceTier("periodic", h.pol.Kind.PolicyName())
	t.saveLabel, t.beatSlack, t.readBytes = "checkpoint", interval, tmpfs.ReadBytes
	t.saver = func(rank int, w *train.Worker) saveFn {
		pc := &checkpoint.Periodic{
			Kind: h.pol.Kind, Interval: interval, Disk: h.disk, Mem: tmpfs, Job: "job",
			SerializeBW: wl.SerializeBW(), StateBytes: wl.StateBytesPerGPU(),
		}
		return func(p *vclock.Proc) (vclock.Time, error) {
			if !pc.Due(p.Now()) {
				return 0, nil
			}
			h.injector.NotePhase(rank, failure.PhaseCheckpoint)
			return pc.Run(p, w)
		}
	}
	return t, nil
}

// offerSaver is the saver of the in-memory tiers: hand every boundary's
// state but the last to an overlapped capture, at no stall.
func (h *harness) offerSaver(w *train.Worker, offer func(checkpoint.StatePeeker)) saveFn {
	return func(*vclock.Proc) (vclock.Time, error) {
		if w.Iter() < h.cfg.Iters {
			offer(w)
		}
		return 0, nil
	}
}

// peerTier replicates every iteration's state into peer CPU memory in other
// failure domains (internal/peerckpt), overlapped with the next minibatch.
// Under FlushShelter the failure-time JIT flush goes there too, so recovery
// never touches remote storage.
func (h *harness) peerTier() (*tier, error) {
	cfg, wl := h.cfg, h.cfg.WL
	if wl.Nodes < 2 {
		return nil, errors.New("core: peer-shelter policies need at least 2 nodes (no peer failure domain otherwise)")
	}
	var params peerckpt.Params
	if cfg.Peer != nil {
		params = *cfg.Peer
	}
	if params.LinkBandwidth == 0 {
		params.LinkBandwidth = wl.PeerLinkBandwidth()
	}
	shelter, err := peerckpt.NewShelter(h.env, "job", params, peerckpt.Availability{
		Nodes:          len(h.cluster.Nodes),
		FailureDomains: h.cluster.Racks(),
	})
	if err != nil {
		return nil, err
	}
	// Peer replication rides along with the gradient all-reduce traffic
	// (Checkmate-style piggybacking): record each all-reduce window so the
	// shelter can report its relative bandwidth cost.
	h.engine.SetObserver(func(cd nccl.CollectiveDone) {
		if cd.Kind == "allreduce" {
			shelter.NotePiggyback(cd.Bytes)
		}
	})
	if cfg.Chaos != nil && cfg.Chaos.ShelterChaos != nil {
		shelter.SetStoreChaos(cfg.Chaos.ShelterChaos)
	}
	// Stripe encode and parity reconstruction are fault-injection phases of
	// their own: chaos plans can land failures mid-encode or
	// mid-reconstruction.
	shelter.NotePhase = h.injector.NotePhase
	var hosts map[int][]int // this incarnation's shelter hosts per rank
	t := &tier{
		name:     "peer",
		minNodes: 2, // a second failure domain
		// Failure-domain-aware placement: each rank's state goes to host
		// nodes outside its own (and, when possible, outside every
		// data-parallel replica's) failure domain. Striped shelters spread
		// the k+m fragments across distinct racks instead; re-running the
		// plan every incarnation means elastic shrinks re-stripe for free.
		plan: func(p *vclock.Proc) (err error) {
			pp := shelter.Params()
			if !pp.Striped() {
				hosts, err = scheduler.PeerPlan(h.placement, h.topo, pp.Copies)
				return err
			}
			hosts, err = scheduler.StripePlan(h.placement, h.topo, pp.DataShards, pp.ParityShards, h.cluster.RackOf,
				func(format string, args ...interface{}) {
					trace.Of(h.env).Instant(p.Now(), "peer", trace.LaneSim, "stripe-degraded",
						"msg", fmt.Sprintf(format, args...))
				})
			return err
		},
		saver: func(rank int, w *train.Worker) saveFn {
			return h.offerSaver(w, shelter.NewReplicator(rank, h.placement[rank], hosts[rank],
				wl.StateBytesPerGPU(), wl.CUDAParams().D2HBandwidth).Offer)
		},
		candidates: func(int, *train.Worker) []checkpoint.Candidate { return shelter.RestoreCandidates() },
		nodeLost:   shelter.MarkNodeLost,
		covered:    shelter.CoveredPositions,
		readBytes:  shelter.ReadBytes,
		fold:       func(res *RunResult) { res.Peer = shelter.Stats() },
	}
	if h.pol.JITFlush == FlushShelter {
		t.flush = func(rank int) (string, checkpoint.Target) {
			return peerckpt.PolicyName, peerckpt.FlushTarget{
				Shelter: shelter, OwnNode: h.placement[rank].NodeID, Assigned: hosts[rank],
			}
		}
	}
	return t, nil
}

// pipeFreeTier retains each stage's redundancy bundle in neighbor stages'
// host RAM every iteration (internal/pipefree); a lost stage is rebuilt
// from a surviving neighbor with zero checkpoint reads.
func (h *harness) pipeFreeTier() (*tier, error) {
	wl := h.cfg.WL
	guard, err := pipefree.New(h.env, "job", wl.Topo, func(rank int) int {
		if dev := h.placement[rank]; dev != nil {
			return dev.NodeID
		}
		return -1
	})
	if err != nil {
		return nil, err
	}
	// Stage rebuilds are a fault-injection phase: chaos plans can land
	// failures mid-reconstruction.
	guard.NotePhase = h.injector.NotePhase
	return &tier{
		name: "pipefree",
		saver: func(rank int, w *train.Worker) saveFn {
			return h.offerSaver(w, guard.NewKeeper(rank, h.placement[rank],
				wl.StateBytesPerGPU(), wl.CUDAParams().D2HBandwidth).Offer)
		},
		candidates: func(int, *train.Worker) []checkpoint.Candidate { return guard.RestoreCandidates() },
		nodeLost:   guard.MarkNodeLost,
		covered:    guard.CoveredPositions,
		fold:       func(res *RunResult) { res.Pipe = guard.Stats() },
	}, nil
}

// msReconcileBW is the modelled gradient-replay throughput during a
// multi-step reconciled restore (state bytes advanced per second).
const msReconcileBW = 40e9

// multiStepTier runs the gradient-reconciled overlapped disk writer
// (checkpoint.MultiStep): slices are written concurrently with compute, and
// restore replays retained gradient deltas to advance stale slices.
func (h *harness) multiStepTier() (*tier, error) {
	wl, interval := h.cfg.WL, h.ckptInterval()
	slices := h.cfg.MultiStepSlices
	if slices <= 0 {
		slices = 4
	}
	var ref *checkpoint.MultiStep // the reference rank's writer, until its commits are folded
	return &tier{
		name:      "multistep",
		ns:        checkpoint.MultiStepNamespace,
		saveLabel: "ms-checkpoint",
		saver: func(rank int, w *train.Worker) saveFn {
			// The gradient ring must retain enough deltas to reconcile the
			// oldest slice (staleness up to slices-1 iterations).
			w.EnableGradRing(slices)
			msw := &checkpoint.MultiStep{
				Slices: slices, Interval: interval, Disk: h.disk, Job: "job",
				StateBytes: wl.StateBytesPerGPU(), SerializeBW: wl.SerializeBW(),
				D2HBandwidth: wl.CUDAParams().D2HBandwidth,
				NoteSliceWrite: func(*vclock.Proc) {
					h.injector.NotePhase(rank, failure.PhaseSliceWrite)
				},
			}
			if rank == h.refRank {
				ref = msw
			}
			return func(p *vclock.Proc) (vclock.Time, error) { return msw.Step(p, w) }
		},
		fold: func(res *RunResult) {
			if ref != nil {
				res.MultiStepCommits += ref.Count()
				ref = nil
			}
		},
		candidates: func(rank int, w *train.Worker) []checkpoint.Candidate {
			return checkpoint.MultiStepCandidates(h.disk, "job", checkpoint.MultiStepParams{
				Opt:         wl.Optimizer(),
				Scale:       w.GradScale(),
				ReconcileBW: msReconcileBW,
				NoteReconcile: func(*vclock.Proc) {
					h.injector.NotePhase(rank, failure.PhaseReconcile)
				},
			})
		},
	}, nil
}
