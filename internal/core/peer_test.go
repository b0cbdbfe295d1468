package core

import (
	"testing"

	"jitckpt/internal/failure"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// peerWL is a 4-node, 1-GPU-per-node, 2D×2P workload: every rank is its
// own failure domain, so a whole-node loss takes exactly one rank — and
// taking nodes 0 and 2 together destroys BOTH data-parallel replicas of
// pipeline stage 0 (ranks 0 and 2) at once, the catastrophic case JIT
// checkpointing alone cannot survive.
func peerWL() workload.Workload {
	wl := testWL()
	wl.Name = "tiny-peer"
	wl.Nodes, wl.PerNode = 4, 1
	wl.Topo = train.Topology{D: 2, P: 2, T: 1}
	wl.Layers = 4
	return wl
}

func TestFailureFreePeerShelterRun(t *testing.T) {
	wl := peerWL()
	const iters = 12
	ref := referenceLoss(t, wl, iters)
	base := mustRun(t, JobConfig{WL: wl, Policy: PolicyUserJIT, Iters: iters, Seed: 1})
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyPeerShelter, Iters: iters, Seed: 1, CollectLoss: true,
	})
	if !res.Completed || res.Incarnations != 1 {
		t.Fatalf("completed=%v incarnations=%d", res.Completed, res.Incarnations)
	}
	if !lossTracesEqual(t, ref, res.Loss, iters) {
		t.Fatal("loss diverged under peer replication")
	}
	// Replication ran: every rank offers after every non-final iteration.
	wantOffers := wl.Topo.World() * (iters - 1)
	if res.Peer.Offers != wantOffers {
		t.Fatalf("offers = %d, want %d", res.Peer.Offers, wantOffers)
	}
	if res.Peer.Commits == 0 || res.Peer.BytesSheltered == 0 {
		t.Fatalf("nothing sheltered: %+v", res.Peer)
	}
	// Replication is overlapped with the next minibatch: no added
	// critical-path time versus plain user-level JIT.
	if res.WallTime > base.WallTime+vclock.Millisecond {
		t.Fatalf("peer replication stalled training: %v vs %v", res.WallTime, base.WallTime)
	}
	// The piggyback accounting saw the per-iteration gradient all-reduces.
	if res.Peer.PiggybackWaves == 0 || res.Peer.PiggybackBytes == 0 {
		t.Fatalf("no piggyback windows observed: %+v", res.Peer)
	}
}

// killBothReplicasOfStage0 downs nodes 0 and 2 — the hosts of ranks 0 and
// 2, the two data-parallel replicas of pipeline stage 0 — half way through
// iteration 14. Host RAM on those nodes dies too, taking any sheltered
// entries they held.
func killBothReplicasOfStage0() []IterInjection {
	return []IterInjection{
		{Iter: 14, Frac: 0.5, Rank: 0, Kind: failure.NodeDown},
		{Iter: 14, Frac: 0.5, Rank: 2, Kind: failure.NodeDown},
	}
}

// TestPeerShelterSurvivesTotalReplicaLoss is the tier's reason to exist:
// a node-level failure destroys every live replica of a shard (no healthy
// rank holds stage 0, so no JIT checkpoint of it can be taken), yet the
// job recovers from the peer-sheltered copies with at most one minibatch
// redone and a bit-identical loss trace.
func TestPeerShelterSurvivesTotalReplicaLoss(t *testing.T) {
	wl := peerWL()
	const iters = 20
	ref := referenceLoss(t, wl, iters)
	for _, policy := range []Policy{PolicyPeerShelter, PolicyJITWithPeer} {
		t.Run(policy.String(), func(t *testing.T) {
			res := mustRun(t, JobConfig{
				WL: wl, Policy: policy, Iters: iters, Seed: 1, CollectLoss: true,
				HangTimeout:  2 * vclock.Second,
				SpareNodes:   2,
				IterFailures: killBothReplicasOfStage0(),
			})
			if !res.Completed {
				t.Fatalf("total replica loss not survived (incarnations=%d)", res.Incarnations)
			}
			if res.Incarnations != 2 {
				t.Fatalf("incarnations = %d, want 2", res.Incarnations)
			}
			if res.ItersExecuted > iters+1 {
				t.Fatalf("redid %d minibatches, want <= 1 (shelter should hold iteration-fresh state)",
					res.ItersExecuted-iters)
			}
			if !lossTracesEqual(t, ref, res.Loss, iters) {
				t.Fatal("loss diverged after peer-shelter recovery")
			}
		})
	}
}

// TestJITWithPeerBeatsDailyFallback pins the headline comparison: after a
// catastrophic failure, UserJIT+PC_1/day rolls back to its last periodic
// checkpoint — with the paper's 1/day cadence, up to a training-day of
// work (here: no periodic checkpoint was due yet, so all progress since
// job start) — while UserJIT+Peer rolls back at most one minibatch.
func TestJITWithPeerBeatsDailyFallback(t *testing.T) {
	wl := peerWL()
	const iters = 20
	daily := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyJITWithDaily, Iters: iters, Seed: 1,
		HangTimeout: 2 * vclock.Second,
		SpareNodes:  2,
		// "Daily" scaled to simulation length: longer than the entire job,
		// so — as with a real 24 h cadence early in the day — no periodic
		// checkpoint exists when the catastrophe strikes. (The true 1-day
		// interval would also push the heartbeat watchdog's stall threshold
		// past the horizon; see incarnation.heartbeat.)
		CkptInterval: vclock.Time(3 * iters * int(wl.Minibatch)),
		IterFailures: killBothReplicasOfStage0(),
	})
	peer := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyJITWithPeer, Iters: iters, Seed: 1,
		HangTimeout:  2 * vclock.Second,
		SpareNodes:   2,
		IterFailures: killBothReplicasOfStage0(),
	})
	if !daily.Completed || !peer.Completed {
		t.Fatalf("completed: daily=%v peer=%v", daily.Completed, peer.Completed)
	}
	// The daily fallback's interval (24 h) never elapsed in this short
	// job, so the rollback is the full 14 completed iterations — the
	// scaled-down version of "losing up to a day".
	if redo := daily.ItersExecuted - iters; redo < 14 {
		t.Fatalf("UserJIT+PC_1/day redid only %d minibatches — where did stage 0's state come from?", redo)
	}
	if redo := peer.ItersExecuted - iters; redo > 1 {
		t.Fatalf("UserJIT+Peer redid %d minibatches, want <= 1", redo)
	}
}

// TestPeerShelterSurvivesPlainGPUFailure: an ordinary single-GPU hard
// failure under the pure-shelter policy (no disk at all): healthy ranks
// flush to peer memory and recovery costs one minibatch.
func TestPeerShelterSurvivesPlainGPUFailure(t *testing.T) {
	wl := peerWL()
	const iters = 20
	ref := referenceLoss(t, wl, iters)
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyPeerShelter, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout:  2 * vclock.Second,
		SpareNodes:   1,
		IterFailures: injectAt(wl, 14.5, 3, failure.GPUHard),
	})
	if !res.Completed || res.Incarnations != 2 {
		t.Fatalf("completed=%v incarnations=%d", res.Completed, res.Incarnations)
	}
	if res.ItersExecuted > iters+1 {
		t.Fatalf("redid %d minibatches, want <= 1", res.ItersExecuted-iters)
	}
	if !lossTracesEqual(t, ref, res.Loss, iters) {
		t.Fatal("loss diverged")
	}
}

// TestPeerShelterRejectsSingleNode: with one node there is no peer
// failure domain to shelter into; the config is invalid, not silently
// unsafe.
func TestPeerShelterRejectsSingleNode(t *testing.T) {
	wl := testWL()
	wl.Nodes, wl.PerNode = 1, 4
	if _, err := Run(JobConfig{WL: wl, Policy: PolicyPeerShelter, Iters: 2, Seed: 1}); err == nil {
		t.Fatal("single-node peer-shelter config accepted")
	}
}
