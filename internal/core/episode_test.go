package core

import (
	"errors"
	"math"
	"testing"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/failure"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// testEpisode is an episode of a job of topology topo with no tiers.
func testEpisode(topo train.Topology) *episode {
	return (&harness{topo: topo}).newEpisode(noTarget)
}

// waitQuorum runs q.wait(timeout) in a process of env beside the saves body
// notes, with one tier whose memory covers the positions in pre, and reports
// whether it was met and when it returned.
func waitQuorum(t *testing.T, env *vclock.Env, q *episode, timeout vclock.Time, pre map[string]bool, saves func(p *vclock.Proc)) (met bool, at vclock.Time) {
	t.Helper()
	q.h.tiers = []*tier{{covered: func(train.Topology) map[string]bool { return pre }}}
	env.Go("supervisor", func(p *vclock.Proc) {
		met = q.wait(p, timeout)
		at = p.Now()
	})
	if saves != nil {
		env.Go("ranks", saves)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return met, at
}

func TestQuorumWait(t *testing.T) {
	// 2D-2P job: the quorum needs one checkpoint per pipeline stage, from
	// any replica. Rank 0 (d0,p0) and rank 3 (d1,p1) suffice, so the wait
	// ends at the second save.
	q := testEpisode(train.Topology{D: 2, P: 2, T: 1})
	met, at := waitQuorum(t, vclock.NewEnv(1), q, vclock.Minute, nil, func(p *vclock.Proc) {
		p.Sleep(vclock.Second)
		q.note(0, 7)
		p.Sleep(vclock.Second)
		q.note(3, 7)
	})
	if !met || at != 2*vclock.Second {
		t.Fatalf("quorum met=%v at %v, want met at 2s by the iteration-7 saves", met, at)
	}
}

func TestQuorumRequiresMatchingIteration(t *testing.T) {
	q := testEpisode(train.Topology{D: 2, P: 2, T: 1})
	met, _ := waitQuorum(t, vclock.NewEnv(1), q, vclock.Seconds(10), nil, func(*vclock.Proc) {
		// Stage 0 checkpoints iter 7, stage 1 checkpoints iter 8: torn —
		// no quorum forms at either iteration.
		q.note(0, 7)
		q.note(3, 8)
	})
	if met {
		t.Fatal("quorum formed from mismatched iterations")
	}
}

func TestQuorumSeesSavesNotedBeforeWait(t *testing.T) {
	q := testEpisode(train.Topology{D: 2, P: 1, T: 1})
	q.note(1, 3)
	if met, at := waitQuorum(t, vclock.NewEnv(1), q, vclock.Second, nil, nil); !met || at != 0 {
		t.Fatalf("pre-noted checkpoint not counted toward quorum: met=%v at %v", met, at)
	}
}

func TestQuorumFSDPNeedsEveryShardSlot(t *testing.T) {
	q := testEpisode(train.Topology{D: 4, P: 1, T: 1, FSDPShard: 2})
	met, _ := waitQuorum(t, vclock.NewEnv(1), q, vclock.Seconds(5), nil, func(*vclock.Proc) {
		// Ranks 0 and 2 are both shard slot 0: slot 1 never reports.
		q.note(0, 1)
		q.note(2, 1)
	})
	if met {
		t.Fatal("quorum must require every shard slot")
	}
}

func TestQuorumPreCoveredPositions(t *testing.T) {
	topo := train.Topology{D: 1, P: 2, T: 1}
	stage1 := map[string]bool{topo.PositionKey(1): true}
	q := testEpisode(topo)
	if met, at := waitQuorum(t, vclock.NewEnv(1), q, vclock.Minute, stage1, func(p *vclock.Proc) {
		p.Sleep(vclock.Second)
		q.note(0, 5)
	}); !met || at != vclock.Second {
		t.Fatalf("stage 0's save with stage 1 pre-covered: met=%v at %v, want met at 1s", met, at)
	}
	all := map[string]bool{topo.PositionKey(0): true, topo.PositionKey(1): true}
	if met, at := waitQuorum(t, vclock.NewEnv(1), testEpisode(topo), vclock.Minute, all, nil); !met || at != 0 {
		t.Fatalf("fully pre-covered quorum: met=%v at %v, want met at once", met, at)
	}
}

// TestEpisodeAssemble pins the restore plan both drivers take from an
// episode: one assembly over the row's tiers, in which a rank with no entry
// of its own resolves to its replica's, checked against the episode's
// target iteration when it has one.
func TestEpisodeAssemble(t *testing.T) {
	type entry struct{ iter, rank int }
	// assemble seeds the UserJIT row's disk with JIT entries and assembles
	// rank 2's plan in an episode of the given target. peerWL is 2D-2P:
	// positions p0 (ranks 0, 2) and p1 (ranks 1, 3).
	assemble := func(t *testing.T, entries []entry, target int) (*checkpoint.RestorePlan, *trace.Recorder, error) {
		t.Helper()
		rec := trace.New()
		h := newHarness(JobConfig{WL: peerWL(), Policy: PolicyUserJIT, Iters: 1, Recorder: rec})
		if err := h.setup(); err != nil {
			t.Fatal(err)
		}
		var plan *checkpoint.RestorePlan
		var err error
		h.env.Go("seed-and-assemble", func(p *vclock.Proc) {
			for _, e := range entries {
				ms := &train.ModelState{Iter: e.iter, Rank: e.rank}
				if err := checkpoint.WriteRank(p, h.disk, checkpoint.RankDir("job", JITPolicyName, e.iter, e.rank), ms, 1<<20); err != nil {
					t.Error(err)
					return
				}
			}
			plan, err = h.newEpisode(target).assemble(p, 2, nil)
		})
		if rerr := h.env.Run(); rerr != nil {
			t.Fatal(rerr)
		}
		return plan, rec, err
	}
	full9 := []entry{{9, 0}, {9, 1}}
	t.Run("replica", func(t *testing.T) {
		plan, _, err := assemble(t, full9, noTarget)
		if err != nil || plan.Iter != 9 {
			t.Fatalf("plan = %+v, err = %v, want iteration 9", plan, err)
		}
		for reader, writer := range map[int]int{2: 0, 3: 1} {
			if want := "shared:" + checkpoint.RankDir("job", JITPolicyName, 9, writer); plan.For[reader].Desc != want {
				t.Errorf("rank %d restores from %s, want its replica's %s", reader, plan.For[reader].Desc, want)
			}
		}
	})
	t.Run("target-met", func(t *testing.T) {
		if plan, _, err := assemble(t, full9, 9); err != nil || plan.Iter != 9 {
			t.Fatalf("plan = %+v, err = %v, want iteration 9", plan, err)
		}
	})
	// A full set at 8 and a partial one at 9: nobody saved p1 at 9.
	torn := []entry{{8, 0}, {8, 1}, {9, 0}}
	t.Run("target-stale", func(t *testing.T) {
		plan, _, err := assemble(t, torn, 9)
		if plan != nil || !errors.Is(err, errStaleCheckpoint) || err.Error() != "checkpoint-at-iter-8-not-9" {
			t.Fatalf("plan = %+v, err = %v, want errStaleCheckpoint naming 8 and 9", plan, err)
		}
	})
	t.Run("no-target-falls-back", func(t *testing.T) {
		plan, rec, err := assemble(t, torn, noTarget)
		if err != nil || plan.Iter != 8 {
			t.Fatalf("plan = %+v, err = %v, want the newest complete iteration, 8", plan, err)
		}
		if fb := trace.NewQuery(rec).Instants("ckpt", "assemble-fallback"); len(fb) != 1 || fb[0].Args["iter"] != "9" {
			t.Fatalf("assemble-fallback instants = %+v, want one for iteration 9", fb)
		}
	})
	t.Run("nothing", func(t *testing.T) {
		if plan, _, err := assemble(t, nil, 9); plan != nil || !errors.Is(err, checkpoint.ErrUnassembled) {
			t.Fatalf("plan = %+v, err = %v, want checkpoint.ErrUnassembled", plan, err)
		}
	})
}

// TestQuorumFreshEpisodeIgnoresEarlierSaves: a quorum met in one episode
// says nothing about the next one's.
func TestQuorumFreshEpisodeIgnoresEarlierSaves(t *testing.T) {
	topo := train.Topology{D: 2, P: 1, T: 1}
	first := testEpisode(topo)
	first.note(0, 4)
	first.note(1, 4)
	if met, _ := waitQuorum(t, vclock.NewEnv(1), first, vclock.Second, nil, nil); !met {
		t.Fatal("first episode's quorum not met by its own saves")
	}
	met, at := waitQuorum(t, vclock.NewEnv(1), testEpisode(topo), 2*vclock.Minute, nil, nil)
	if met || at != 2*vclock.Minute {
		t.Fatalf("fresh episode's quorum met=%v at %v, want the whole timeout unmet", met, at)
	}
}

// TestUserJITSecondEpisodeWaitsForItsOwnQuorum: a second failure's restart
// must wait for that failure's JIT checkpoints. Saves noted in the first
// episode (iteration 4) must not satisfy the second episode's quorum, or
// the restart kills the healthy replicas before they save iteration 10 and
// every rank rolls back to iteration 4.
func TestUserJITSecondEpisodeWaitsForItsOwnQuorum(t *testing.T) {
	wl := testWL()
	const iters = 16
	ref := referenceLoss(t, wl, iters)
	for _, pol := range []Policy{PolicyUserJIT, PolicyElasticJIT} {
		t.Run(pol.Info().Key, func(t *testing.T) {
			rec := trace.New()
			res := mustRun(t, JobConfig{
				WL: wl, Policy: pol, Iters: iters, Seed: 1, CollectLoss: true,
				HangTimeout: 2 * vclock.Second, SpareNodes: 2, Recorder: rec,
				IterFailures: []IterInjection{
					{Iter: 4, Frac: 0.3, Rank: 1, Kind: failure.GPUSticky},
					{Iter: 10, Frac: 0.3, Rank: 2, Kind: failure.GPUSticky},
				},
			})
			if !res.Completed || res.Incarnations != 3 {
				t.Fatalf("completed=%v incarnations=%d, want a completed run of 3", res.Completed, res.Incarnations)
			}
			if res.ItersExecuted > iters+2 {
				t.Fatalf("executed %d iters for %d useful: more than one minibatch redone per failure", res.ItersExecuted, iters)
			}
			if !lossTracesEqual(t, ref, res.Loss, iters) {
				t.Fatal("loss diverged after two user-level recoveries")
			}
			q := trace.NewQuery(rec)
			var last trace.SpanRec
			for _, inc := range q.Spans("core", "incarnation") {
				if inc.Args["gen"] == "2" {
					last = inc
				}
			}
			restored := 0
			for _, r := range q.Instants("ckpt", "restore-done") {
				if r.T < last.Start {
					continue
				}
				if r.Args["iter"] != "10" {
					t.Fatalf("%s restored iteration %s after the second failure, want 10", r.Lane, r.Args["iter"])
				}
				restored++
			}
			if restored != wl.Topo.World() {
				t.Fatalf("%d ranks restored after the second failure, want %d", restored, wl.Topo.World())
			}
		})
	}
}

// TestTransparentSecondHardErrorWithoutReplicaFailsLoudly: a hard error on
// every replica of a position leaves nobody to JIT-checkpoint the episode's
// iteration, so the only assemblable checkpoint is the first episode's. A
// migration must not restore it under CRIU images of the newer iteration:
// the episode is terminal and the run incomplete, with no loss recorded
// from a diverged trajectory.
func TestTransparentSecondHardErrorWithoutReplicaFailsLoudly(t *testing.T) {
	wl := workload.Tiny("tiny-d2", "test", 2, 1, train.Topology{D: 2, P: 1, T: 1}, 0.004, 2, 8)
	const iters = 16
	ref := referenceLoss(t, wl, iters)
	res := mustRun(t, JobConfig{
		WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout: 2 * vclock.Second, SpareNodes: 3,
		IterFailures: []IterInjection{
			{Iter: 4, Frac: 0.4, Rank: 1, Kind: failure.GPUHard},
			{Iter: 9, Frac: 0.4, Rank: 0, Kind: failure.GPUHard},
			{Iter: 9, Frac: 0.4, Rank: 1, Kind: failure.GPUHard},
		},
	})
	if res.Completed {
		t.Fatal("run completed although no replica survived to checkpoint the second failure's iteration")
	}
	if n := len(res.Reports); n == 0 || res.Reports[n-1].Kind != "hard-failed:checkpoint-at-iter-4-not-9" {
		t.Fatalf("last report is not the stale-checkpoint terminal: %+v", res.Reports)
	}
	for it, l := range res.Loss {
		if it >= 9 || math.Float32bits(l) != math.Float32bits(ref[it]) {
			t.Fatalf("loss recorded for iteration %d (%v, failure-free %v): the run went on past the divergence", it, l, ref[it])
		}
	}
}

// TestTransparentHardErrorOnEveryReplicaFindsNoCheckpoint: a first hard
// error on every replica leaves no JIT save at all, so the migration has
// nothing to assemble and the episode ends terminal with that kind, and the
// run with it.
func TestTransparentHardErrorOnEveryReplicaFindsNoCheckpoint(t *testing.T) {
	wl := workload.Tiny("tiny-d2", "test", 2, 1, train.Topology{D: 2, P: 1, T: 1}, 0.004, 2, 8)
	res, q := checkedRun(t, JobConfig{
		WL: wl, Policy: PolicyTransparentJIT, Iters: 16, Seed: 1,
		HangTimeout: 2 * vclock.Second, SpareNodes: 3,
		IterFailures: []IterInjection{
			{Iter: 4, Frac: 0.4, Rank: 0, Kind: failure.GPUHard},
			{Iter: 4, Frac: 0.4, Rank: 1, Kind: failure.GPUHard},
		},
	})
	checkEndedAtGiveUp(t, res, q)
	if n := len(res.Reports); n != 1 || res.Reports[0].Kind != "hard-failed:no-checkpoint-assembly" {
		t.Fatalf("reports = %+v, want one ending hard-failed:no-checkpoint-assembly", res.Reports)
	}
}
