package core

import (
	"fmt"
	"testing"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/cuda"
	"jitckpt/internal/gpu"
	"jitckpt/internal/intercept"
	"jitckpt/internal/nccl"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// userLevelRig wires a 2-rank user-level stack where rank 1's device can
// be killed to wedge rank 0 at the gradient all-reduce.
type userLevelRig struct {
	env     *vclock.Env
	engine  *nccl.Engine
	devs    [2]*gpu.Device
	layers  [2]*intercept.Layer
	workers [2]*train.Worker
	gils    [2]*vclock.Mutex
	ranks   [2]*UserLevelRank
	store   *checkpoint.Store
	rec     *trace.Recorder
	saved   []int // ranks whose Save committed, in order
}

func newUserLevelRig(t *testing.T) *userLevelRig {
	t.Helper()
	r := &userLevelRig{env: vclock.NewEnv(1)}
	r.engine = nccl.NewEngine(r.env, nccl.DefaultParams())
	r.store = checkpoint.NewStore(r.env, "shared", checkpoint.TmpfsParams())
	r.rec = trace.New()
	trace.Attach(r.env, r.rec)
	topo := train.Topology{D: 2, P: 1, T: 1}
	for i := 0; i < 2; i++ {
		r.devs[i] = gpu.NewDevice(r.env, 0, i, 1<<34)
		drv, err := cuda.NewDriver(r.devs[i], r.engine, train.Kernels(), cuda.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		r.layers[i] = intercept.New(r.env, drv, fmt.Sprintf("rank%d", i), intercept.Config{
			Mode:        intercept.ModeUserLevel,
			HangTimeout: 2 * vclock.Second,
		})
		r.gils[i] = vclock.NewMutex(r.env, fmt.Sprintf("gil%d", i))
		w, err := train.NewWorker(train.Config{
			Name: fmt.Sprintf("w%d", i), JobKey: "job", Rank: i, Topo: topo,
			Model: train.ModelSpec{Layers: 2, Hidden: 8, Seed: 42, ParamBytesPerGPU: 1 << 20, OptBytesPerGPU: 1 << 21},
			Opt:   train.DefaultOptimizer(),
			Step:  train.Uniform(20*vclock.Millisecond, 2),
			API:   r.layers[i], DataSeed: 7, GIL: r.gils[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		r.workers[i] = w
		r.ranks[i] = &UserLevelRank{
			Rank: i, Layer: r.layers[i], Worker: w, GIL: r.gils[i],
			Save: func(p *vclock.Proc, ms *train.ModelState) error {
				dir := checkpoint.RankDir("job", JITPolicyName, ms.Iter, ms.Rank)
				if err := checkpoint.SaveRank(p, r.store, dir, ms, 0, 1<<21, 1<<21); err != nil {
					return err
				}
				r.saved = append(r.saved, ms.Rank)
				return nil
			},
		}
		r.layers[i].SetOnFault(r.ranks[i].Hook())
	}
	return r
}

// TestUserLevelHangCheckpointSequence drives §3.2 end to end with explicit
// components: rank 1's GPU dies hard mid-minibatch; rank 0's watchdog
// detects the hung all-reduce while rank 0's main thread is blocked in a
// device call *holding the GIL*; the handler steals the GIL, saves through
// checkpoint mode, commits with metadata through the save function, and
// kills the main process.
func TestUserLevelHangCheckpointSequence(t *testing.T) {
	r := newUserLevelRig(t)
	for i := 0; i < 2; i++ {
		i := i
		proc := r.env.Go(fmt.Sprintf("main%d", i), func(p *vclock.Proc) {
			if err := r.workers[i].Setup(p, 0); err != nil {
				t.Errorf("rank %d setup: %v", i, err)
				return
			}
			r.workers[i].RunIters(p, 200) // will not finish
		})
		r.ranks[i].MainProc = proc
	}
	r.env.Go("injector", func(p *vclock.Proc) {
		p.Sleep(vclock.Seconds(2.2)) // a few iterations in
		r.devs[1].InjectHard()
	})
	if err := r.env.RunUntil(vclock.Minute); err != nil {
		t.Fatal(err)
	}

	u0 := r.ranks[0]
	if !u0.CheckpointDone {
		t.Fatalf("healthy rank did not checkpoint (saves %+v)", trace.NewQuery(r.rec).Spans("ckpt", "jit-save"))
	}
	if u0.SaveDuration <= 0 {
		t.Fatal("save duration not measured")
	}
	// The checkpoint is complete and readable.
	var valid bool
	var ms *train.ModelState
	r.env.Go("verify", func(p *vclock.Proc) {
		dir := checkpoint.RankDir("job", JITPolicyName, u0.CheckpointIter, 0)
		valid = checkpoint.ValidDeep(p, r.store, dir)
		ms, _ = checkpoint.ReadRank(p, r.store, dir)
	})
	if err := r.env.RunUntil(2 * vclock.Minute); err != nil {
		t.Fatal(err)
	}
	if !valid || ms == nil {
		t.Fatal("JIT checkpoint invalid or unreadable")
	}
	if ms.Iter != u0.CheckpointIter {
		t.Fatalf("checkpoint iter %d != recorded %d", ms.Iter, u0.CheckpointIter)
	}
	// The failure was detected, and the checkpoint committed through the
	// save function, which is what counts it toward the restart's quorum.
	sawFail := len(trace.NewQuery(r.rec).Instants("fail", "detected")) > 0
	sawCkpt := len(r.saved) > 0 && r.saved[0] == 0
	if !sawFail || !sawCkpt {
		t.Fatalf("detection or checkpoint missing: fail=%v ckpt=%v (saved %v)", sawFail, sawCkpt, r.saved)
	}
	// The GIL ends up free (the handler released it after stealing).
	if r.gils[0].Owner() != nil {
		t.Fatalf("GIL still held by %v", r.gils[0].Owner().Name())
	}
}

// TestUserLevelFailingRankDoesNotCheckpoint: the rank whose own GPU died
// must not attempt a save; it only traces the detection.
func TestUserLevelFailingRankDoesNotCheckpoint(t *testing.T) {
	r := newUserLevelRig(t)
	for i := 0; i < 2; i++ {
		i := i
		proc := r.env.Go(fmt.Sprintf("main%d", i), func(p *vclock.Proc) {
			if err := r.workers[i].Setup(p, 0); err != nil {
				return
			}
			r.workers[i].RunIters(p, 200)
		})
		r.ranks[i].MainProc = proc
	}
	r.env.Go("injector", func(p *vclock.Proc) {
		p.Sleep(vclock.Seconds(2.2))
		r.devs[1].InjectSticky() // rank 1 sees API errors directly
	})
	if err := r.env.RunUntil(vclock.Minute); err != nil {
		t.Fatal(err)
	}
	if r.ranks[1].CheckpointDone {
		t.Fatal("failing rank checkpointed despite a dead GPU")
	}
	if !r.ranks[0].CheckpointDone {
		t.Fatalf("healthy rank did not checkpoint (saves %+v)", trace.NewQuery(r.rec).Spans("ckpt", "jit-save"))
	}
}
