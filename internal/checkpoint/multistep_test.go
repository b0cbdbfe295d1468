package checkpoint

import (
	"runtime"
	"testing"

	"jitckpt/internal/cuda"
	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

const msTestStateBytes = 3 << 20

func msTestWorker(t *testing.T, env *vclock.Env) *train.Worker {
	t.Helper()
	return msWorker(t, env, 8)
}

// msWorker builds a one-rank, four-layer worker of the given width.
func msWorker(t *testing.T, env *vclock.Env, hidden int) *train.Worker {
	t.Helper()
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	drv, err := cuda.NewDriver(dev, engine, train.Kernels(), cuda.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	w, err := train.NewWorker(train.Config{
		Name: "w0", JobKey: "job", Rank: 0,
		Topo:  train.Topology{D: 1, P: 1, T: 1},
		Model: train.ModelSpec{Layers: 4, Hidden: hidden, Seed: 42, ParamBytesPerGPU: 1 << 20, OptBytesPerGPU: 1 << 21},
		Opt:   train.DefaultOptimizer(),
		Step:  train.Uniform(10*vclock.Millisecond, 4),
		API:   drv, DataSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func msTestParams() MultiStepParams {
	return MultiStepParams{Opt: train.DefaultOptimizer(), Scale: 1, ReconcileBW: 40e9}
}

// msTrainRun drives a worker for iters minibatches with a multi-step writer
// attached, returning the disk store.
func msTrainRun(t *testing.T, iters, slices int, interval vclock.Time) (*Store, *MultiStep, vclock.Time) {
	t.Helper()
	env := vclock.NewEnv(1)
	disk := NewStore(env, "disk", DiskParams())
	w := msTestWorker(t, env)
	w.EnableGradRing(slices)
	msw := &MultiStep{
		Slices: slices, Interval: interval, Disk: disk, Job: "job",
		StateBytes: msTestStateBytes, SerializeBW: 2e9, D2HBandwidth: 16e9,
	}
	var stall vclock.Time // the critical-path stall Step charged, in total
	env.Go("rank0", func(p *vclock.Proc) {
		if err := w.Setup(p, 0); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < iters; i++ {
			if _, err := w.RunIter(p); err != nil {
				t.Error(err)
				return
			}
			st, err := msw.Step(p, w)
			if err != nil {
				t.Error(err)
				return
			}
			stall += st
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return disk, msw, stall
}

// oracleState trains an identical worker for iters minibatches and saves
// its state — the atomically-captured reference the reconciled multi-step
// restore must match bit for bit.
func oracleState(t *testing.T, iters int) *train.ModelState {
	t.Helper()
	env := vclock.NewEnv(1)
	w := msTestWorker(t, env)
	var ms *train.ModelState
	env.Go("oracle", func(p *vclock.Proc) {
		if err := w.Setup(p, 0); err != nil {
			t.Error(err)
			return
		}
		if err := w.RunIters(p, iters); err != nil {
			t.Error(err)
			return
		}
		var err error
		if ms, err = w.SaveModelState(p); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return ms
}

// committedGens returns the committed generations (META present), oldest
// first.
func committedGens(st *Store, job string) []Entry {
	var out []Entry
	for _, e := range Entries(st, nsPrefix(job, MultiStepNamespace), "gen") {
		if _, ok := st.Stat(nil, msMetaPath(e.Dir)); ok {
			out = append(out, e)
		}
	}
	return out
}

func TestMultiStepCommitAndReconciledRestoreBitExact(t *testing.T) {
	const iters = 30
	disk, msw, _ := msTrainRun(t, iters, 3, 40*vclock.Millisecond)
	if msw.Count() == 0 {
		t.Fatal("no generation committed")
	}
	gens := committedGens(disk, "job")
	if len(gens) == 0 {
		t.Fatal("no committed generation on disk")
	}
	newest := gens[len(gens)-1]
	target := newest.Iter
	if newest.Rank != 0 {
		t.Fatalf("bad gen dir %s", newest.Dir)
	}

	env := vclock.NewEnv(1)
	disk2 := cloneStoreInto(env, disk)
	want := oracleState(t, target)
	env.Go("restore", func(p *vclock.Proc) {
		cands := MultiStepCandidates(disk2, "job", msTestParams())
		plan, err := AssembleRestore(p, cands, train.Topology{D: 1, P: 1, T: 1}, 1)
		if err != nil {
			t.Error(err)
			return
		}
		if plan.Iter != target {
			t.Errorf("plan iter = %d, want %d", plan.Iter, target)
		}
		got, err := plan.For[0].Load(p)
		if err != nil {
			t.Error(err)
			return
		}
		if got.Iter != target {
			t.Errorf("restored iter = %d, want %d", got.Iter, target)
		}
		if len(got.Tensors) != len(want.Tensors) {
			t.Errorf("restored %d tensors, want %d", len(got.Tensors), len(want.Tensors))
		}
		for name, wv := range want.Tensors {
			if !got.Tensors[name].Equal(wv) {
				t.Errorf("tensor %s not bit-exact vs oracle", name)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// cloneStoreInto copies a store's contents into a fresh env (restore runs
// in a new virtual world, like a restarted job).
func cloneStoreInto(env *vclock.Env, src *Store) *Store {
	dst := NewStore(env, src.name, src.params)
	for k, e := range src.files {
		dst.put(k, e)
	}
	return dst
}

func TestMultiStepPartialGenerationFallsBack(t *testing.T) {
	disk, _, _ := msTrainRun(t, 40, 3, 40*vclock.Millisecond)
	gens := committedGens(disk, "job")
	if len(gens) < 2 {
		t.Fatalf("want ≥2 committed generations, got %d", len(gens))
	}
	newest, newestTarget := gens[len(gens)-1].Dir, gens[len(gens)-1].Iter
	olderTarget := gens[len(gens)-2].Iter

	cases := map[string]func(st *Store){
		"missing-slice": func(st *Store) { st.Delete(newest + "/slice01.bin") },
		"corrupt-grad":  func(st *Store) { st.Corrupt(newest + "/grad00.bin") },
	}
	for name, breakIt := range cases {
		name, breakIt := name, breakIt
		t.Run(name, func(t *testing.T) {
			env := vclock.NewEnv(1)
			st := cloneStoreInto(env, disk)
			breakIt(st)
			env.Go("restore", func(p *vclock.Proc) {
				cands := MultiStepCandidates(st, "job", msTestParams())
				plan, err := AssembleRestore(p, cands, train.Topology{D: 1, P: 1, T: 1}, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if plan.Iter == newestTarget {
					t.Errorf("broken generation %d was restored", newestTarget)
				}
				if plan.Iter != olderTarget {
					t.Errorf("fell back to %d, want newest fully-valid %d", plan.Iter, olderTarget)
				}
				if _, err := plan.For[0].Load(p); err != nil {
					t.Errorf("fallback load: %v", err)
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMultiStepStaleBeyondWindowRejected(t *testing.T) {
	disk, _, _ := msTrainRun(t, 30, 3, 40*vclock.Millisecond)
	gens := committedGens(disk, "job")
	newest := gens[len(gens)-1].Dir
	env := vclock.NewEnv(1)
	st := cloneStoreInto(env, disk)
	// Forge a META whose slice is captured before the generation's gradient
	// window: deep validation must reject the whole generation.
	env.Go("forge", func(p *vclock.Proc) {
		m, err := readMSMeta(p, st, newest)
		if err != nil {
			t.Error(err)
			return
		}
		for i := range m.Objects {
			if m.Objects[i].Layers != nil {
				m.Objects[i].Iter = m.BaseIter - 1
				break
			}
		}
		if msValidDeepForged(p, st, newest, m) {
			t.Error("stale-beyond-window slice passed deep validation")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// msValidDeepForged re-runs the deep-validation logic against a forged META
// (bypassing the store read, which would return the honest one).
func msValidDeepForged(p *vclock.Proc, st *Store, dir string, m MSMeta) bool {
	gradIters := make(map[int]bool)
	for _, o := range m.Objects {
		if o.Layers == nil {
			gradIters[o.Iter] = true
		}
	}
	for _, o := range m.Objects {
		if o.Layers == nil {
			continue
		}
		if o.Iter > m.TargetIter || o.Iter < m.BaseIter {
			return false
		}
		for tt := o.Iter; tt < m.TargetIter; tt++ {
			if !gradIters[tt] {
				return false
			}
		}
	}
	return true
}

// TestMultiStepStrictlyCheaperThanPCDisk is the steady-state overhead claim
// of the family: at the same checkpoint frequency over the same workload,
// the multi-step writer's accumulated critical-path stall must be strictly
// below single-shot PC_disk's.
func TestMultiStepStrictlyCheaperThanPCDisk(t *testing.T) {
	const iters = 30
	interval := 40 * vclock.Millisecond

	_, msw, msStall := msTrainRun(t, iters, 3, interval)
	if msw.Count() == 0 {
		t.Fatal("multi-step never committed")
	}

	env := vclock.NewEnv(1)
	disk := NewStore(env, "disk", DiskParams())
	w := msTestWorker(t, env)
	pc := &Periodic{
		Kind: PCDisk, Interval: interval, Disk: disk, Job: "job",
		SerializeBW: 2e9, StateBytes: msTestStateBytes,
	}
	var pcStall vclock.Time
	pcSaves := 0
	env.Go("rank0", func(p *vclock.Proc) {
		if err := w.Setup(p, 0); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < iters; i++ {
			if _, err := w.RunIter(p); err != nil {
				t.Error(err)
				return
			}
			if pc.Due(p.Now()) {
				st, err := pc.Run(p, w)
				if err != nil {
					t.Error(err)
					return
				}
				pcStall += st
				pcSaves++
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if pcSaves == 0 {
		t.Fatal("PC_disk never ran")
	}
	msPer := float64(msStall) / float64(msw.Count())
	pcPer := float64(pcStall) / float64(pcSaves)
	if !(msPer < pcPer) {
		t.Fatalf("multi-step stall/ckpt %.3fms not strictly below PC_disk %.3fms",
			msPer/1e6, pcPer/1e6)
	}
}

// TestCaptureSliceAllocatesOnlyItsObjects pins the multi-step capture's
// byte path, as runtime.MemStats.TotalAlloc deltas: each boundary encodes
// its slice straight from the peek's device view and its gradient object
// from the ring, so it allocates those encodings and a little bookkeeping —
// no clone of the rank's state, nor of the slice.
func TestCaptureSliceAllocatesOnlyItsObjects(t *testing.T) {
	env := vclock.NewEnv(1)
	w := msWorker(t, env, 128)
	w.EnableGradRing(4)
	msw := &MultiStep{
		Slices: 4, Interval: vclock.Millisecond, Disk: NewStore(env, "disk", DiskParams()), Job: "job",
		StateBytes: msTestStateBytes, SerializeBW: 2e9, D2HBandwidth: 16e9,
	}
	env.Go("rank0", func(p *vclock.Proc) {
		if err := w.Setup(p, 0); err != nil {
			t.Error(err)
			return
		}
		if _, err := w.RunIter(p); err != nil {
			t.Error(err)
			return
		}
		msw.startGen(p, w)
		g := msw.gen
		for s := 0; s < 4; s++ {
			n := len(g.objects)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := msw.captureSlice(p, w); err != nil {
				t.Error(err)
				return
			}
			runtime.ReadMemStats(&m1)
			var kept uint64
			for _, o := range g.objects[n:] {
				kept += uint64(o.DataLen)
			}
			alloc := m1.TotalAlloc - m0.TotalAlloc
			t.Logf("boundary %d: %d bytes allocated for %d bytes of objects", s, alloc, kept)
			if limit := kept*11/10 + 4<<10; alloc > limit {
				t.Errorf("boundary %d allocates %d bytes for %d bytes of objects, limit is 1.1× + 4 KiB = %d", s, alloc, kept, limit)
			}
			if _, err := w.RunIter(p); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if msw.Count() != 1 {
		t.Fatalf("%d generations committed, want 1", msw.Count())
	}
}

func TestMultiStepPruneKeepsRetain(t *testing.T) {
	disk, msw, _ := msTrainRun(t, 80, 2, 30*vclock.Millisecond)
	if msw.Count() < 4 {
		t.Fatalf("want ≥4 committed generations, got %d", msw.Count())
	}
	gens := committedGens(disk, "job")
	if len(gens) > 2 {
		t.Fatalf("prune left %d generations, want ≤2 (default retain)", len(gens))
	}
}
