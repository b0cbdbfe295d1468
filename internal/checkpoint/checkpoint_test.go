package checkpoint

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"jitckpt/internal/cuda"
	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/tensor"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

func testState(iter, rank int, seed uint64) *train.ModelState {
	rng := tensor.NewRNG(seed)
	v := tensor.NewVector(32)
	rng.FillUniform(v, 1)
	return &train.ModelState{
		Iter: iter, Rank: rank,
		Tensors: map[string]tensor.Vector{"param.L0.w#0": v},
	}
}

func TestStoreWriteReadTimed(t *testing.T) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", StoreParams{WriteBW: 1e9, ReadBW: 2e9, Latency: vclock.Millisecond})
	env.Go("w", func(p *vclock.Proc) {
		t0 := p.Now()
		if err := st.Write(p, "a/b", []byte("hello"), 1e9); err != nil {
			t.Error(err)
		}
		wrote := p.Now() - t0
		if wrote < vclock.Seconds(0.9) || wrote > vclock.Seconds(1.2) {
			t.Errorf("1GB at 1GB/s took %v", wrote)
		}
		t0 = p.Now()
		got, err := st.Read(p, "a/b")
		if err != nil || string(got) != "hello" {
			t.Errorf("read: %q %v", got, err)
		}
		readTook := p.Now() - t0
		if readTook < vclock.Seconds(0.4) || readTook > vclock.Seconds(0.7) {
			t.Errorf("1GB at 2GB/s took %v", readTook)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreListAndDelete(t *testing.T) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", TmpfsParams())
	env.Go("w", func(p *vclock.Proc) {
		st.Write(p, "job/a", []byte("1"), 1)
		st.Write(p, "job/b", []byte("2"), 1)
		st.Write(p, "other/c", []byte("3"), 1)
		if got := st.List("job/"); len(got) != 2 || got[0] != "job/a" {
			t.Errorf("List = %v", got)
		}
		st.Delete("job/a")
		if _, ok := st.Stat(p, "job/a"); ok {
			t.Error("deleted object still exists")
		}
		if _, err := st.Read(p, "job/a"); !errors.Is(err, ErrNotFound) {
			t.Errorf("read deleted: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRankCheckpointRoundTrip(t *testing.T) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", TmpfsParams())
	env.Go("w", func(p *vclock.Proc) {
		ms := testState(7, 3, 99)
		dir := RankDir("job", "jit", 7, 3)
		if err := WriteRank(p, st, dir, ms, 1<<20); err != nil {
			t.Error(err)
			return
		}
		if !ValidDeep(p, st, dir) {
			t.Error("fresh checkpoint invalid")
		}
		got, err := ReadRank(p, st, dir)
		if err != nil {
			t.Error(err)
			return
		}
		if got.Checksum() != ms.Checksum() || got.Iter != 7 || got.Rank != 3 {
			t.Error("round trip lost content")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptCheckpointRejected(t *testing.T) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", TmpfsParams())
	env.Go("w", func(p *vclock.Proc) {
		dir := RankDir("job", "jit", 1, 0)
		WriteRank(p, st, dir, testState(1, 0, 5), 1<<20)
		// Content corruption (bit flip): caught by the checksum on read.
		if !st.Corrupt(dir + "/model.bin") {
			t.Error("corrupt failed")
		}
		if _, err := ReadRank(p, st, dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("ReadRank = %v, want corrupt", err)
		}
		// Truncation (torn write): caught at metadata cost by the length check.
		dir2 := RankDir("job", "jit", 2, 0)
		WriteRank(p, st, dir2, testState(2, 0, 5), 1<<20)
		raw, _ := st.Read(p, dir2+"/model.bin")
		st.Write(p, dir2+"/model.bin", raw[:len(raw)/2], 1<<19)
		if ValidDeep(p, st, dir2) {
			t.Error("truncated checkpoint passed validation")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMissingMetaMeansIncomplete(t *testing.T) {
	// A rank that died mid-save never wrote META: the checkpoint must be
	// treated as incomplete (the commit protocol of §3.2).
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", TmpfsParams())
	env.Go("w", func(p *vclock.Proc) {
		dir := RankDir("job", "jit", 1, 0)
		data, _ := testState(1, 0, 5).Encode()
		st.Write(p, dir+"/model.bin", data, 1<<20)
		if ValidDeep(p, st, dir) {
			t.Error("checkpoint without META passed validation")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAssemblePrefersReplicaWhenRankMissing(t *testing.T) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", TmpfsParams())
	topo := train.Topology{D: 2, P: 2, T: 1} // 4 ranks, positions p0/p1
	env.Go("w", func(p *vclock.Proc) {
		// Only d=1 replicas checkpointed (ranks 2 and 3) — say d=0's node
		// failed entirely.
		for _, r := range []int{2, 3} {
			WriteRank(p, st, RankDir("job", "jit", 5, r), testState(5, r, uint64(r)), 1<<20)
		}
		asm, err := assembleJIT(p, st, nil, topo, topo.World())
		if err != nil {
			t.Error(err)
			return
		}
		if asm.Iter != 5 {
			t.Errorf("iter = %d", asm.Iter)
		}
		// Rank 0 (d0,p0) must restore from rank 2's entry (d1,p0).
		if asm.For[0].Rank != 2 {
			t.Errorf("rank 0 restores from %s", asm.For[0].Desc)
		}
		if asm.For[1].Rank != 3 {
			t.Errorf("rank 1 restores from %s", asm.For[1].Desc)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleSkipsCorruptAndUsesNewestComplete(t *testing.T) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", TmpfsParams())
	topo := train.Topology{D: 2, P: 1, T: 1}
	env.Go("w", func(p *vclock.Proc) {
		// Iter 3: both ranks valid.
		WriteRank(p, st, RankDir("job", "jit", 3, 0), testState(3, 0, 1), 1<<20)
		WriteRank(p, st, RankDir("job", "jit", 3, 1), testState(3, 1, 2), 1<<20)
		// Iter 4: rank 0 died mid-save (no META), rank 1 valid -> position
		// still covered by rank 1, so iter 4 assembles with rank 1's copy
		// serving both ranks.
		WriteRank(p, st, RankDir("job", "jit", 4, 0), testState(4, 0, 3), 1<<20)
		WriteRank(p, st, RankDir("job", "jit", 4, 1), testState(4, 1, 4), 1<<20)
		st.Delete(RankDir("job", "jit", 4, 0) + "/META")
		asm, err := assembleJIT(p, st, nil, topo, topo.World())
		if err != nil {
			t.Error(err)
			return
		}
		if asm.Iter != 4 {
			t.Errorf("iter = %d, want 4", asm.Iter)
		}
		if asm.For[0].Rank != 1 {
			t.Errorf("rank 0 should use replica: %s", asm.For[0].Desc)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleFailsWhenPositionUncovered(t *testing.T) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", TmpfsParams())
	topo := train.Topology{D: 1, P: 2, T: 1}
	env.Go("w", func(p *vclock.Proc) {
		// Only stage 0 checkpointed; stage 1 missing entirely.
		WriteRank(p, st, RankDir("job", "jit", 2, 0), testState(2, 0, 1), 1<<20)
		if _, err := assembleJIT(p, st, nil, topo, topo.World()); !errors.Is(err, ErrUnassembled) {
			t.Errorf("err = %v, want unassembled", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleFSDPPositionsIncludeShardSlot(t *testing.T) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", TmpfsParams())
	topo := train.Topology{D: 4, P: 1, T: 1, FSDPShard: 2}
	env.Go("w", func(p *vclock.Proc) {
		// Only group 1 (ranks 2, 3) checkpointed.
		WriteRank(p, st, RankDir("job", "jit", 9, 2), testState(9, 2, 1), 1<<20)
		WriteRank(p, st, RankDir("job", "jit", 9, 3), testState(9, 3, 2), 1<<20)
		asm, err := assembleJIT(p, st, nil, topo, topo.World())
		if err != nil {
			t.Error(err)
			return
		}
		// Rank 0 is shard slot 0 -> restore from rank 2 (same slot).
		if asm.For[0].Rank != 2 {
			t.Errorf("rank 0 restores from %s", asm.For[0].Desc)
		}
		if asm.For[1].Rank != 3 {
			t.Errorf("rank 1 restores from %s", asm.For[1].Desc)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// periodicRig builds a one-rank training worker plus stores.
type periodicRig struct {
	env  *vclock.Env
	w    *train.Worker
	disk *Store
	mem  *Store
}

func newPeriodicRig(t *testing.T) *periodicRig {
	t.Helper()
	env := vclock.NewEnv(1)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	dev := gpu.NewDevice(env, 0, 0, 1<<36)
	drv, err := cuda.NewDriver(dev, engine, train.Kernels(), cuda.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	w, err := train.NewWorker(train.Config{
		Name: "w0", JobKey: "job", Rank: 0,
		Topo:  train.Topology{D: 1, P: 1, T: 1},
		Model: train.ModelSpec{Layers: 2, Hidden: 8, Seed: 42, ParamBytesPerGPU: 10 << 30, OptBytesPerGPU: 20 << 30},
		Opt:   train.DefaultOptimizer(),
		Step:  train.Uniform(vclock.Seconds(0.5), 2),
		API:   drv, DataSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &periodicRig{
		env:  env,
		w:    w,
		disk: NewStore(env, "disk", DiskParams()),
		mem:  NewStore(env, "tmpfs", TmpfsParams()),
	}
}

func runPolicy(t *testing.T, kind PeriodicKind) (stall vclock.Time, wall vclock.Time) {
	t.Helper()
	r := newPeriodicRig(t)
	saves := 0
	pc := &Periodic{
		Kind: kind, Interval: vclock.Seconds(1), Disk: r.disk, Mem: r.mem,
		Job: "job",
	}
	r.env.Go("worker", func(p *vclock.Proc) {
		if err := r.w.Setup(p, 0); err != nil {
			t.Error(err)
			return
		}
		start := p.Now()
		for i := 0; i < 6; i++ {
			if _, err := r.w.RunIter(p); err != nil {
				t.Error(err)
				return
			}
			if pc.Due(p.Now()) {
				st, err := pc.Run(p, r.w)
				if err != nil {
					t.Error(err)
					return
				}
				stall += st
				saves++
			}
		}
		wall = p.Now() - start
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if saves == 0 {
		t.Fatal("no checkpoints taken")
	}
	return stall / vclock.Time(saves), wall
}

func TestPeriodicPolicyStallOrdering(t *testing.T) {
	// 30 GB of state: PC_disk pays PCIe + disk write; PC_mem pays PCIe +
	// tmpfs; CheckFreq hides half the copy. Stalls must order
	// PC_disk > PC_mem > CheckFreq.
	disk, _ := runPolicy(t, PCDisk)
	mem, _ := runPolicy(t, PCMem)
	cf, _ := runPolicy(t, CheckFreq)
	if !(disk > mem && mem > cf && cf > 0) {
		t.Fatalf("stall ordering violated: disk=%v mem=%v checkfreq=%v", disk, mem, cf)
	}
}

func TestPCMemDrainsToDiskAsync(t *testing.T) {
	r := newPeriodicRig(t)
	pc := &Periodic{Kind: PCMem, Interval: vclock.Seconds(1), Disk: r.disk, Mem: r.mem, Job: "job"}
	r.env.Go("worker", func(p *vclock.Proc) {
		if err := r.w.Setup(p, 0); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 3; i++ {
			r.w.RunIter(p)
			if pc.Due(p.Now()) {
				pc.Run(p, r.w)
			}
		}
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.disk.List("job/")) == 0 {
		t.Fatal("async drain never reached the persistent store")
	}
	// Drained copy must be valid.
	env2 := vclock.NewEnv(2)
	_ = env2
	dirs := r.disk.List("job/")
	if len(dirs)%2 != 0 {
		t.Fatalf("odd object count on disk: %v", dirs)
	}
}

func TestDueRespectsInterval(t *testing.T) {
	pc := &Periodic{Kind: PCDisk, Interval: vclock.Seconds(10)}
	if pc.Due(vclock.Seconds(5)) {
		t.Fatal("due too early")
	}
	if !pc.Due(vclock.Seconds(10)) {
		t.Fatal("not due at interval")
	}
	pc.everRan = true
	pc.last = vclock.Seconds(10)
	if pc.Due(vclock.Seconds(15)) || !pc.Due(vclock.Seconds(20)) {
		t.Fatal("interval tracking wrong after first checkpoint")
	}
	if (&Periodic{Kind: PCDisk}).Due(vclock.Hour) {
		t.Fatal("zero interval must never be due")
	}
}

// Property: every directory RankDir prints, the walk reads back.
func TestRankDirRoundTripProperty(t *testing.T) {
	f := func(iterRaw uint32, rankRaw uint16) bool {
		iter, rank := int(iterRaw), int(rankRaw)
		dir := RankDir("some/job", "jit", iter, rank)
		e, ok := parseEntry(dir, "iter")
		return ok && e == Entry{Iter: iter, Rank: rank, Dir: dir}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-byte corruption of the data object is caught when
// the checkpoint is read.
func TestCorruptionAlwaysDetectedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		env := vclock.NewEnv(int64(seed%1000) + 1)
		st := NewStore(env, "d", TmpfsParams())
		ok := true
		env.Go("w", func(p *vclock.Proc) {
			// A damaged data object and a damaged metadata object are both
			// ErrCorrupt, for a whole-rank entry and for a stripe fragment.
			for i, object := range []string{"/model.bin", "/META"} {
				dir := RankDir("j", "jit", i, 0)
				WriteRank(p, st, dir, testState(i, 0, seed), 1<<10)
				st.Corrupt(dir + object)
				if _, err := ReadRank(p, st, dir); !errors.Is(err, ErrCorrupt) || ValidDeep(p, st, dir) {
					ok = false
				}
			}
			frag := []byte(fmt.Sprintf("fragment %d", seed))
			for i, path := range []func(string, int) string{FragPath, FragMetaPath} {
				dir := RankDir("j", "peer", i, 0)
				WriteFrag(p, st, dir, FragMeta{Iter: i, Frag: 1, K: 2, M: 1, DataSum: uint32(seed), FragSum: Sum(frag)}, frag, 1<<10)
				st.Corrupt(path(dir, 1))
				if _, _, err := ReadFrag(p, st, dir, 1); !errors.Is(err, ErrCorrupt) || ValidFragDeep(p, st, dir, 1) {
					ok = false
				}
			}
		})
		if err := env.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicKindStrings(t *testing.T) {
	for k, want := range map[PeriodicKind]string{
		PCDisk: "PC_disk", PCMem: "PC_mem", CheckFreq: "CheckFreq", PCDaily: "PC_1/day",
	} {
		if k.String() != want {
			t.Errorf("%d String = %q, want %q", k, k.String(), want)
		}
	}
}

// benchState is a state the size the repo benchmark's rank_io probe
// writes (4 layers × {param, adam m, adam v} of 128² floats): 768 KiB.
func benchState() *train.ModelState {
	v := tensor.NewVector(12 * 128 * 128)
	tensor.NewRNG(1).FillUniform(v, 1)
	return &train.ModelState{Iter: 7, Tensors: map[string]tensor.Vector{"param.L0.w#0": v}}
}

func BenchmarkSum(b *testing.B) {
	data, err := benchState().Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	var sum uint32
	for i := 0; i < b.N; i++ {
		sum ^= Sum(data)
	}
	_ = sum
}

// BenchmarkWriteRank times the whole rank save — encode, Sum, META; the
// store keeps the encoding as written — over one entry rewritten in place,
// in payload bytes.
func BenchmarkWriteRank(b *testing.B) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", TmpfsParams())
	ms := benchState()
	data, err := ms.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	env.Go("w", func(p *vclock.Proc) {
		for i := 0; i < b.N; i++ {
			if err := WriteRank(p, st, RankDir("j", "jit", 0, 0), ms, 1<<20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAssemble(b *testing.B) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", TmpfsParams())
	topo := train.Topology{D: 4, P: 2, T: 1}
	env.Go("seed", func(p *vclock.Proc) {
		for it := 0; it < 4; it++ {
			for r := 0; r < topo.World(); r++ {
				WriteRank(p, st, RankDir("j", "jit", it, r), testState(it, r, uint64(r)), 1<<10)
			}
		}
		for i := 0; i < b.N; i++ {
			if _, err := AssembleRestore(p, StoreCandidates(st, "j", "jit"), topo, topo.World()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

var _ = fmt.Sprintf
