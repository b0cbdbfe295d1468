package replay

import (
	"testing"
	"testing/quick"

	"jitckpt/internal/cuda"
	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/vclock"
)

func TestStartMinibatchFoldsCreations(t *testing.T) {
	l := NewLog()
	l.Record(Call{Call: cuda.Call{Op: cuda.OpMalloc, Bytes: 64}, Created: 1})
	l.Record(Call{Call: cuda.Call{Op: cuda.OpStreamCreate}, Created: 2})
	l.Record(Call{Call: cuda.Call{Op: cuda.OpLaunch, Launch: cuda.LaunchParams{Kernel: "k"}}})
	l.StartMinibatch(1)
	if len(l.Minibatch) != 0 {
		t.Fatalf("minibatch log not cleared: %d", len(l.Minibatch))
	}
	if len(l.Creation) != 2 {
		t.Fatalf("creation log = %d entries, want 2", len(l.Creation))
	}
	// A destruction inside the next minibatch removes the creation record.
	l.Record(Call{Call: cuda.Call{Op: cuda.OpFree, Buf: 1}})
	l.StartMinibatch(2)
	if len(l.Creation) != 1 || l.Creation[0].Op != cuda.OpStreamCreate {
		t.Fatalf("creation log after free = %+v", l.Creation)
	}
}

func TestRecordStampsIteration(t *testing.T) {
	l := NewLog()
	l.StartMinibatch(7)
	l.Record(Call{Call: cuda.Call{Op: cuda.OpLaunch}})
	if l.Minibatch[0].Iter != 7 {
		t.Fatalf("iter = %d", l.Minibatch[0].Iter)
	}
}

// recordingDriver drives a real local Driver while recording, then replays
// onto a fresh driver and compares buffer contents.
func TestReplayReproducesState(t *testing.T) {
	kernels := cuda.Registry{
		"axpy": func(a cuda.KernelArgs) error {
			a.Bufs[0].AXPY(a.FArgs[0], a.Bufs[1])
			return nil
		},
	}
	env := vclock.NewEnv(1)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	dev := gpu.NewDevice(env, 0, 0, 1<<30)
	drv, err := cuda.NewDriver(dev, engine, kernels, cuda.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	log := NewLog()
	var origSum, replaySum uint64
	env.Go("record-and-replay", func(p *vclock.Proc) {
		// --- Original execution, recorded. ---
		w, _ := drv.Malloc(p, 64, 3, "w")
		log.Record(Call{Call: cuda.Call{Op: cuda.OpMalloc, Bytes: 64, Elems: 3, Tag: "w"}, Created: int(w)})
		g, _ := drv.Malloc(p, 64, 3, "g")
		log.Record(Call{Call: cuda.Call{Op: cuda.OpMalloc, Bytes: 64, Elems: 3, Tag: "g"}, Created: int(g)})
		log.StartMinibatch(1)

		drv.MemcpyH2D(p, w, []float32{1, 2, 3}, cuda.DefaultStream)
		log.Record(Call{Call: cuda.Call{Op: cuda.OpMemcpyH2D, Buf: w, Data: []float32{1, 2, 3}}})
		drv.MemcpyH2D(p, g, []float32{10, 10, 10}, cuda.DefaultStream)
		log.Record(Call{Call: cuda.Call{Op: cuda.OpMemcpyH2D, Buf: g, Data: []float32{10, 10, 10}}})
		lp := cuda.LaunchParams{Kernel: "axpy", Dur: vclock.Millisecond, Bufs: []cuda.Buf{w, g}, FArgs: []float32{0.5}}
		drv.Launch(p, lp, cuda.DefaultStream)
		log.Record(Call{Call: cuda.Call{Op: cuda.OpLaunch, Launch: lp}})
		drv.StreamSynchronize(p, cuda.DefaultStream)
		origSum, _ = drv.BufChecksum(p, w)

		// --- Replay onto a fresh driver on a fresh device. ---
		dev2 := gpu.NewDevice(env, 0, 1, 1<<30)
		drv2, err := cuda.NewDriver(dev2, engine, kernels, cuda.DefaultParams())
		if err != nil {
			t.Error(err)
			return
		}
		tr := cuda.NewHandles()
		if err := Apply(p, drv2, log.Creation, tr, Options{}); err != nil {
			t.Error(err)
			return
		}
		if err := Apply(p, drv2, log.Minibatch, tr, Options{}); err != nil {
			t.Error(err)
			return
		}
		drv2.StreamSynchronize(p, cuda.DefaultStream)
		replaySum, _ = drv2.BufChecksum(p, tr.Bufs[w])
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if origSum == 0 || origSum != replaySum {
		t.Fatalf("replayed checksum %#x != original %#x", replaySum, origSum)
	}
}

func TestReplayTranslatesStreamsAndEvents(t *testing.T) {
	env := vclock.NewEnv(1)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	kernels := cuda.Registry{"nop": func(cuda.KernelArgs) error { return nil }}
	dev := gpu.NewDevice(env, 0, 0, 1<<30)
	drv, _ := cuda.NewDriver(dev, engine, kernels, cuda.DefaultParams())
	env.Go("w", func(p *vclock.Proc) {
		// Record a creation log with a stream and event, plus a minibatch
		// using them; replay must rewire handles.
		log := NewLog()
		s, _ := drv.StreamCreate(p)
		log.Record(Call{Call: cuda.Call{Op: cuda.OpStreamCreate}, Created: int(s)})
		ev, _ := drv.EventCreate(p)
		log.Record(Call{Call: cuda.Call{Op: cuda.OpEventCreate}, Created: int(ev)})
		log.StartMinibatch(1)
		log.Record(Call{Call: cuda.Call{Op: cuda.OpLaunch, Launch: cuda.LaunchParams{Kernel: "nop", Dur: vclock.Millisecond}, Stream: s}})
		log.Record(Call{Call: cuda.Call{Op: cuda.OpEventRecord, Event: ev, Stream: s}})
		log.Record(Call{Call: cuda.Call{Op: cuda.OpStreamWaitEvent, Stream: cuda.DefaultStream, Event: ev}})

		dev2 := gpu.NewDevice(env, 0, 1, 1<<30)
		drv2, _ := cuda.NewDriver(dev2, engine, kernels, cuda.DefaultParams())
		tr := cuda.NewHandles()
		if err := Apply(p, drv2, log.Creation, tr, Options{}); err != nil {
			t.Error(err)
			return
		}
		if err := Apply(p, drv2, log.Minibatch, tr, Options{}); err != nil {
			t.Error(err)
			return
		}
		if _, ok := tr.Streams[s]; !ok {
			t.Error("stream handle mapping missing after replay")
		}
		if _, ok := tr.Events[ev]; !ok {
			t.Error("event handle mapping missing after replay")
		}
		if err := drv2.DeviceSynchronize(p); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayGenOverrideForCommInit(t *testing.T) {
	env := vclock.NewEnv(1)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	dev := gpu.NewDevice(env, 0, 0, 1<<30)
	drv, _ := cuda.NewDriver(dev, engine, nil, cuda.DefaultParams())
	var gens []int
	engine.SetOnCommInit(func(_ string, gen, _ int) { gens = append(gens, gen) })
	env.Go("w", func(p *vclock.Proc) {
		calls := []Call{{Call: cuda.Call{Op: cuda.OpCommInit, Key: "dp", Gen: 0, NRanks: 1, Rank: 0}, Created: 1}}
		tr := cuda.NewHandles()
		if err := Apply(p, drv, calls, tr, Options{Gen: 5}); err != nil {
			t.Error(err)
		}
		if tr.Comms[1] == 0 {
			t.Error("comm handle not mapped")
		}
		// Gen 0 keeps the recorded generation.
		if err := Apply(p, drv, calls, cuda.NewHandles(), Options{}); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 5 || gens[1] != 0 {
		t.Fatalf("comm-init generations = %v, want [5 0]", gens)
	}
}

func TestApplyStopsAtFirstError(t *testing.T) {
	env := vclock.NewEnv(1)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	dev := gpu.NewDevice(env, 0, 0, 1<<30)
	drv, _ := cuda.NewDriver(dev, engine, nil, cuda.DefaultParams())
	env.Go("w", func(p *vclock.Proc) {
		calls := []Call{
			{Call: cuda.Call{Op: cuda.OpFree, Buf: 99}}, // bad handle
			{Call: cuda.Call{Op: cuda.OpMalloc, Bytes: 64}, Created: 1},
		}
		tr := cuda.NewHandles()
		if err := Apply(p, drv, calls, tr, Options{}); err == nil {
			t.Error("expected error from bad free")
		}
		if _, ok := tr.Bufs[1]; ok {
			t.Error("apply continued past failing call")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: folding semantics — after any sequence of create/destroy pairs
// within minibatches, the creation log contains exactly the live objects.
func TestCreationLogTracksLiveObjectsProperty(t *testing.T) {
	f := func(ops []bool) bool {
		l := NewLog()
		live := map[cuda.Buf]bool{}
		next := cuda.Buf(1)
		var order []cuda.Buf
		for i, create := range ops {
			if create || len(order) == 0 {
				l.Record(Call{Call: cuda.Call{Op: cuda.OpMalloc}, Created: int(next)})
				live[next] = true
				order = append(order, next)
				next++
			} else {
				victim := order[0]
				order = order[1:]
				l.Record(Call{Call: cuda.Call{Op: cuda.OpFree, Buf: victim}})
				delete(live, victim)
			}
			if i%3 == 2 {
				l.StartMinibatch(i)
			}
		}
		l.StartMinibatch(len(ops))
		if len(l.Creation) != len(live) {
			return false
		}
		for _, c := range l.Creation {
			if !live[cuda.Buf(c.Created)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecord(b *testing.B) {
	l := NewLog()
	c := Call{Call: cuda.Call{Op: cuda.OpLaunch, Launch: cuda.LaunchParams{Kernel: "fwd", Bufs: []cuda.Buf{1, 2, 3}}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Record(c)
		if i%1024 == 1023 {
			l.StartMinibatch(i)
		}
	}
}
