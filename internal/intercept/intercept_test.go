package intercept

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"jitckpt/internal/cuda"
	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/proxy"
	"jitckpt/internal/replay"
	"jitckpt/internal/tensor"
	"jitckpt/internal/vclock"
)

type rig struct {
	env    *vclock.Env
	dev    *gpu.Device
	engine *nccl.Engine
	drv    *cuda.Driver
	layer  *Layer
	faults []Fault
}

func defaultKernels() cuda.Registry {
	return cuda.Registry{
		"nop":  func(cuda.KernelArgs) error { return nil },
		"add1": func(a cuda.KernelArgs) error { a.Bufs[0].AXPY(1, a.Bufs[1]); return nil },
		"set": func(a cuda.KernelArgs) error {
			for i := range a.Bufs[0] {
				a.Bufs[0][i] = a.FArgs[0]
			}
			return nil
		},
	}
}

func newRig(t testing.TB, cfg Config) *rig {
	t.Helper()
	env := vclock.NewEnv(1)
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	drv, err := cuda.NewDriver(dev, engine, defaultKernels(), cuda.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{env: env, dev: dev, engine: engine, drv: drv}
	if cfg.OnFault == nil {
		cfg.OnFault = func(_ *vclock.Proc, f Fault) { r.faults = append(r.faults, f) }
	}
	r.layer = New(env, drv, "rank0", cfg)
	return r
}

// run executes body bounded by a one-hour virtual horizon: the watchdog
// process never exits on its own, so unbounded Run would spin forever.
func (r *rig) run(t *testing.T, body func(p *vclock.Proc)) {
	t.Helper()
	r.env.Go("worker", body)
	if err := r.env.RunUntil(vclock.Hour); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualHandleRoundTrip(t *testing.T) {
	r := newRig(t, Config{Mode: ModeTransparent})
	r.run(t, func(p *vclock.Proc) {
		b, err := r.layer.Malloc(p, 64, 2, "w")
		if err != nil {
			t.Error(err)
			return
		}
		r.layer.MemcpyH2D(p, b, []float32{4, 5}, cuda.DefaultStream)
		got, err := r.layer.MemcpyD2H(p, b, cuda.DefaultStream)
		if err != nil {
			t.Error(err)
			return
		}
		if !tensor.Vector(got).Equal(tensor.Vector{4, 5}) {
			t.Errorf("round trip = %v", got)
		}
	})
}

func TestLayerOwnsTagSequence(t *testing.T) {
	r := newRig(t, Config{Mode: ModeTransparent})
	r.run(t, func(p *vclock.Proc) {
		a, _ := r.layer.Malloc(p, 8, 1, "layer.w")
		b, _ := r.layer.Malloc(p, 8, 1, "layer.w")
		ma, mb := r.layer.bufMeta[a], r.layer.bufMeta[b]
		if ma.Seq != 0 || mb.Seq != 1 {
			t.Errorf("seqs = %d, %d", ma.Seq, mb.Seq)
		}
	})
}

// TestVirtualBufsListsLiveSet: the layer's buffer list is the live set in
// creation order under its own names, whatever the driver calls them.
func TestVirtualBufsListsLiveSet(t *testing.T) {
	r := newRig(t, Config{Mode: ModeTransparent})
	r.run(t, func(p *vclock.Proc) {
		b1, _ := r.layer.Malloc(p, 128, 2, "param.w")
		r.layer.Malloc(p, 256, 2, "param.w")
		r.layer.Malloc(p, 64, 1, "act")
		infos := r.layer.VirtualBufs()
		if len(infos) != 3 {
			t.Errorf("VirtualBufs len = %d", len(infos))
			return
		}
		if infos[0].Tag != "param.w" || infos[0].Seq != 0 || infos[1].Seq != 1 || infos[1].Bytes != 256 || infos[2].Elems != 1 {
			t.Errorf("tag/seq/size wrong: %+v", infos)
		}
		r.layer.Free(p, b1)
		if infos = r.layer.VirtualBufs(); len(infos) != 2 || infos[0].Seq != 1 || infos[1].Tag != "act" {
			t.Errorf("after a free: %+v", infos)
		}
	})
}

func TestReplayLogRecordsAndRollsOver(t *testing.T) {
	r := newRig(t, Config{Mode: ModeTransparent})
	r.run(t, func(p *vclock.Proc) {
		b, _ := r.layer.Malloc(p, 64, 2, "w")
		r.layer.StartMinibatch(1)
		r.layer.MemcpyH2D(p, b, []float32{1, 2}, cuda.DefaultStream)
		r.layer.Launch(p, cuda.LaunchParams{Kernel: "nop", Dur: vclock.Millisecond}, cuda.DefaultStream)
		if got := len(r.layer.Log().Minibatch); got != 2 {
			t.Errorf("minibatch log = %d calls, want 2", got)
		}
		if got := len(r.layer.Log().Creation); got != 1 {
			t.Errorf("creation log = %d calls, want 1 (the Malloc)", got)
		}
		r.layer.StartMinibatch(2)
		if got := len(r.layer.Log().Minibatch); got != 0 {
			t.Errorf("minibatch log not cleared: %d", got)
		}
	})
}

// TestReplayLogImmuneToArgReuse pins a latent aliasing bug: the replay log
// outlives each Launch call, but it used to retain the caller's argument
// slices by reference. A worker reusing one LaunchParams value across
// iterations (mutating only the learning rate, say) would silently rewrite
// every previously recorded call, corrupting the minibatch log that
// transparent recovery replays. The intercept layer must capture the
// slices at record time.
func TestReplayLogImmuneToArgReuse(t *testing.T) {
	r := newRig(t, Config{Mode: ModeTransparent})
	r.run(t, func(p *vclock.Proc) {
		b, _ := r.layer.Malloc(p, 64, 2, "w")
		b2, _ := r.layer.Malloc(p, 64, 2, "w2")
		r.layer.StartMinibatch(1)
		lp := cuda.LaunchParams{
			Kernel: "set", Dur: vclock.Millisecond,
			Bufs:  []cuda.Buf{b},
			IArgs: []int64{1},
			FArgs: []float32{10},
		}
		if err := r.layer.Launch(p, lp, cuda.DefaultStream); err != nil {
			t.Fatal(err)
		}
		// The caller reuses its slices for the next launch.
		lp.IArgs[0] = 2
		lp.FArgs[0] = 20
		lp.Bufs[0] = b2
		if err := r.layer.Launch(p, lp, cuda.DefaultStream); err != nil {
			t.Fatal(err)
		}
		log := r.layer.Log().Minibatch
		if len(log) == 0 {
			t.Fatal("nothing recorded")
		}
		first := log[0].Launch
		if first.IArgs[0] != 1 || first.FArgs[0] != 10 || first.Bufs[0] != b {
			t.Errorf("recorded call mutated by caller slice reuse: IArgs=%v FArgs=%v Bufs=%v, want [1] [10] [%v]",
				first.IArgs, first.FArgs, first.Bufs, b)
		}
	})
}

func TestUserLevelModeDoesNotLog(t *testing.T) {
	r := newRig(t, Config{Mode: ModeUserLevel})
	r.run(t, func(p *vclock.Proc) {
		b, _ := r.layer.Malloc(p, 64, 2, "w")
		r.layer.MemcpyH2D(p, b, []float32{1, 2}, cuda.DefaultStream)
		if log := r.layer.Log(); len(log.Creation)+len(log.Minibatch) != 0 {
			t.Errorf("user-level mode logged %d creation and %d minibatch calls", len(log.Creation), len(log.Minibatch))
		}
	})
}

// TestUserLevelH2DDoesNotCopyPayload: without replay logging nothing
// outlives the call, so the layer must not capture the host payload. It
// used to copy every H2D source for a record call that then dropped it —
// one payload-sized allocation per copy under every user-level policy.
func TestUserLevelH2DDoesNotCopyPayload(t *testing.T) {
	const elems = 1 << 18 // 1 MiB of float32
	src := make([]float32, elems)
	h2dAlloc := func(layered bool) uint64 {
		r := newRig(t, Config{Mode: ModeUserLevel})
		var api cuda.API = r.drv
		if layered {
			api = r.layer
		}
		var grew uint64
		r.run(t, func(p *vclock.Proc) {
			b, err := api.Malloc(p, 4*elems, elems, "w")
			if err != nil {
				t.Error(err)
				return
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := api.MemcpyH2D(p, b, src, cuda.DefaultStream); err != nil {
				t.Error(err)
			}
			runtime.ReadMemStats(&after)
			grew = after.TotalAlloc - before.TotalAlloc
		})
		return grew
	}
	bare, layered := h2dAlloc(false), h2dAlloc(true)
	if layered >= bare+4*elems {
		t.Errorf("1 MiB MemcpyH2D allocated %d bytes through the layer vs %d on the bare driver: the payload was copied", layered, bare)
	}
}

func TestNCCLStreamDiscoveryAndWatchList(t *testing.T) {
	// Figure 3 wiring: the layer must identify the comm stream from the
	// AllReduce, then watch the event recorded on it once a
	// StreamWaitEvent waits for it.
	r := newRig(t, Config{Mode: ModeTransparent, HangTimeout: vclock.Minute})
	r.env.Go("peer", func(p *vclock.Proc) {
		r.engine.CommInitRank(p, "dp", 0, 2, 1, nil)
	})
	r.run(t, func(p *vclock.Proc) {
		comm, err := r.layer.CommInit(p, "dp", 0, 2, 0)
		if err != nil {
			t.Error(err)
			return
		}
		compute, _ := r.layer.StreamCreate(p)
		comms, _ := r.layer.StreamCreate(p)
		grads, _ := r.layer.Malloc(p, 1<<20, 2, "g")

		r.layer.AllReduce(p, comm, grads, comms)
		if got := r.layer.ncclStreams; len(got) != 1 || !got[comms] {
			t.Errorf("NCCL streams = %v, want only %v", got, comms)
		}
		ev, _ := r.layer.EventCreate(p)
		r.layer.EventRecord(p, ev, comms)
		if len(r.layer.WatchedEvents()) != 0 {
			t.Error("event watched before any StreamWaitEvent")
		}
		r.layer.StreamWaitEvent(p, compute, ev)
		if got := r.layer.WatchedEvents(); len(got) != 1 || got[0] != ev {
			t.Errorf("watch list = %v, want [%v]", got, ev)
		}
		if r.layer.watchdogProc == nil {
			t.Error("watchdog not started at first StreamWaitEvent")
		}
	})
}

func TestEventsOnComputeStreamNotWatched(t *testing.T) {
	r := newRig(t, Config{Mode: ModeTransparent})
	r.run(t, func(p *vclock.Proc) {
		s1, _ := r.layer.StreamCreate(p)
		s2, _ := r.layer.StreamCreate(p)
		ev, _ := r.layer.EventCreate(p)
		r.layer.Launch(p, cuda.LaunchParams{Kernel: "nop", Dur: vclock.Millisecond}, s1)
		r.layer.EventRecord(p, ev, s1)
		r.layer.StreamWaitEvent(p, s2, ev)
		if len(r.layer.WatchedEvents()) != 0 {
			t.Error("compute-stream event should not be watched")
		}
	})
}

func TestWatchdogDetectsCollectiveHang(t *testing.T) {
	r := newRig(t, Config{Mode: ModeTransparent, HangTimeout: vclock.Seconds(10)})
	r.env.Go("peer", func(p *vclock.Proc) {
		// Joins the rendezvous, never issues its collective.
		r.engine.CommInitRank(p, "dp", 0, 2, 1, nil)
	})
	r.env.Go("worker", func(p *vclock.Proc) {
		comm, err := r.layer.CommInit(p, "dp", 0, 2, 0)
		if err != nil {
			t.Error(err)
			return
		}
		compute, _ := r.layer.StreamCreate(p)
		comms, _ := r.layer.StreamCreate(p)
		grads, _ := r.layer.Malloc(p, 1<<20, 2, "g")
		r.layer.AllReduce(p, comm, grads, comms)
		ev, _ := r.layer.EventCreate(p)
		r.layer.EventRecord(p, ev, comms)
		r.layer.StreamWaitEvent(p, compute, ev)
	})
	if err := r.env.RunUntil(vclock.Minute); err != nil {
		t.Fatal(err)
	}
	if len(r.faults) != 1 || r.faults[0].Kind != FaultHang {
		t.Fatalf("faults = %+v, want one hang", r.faults)
	}
}

func TestWatchdogQuietWhenCollectivesComplete(t *testing.T) {
	r := newRig(t, Config{Mode: ModeTransparent, HangTimeout: vclock.Seconds(5)})
	var done [2]bool
	for rank := 0; rank < 2; rank++ {
		rank := rank
		r.env.Go(fmt.Sprintf("rank%d", rank), func(p *vclock.Proc) {
			var api cuda.API
			if rank == 0 {
				api = r.layer
			} else {
				dev := gpu.NewDevice(r.env, 0, 1, 1<<34)
				drv, err := cuda.NewDriver(dev, r.engine, defaultKernels(), cuda.DefaultParams())
				if err != nil {
					t.Error(err)
					return
				}
				api = drv
			}
			comm, err := api.CommInit(p, "dp", 0, 2, rank)
			if err != nil {
				t.Error(err)
				return
			}
			compute, _ := api.StreamCreate(p)
			comms, _ := api.StreamCreate(p)
			grads, _ := api.Malloc(p, 1<<20, 2, "g")
			for i := 0; i < 5; i++ {
				api.AllReduce(p, comm, grads, comms)
				ev, _ := api.EventCreate(p)
				api.EventRecord(p, ev, comms)
				api.StreamWaitEvent(p, compute, ev)
				api.StreamSynchronize(p, compute)
				p.Sleep(vclock.Seconds(2))
			}
			done[rank] = true
		})
	}
	if err := r.env.RunUntil(vclock.Minute); err != nil {
		t.Fatal(err)
	}
	if !done[0] || !done[1] {
		t.Fatalf("ranks did not finish: %v", done)
	}
	if len(r.faults) != 0 {
		t.Fatalf("spurious faults: %+v", r.faults)
	}
	if got := len(r.layer.WatchedEvents()); got != 0 {
		t.Fatalf("watch list should be drained, has %d", got)
	}
}

func TestWatchdogDetectsHungBlockingCall(t *testing.T) {
	r := newRig(t, Config{Mode: ModeTransparent, HangTimeout: vclock.Seconds(10)})
	r.env.Go("peer", func(p *vclock.Proc) {
		r.engine.CommInitRank(p, "dp", 0, 2, 1, nil)
	})
	r.env.Go("worker", func(p *vclock.Proc) {
		comm, _ := r.layer.CommInit(p, "dp", 0, 2, 0)
		comms, _ := r.layer.StreamCreate(p)
		grads, _ := r.layer.Malloc(p, 1<<20, 2, "g")
		r.layer.AllReduce(p, comm, grads, comms)
		// Hangs: rank 1 never arrives. Watchdog must notice even though
		// no StreamWaitEvent/watch-list entry exists.
		r.layer.StreamSynchronize(p, comms)
	})
	// The watchdog only starts at the first StreamWaitEvent; trigger it
	// from a second thread with an innocuous wait.
	r.env.Go("warmup", func(p *vclock.Proc) {
		s, _ := r.layer.StreamCreate(p)
		ev, _ := r.layer.EventCreate(p)
		r.layer.EventRecord(p, ev, s)
		r.layer.StreamWaitEvent(p, s, ev)
	})
	if err := r.env.RunUntil(vclock.Minute); err != nil {
		t.Fatal(err)
	}
	if len(r.faults) != 1 || r.faults[0].Kind != FaultHang {
		t.Fatalf("faults = %+v, want one hang", r.faults)
	}
}

func TestTransparentModeMasksStickyError(t *testing.T) {
	// A sticky error must not surface: the calling thread parks, a
	// controller repairs the device, and the call retries successfully.
	r := newRig(t, Config{Mode: ModeTransparent})
	recoverDone := false
	r.layer.cfg.OnFault = func(_ *vclock.Proc, f Fault) {
		r.faults = append(r.faults, f)
		r.env.Go("controller", func(p *vclock.Proc) {
			r.layer.BeginRecovery()
			if err := r.dev.Reset(); err != nil {
				t.Error(err)
			}
			// Rebuild driver objects: re-create the default stream by
			// replaying the creation log onto a fresh driver.
			drv2, err := cuda.NewDriver(r.dev, r.engine, defaultKernels(), cuda.DefaultParams())
			if err != nil {
				t.Error(err)
				return
			}
			r.layer.inner = drv2
			tr := cuda.NewHandles()
			if err := replay.Apply(p, drv2, r.layer.Log().Creation, tr, replay.Options{}); err != nil {
				t.Error(err)
				return
			}
			if err := replay.Apply(p, drv2, r.layer.Log().Minibatch, tr, replay.Options{}); err != nil {
				t.Error(err)
				return
			}
			recoverDone = true
			r.layer.EndRecovery(tr)
		})
	}
	var got []float32
	r.run(t, func(p *vclock.Proc) {
		b, _ := r.layer.Malloc(p, 64, 2, "w")
		r.layer.StartMinibatch(1)
		r.layer.MemcpyH2D(p, b, []float32{1, 2}, cuda.DefaultStream)
		r.layer.StreamSynchronize(p, cuda.DefaultStream)
		r.dev.InjectSticky()
		// This call sees the sticky error, parks, and retries after the
		// controller's recovery. The application never sees an error.
		v, err := r.layer.MemcpyD2H(p, b, cuda.DefaultStream)
		if err != nil {
			t.Errorf("error leaked to application: %v", err)
			return
		}
		got = v
	})
	if !recoverDone {
		t.Fatal("recovery did not run")
	}
	if len(r.faults) != 1 || r.faults[0].Kind != FaultError {
		t.Fatalf("faults = %+v", r.faults)
	}
	if !tensor.Vector(got).Equal(tensor.Vector{1, 2}) {
		t.Fatalf("post-recovery read = %v, want [1 2]", got)
	}
}

func TestUserLevelModeSurfacesErrors(t *testing.T) {
	r := newRig(t, Config{Mode: ModeUserLevel})
	r.run(t, func(p *vclock.Proc) {
		r.dev.InjectSticky()
		if _, err := r.layer.Malloc(p, 64, 1, "x"); !errors.Is(err, gpu.ErrSticky) {
			t.Errorf("err = %v, want sticky to surface in user-level mode", err)
		}
	})
	if len(r.faults) != 1 {
		t.Fatalf("fault should still be reported: %+v", r.faults)
	}
}

func TestIgnoreMutationsUntilNextMinibatch(t *testing.T) {
	r := newRig(t, Config{Mode: ModeTransparent})
	r.run(t, func(p *vclock.Proc) {
		b, _ := r.layer.Malloc(p, 64, 2, "w")
		r.layer.MemcpyH2D(p, b, []float32{1, 1}, cuda.DefaultStream)
		r.layer.StreamSynchronize(p, cuda.DefaultStream)
		r.layer.StartMinibatch(1)
		r.layer.PreOptimizerStep()
		r.layer.IgnoreMutationsUntilNextMinibatch()
		// These mutations must be swallowed.
		if err := r.layer.MemcpyH2D(p, b, []float32{9, 9}, cuda.DefaultStream); err != nil {
			t.Error(err)
		}
		if err := r.layer.Launch(p, cuda.LaunchParams{Kernel: "set", Bufs: []cuda.Buf{b}, FArgs: []float32{7}}, cuda.DefaultStream); err != nil {
			t.Error(err)
		}
		r.layer.StartMinibatch(2)
		got, _ := r.layer.MemcpyD2H(p, b, cuda.DefaultStream)
		if !tensor.Vector(got).Equal(tensor.Vector{1, 1}) {
			t.Errorf("mutations leaked during ignore window: %v", got)
		}
		// After the boundary, mutations apply again.
		r.layer.MemcpyH2D(p, b, []float32{3, 3}, cuda.DefaultStream)
		got, _ = r.layer.MemcpyD2H(p, b, cuda.DefaultStream)
		if !tensor.Vector(got).Equal(tensor.Vector{3, 3}) {
			t.Errorf("post-window mutation missing: %v", got)
		}
	})
}

func TestCheckpointModeReroutesD2H(t *testing.T) {
	// Wedge the default stream behind an event that never fires, then
	// verify a checkpoint-mode D2H still completes (§3.2).
	r := newRig(t, Config{Mode: ModeUserLevel})
	r.env.Go("peer", func(p *vclock.Proc) {
		r.engine.CommInitRank(p, "dp", 0, 2, 1, nil)
	})
	var ckptData []float32
	r.env.Go("worker", func(p *vclock.Proc) {
		comm, _ := r.layer.CommInit(p, "dp", 0, 2, 0)
		comms, _ := r.layer.StreamCreate(p)
		params, _ := r.layer.Malloc(p, 64, 2, "params")
		grads, _ := r.layer.Malloc(p, 64, 2, "grads")
		r.layer.MemcpyH2D(p, params, []float32{8, 9}, cuda.DefaultStream)
		r.layer.StreamSynchronize(p, cuda.DefaultStream)

		r.layer.AllReduce(p, comm, grads, comms) // hangs: no peer
		ev, _ := r.layer.EventCreate(p)
		r.layer.EventRecord(p, ev, comms)
		r.layer.StreamWaitEvent(p, cuda.DefaultStream, ev) // wedges stream 0

		// Checkpoint thread: enter checkpoint mode, copy params out.
		if err := r.layer.EnterCheckpointMode(p); err != nil {
			t.Error(err)
			return
		}
		data, err := r.layer.MemcpyD2H(p, params, cuda.DefaultStream)
		if err != nil {
			t.Error(err)
			return
		}
		ckptData = data
		r.layer.ExitCheckpointMode()
	})
	if err := r.env.RunUntil(vclock.Minute); err != nil {
		t.Fatal(err)
	}
	if !tensor.Vector(ckptData).Equal(tensor.Vector{8, 9}) {
		t.Fatalf("checkpoint copy = %v, want [8 9]", ckptData)
	}
}

func TestValidateDetectsFaithfulLog(t *testing.T) {
	r := newRig(t, Config{Mode: ModeTransparent})
	r.run(t, func(p *vclock.Proc) {
		w, _ := r.layer.Malloc(p, 64, 3, "w")
		g, _ := r.layer.Malloc(p, 64, 3, "g")
		r.layer.MemcpyH2D(p, w, []float32{1, 2, 3}, cuda.DefaultStream)
		r.layer.StreamSynchronize(p, cuda.DefaultStream)
		r.layer.StartMinibatch(1)
		// Minibatch work: overwrite g then add it into... keep it
		// idempotent: g = 2.0; w unchanged by forward/backward analogue.
		r.layer.Launch(p, cuda.LaunchParams{Kernel: "set", Bufs: []cuda.Buf{g}, FArgs: []float32{2}}, cuda.DefaultStream)
		r.layer.StreamSynchronize(p, cuda.DefaultStream)
		res, err := r.layer.Validate(p)
		if err != nil {
			t.Error(err)
			return
		}
		if !res.OK {
			t.Errorf("validation failed: %+v", res)
		}
		if res.Buffers != 2 || res.CallCount != 1 {
			t.Errorf("unexpected counts: %+v", res)
		}
	})
}

func TestValidateCatchesImplicitInput(t *testing.T) {
	// A kernel that reads mutable host state bypassing the logged inputs
	// is exactly the "implicit input" §4.1 warns about: replay diverges
	// and validation must catch it.
	hidden := float32(1)
	kernels := defaultKernels()
	kernels["leaky"] = func(a cuda.KernelArgs) error {
		a.Bufs[0][0] += hidden
		hidden++ // state not captured by the replay log
		return nil
	}
	env := vclock.NewEnv(1)
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	drv, err := cuda.NewDriver(dev, engine, kernels, cuda.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	layer := New(env, drv, "rank0", Config{Mode: ModeTransparent})
	env.Go("worker", func(p *vclock.Proc) {
		b, _ := layer.Malloc(p, 64, 1, "x")
		layer.StartMinibatch(1)
		layer.Launch(p, cuda.LaunchParams{Kernel: "leaky", Bufs: []cuda.Buf{b}}, cuda.DefaultStream)
		layer.StreamSynchronize(p, cuda.DefaultStream)
		res, err := layer.Validate(p)
		if err != nil {
			t.Error(err)
			return
		}
		if res.OK {
			t.Error("validation passed despite implicit input")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEndRecoveryRemapsVirtualHandles(t *testing.T) {
	r := newRig(t, Config{Mode: ModeTransparent})
	r.run(t, func(p *vclock.Proc) {
		b, _ := r.layer.Malloc(p, 64, 2, "w")
		oldPhys, _ := cuda.Lookup(r.layer.Handles(), cuda.BufHandle, b)
		tr := r.layer.Handles().Clone()
		tr.Bind(cuda.BufHandle, int(b), int(oldPhys+100))
		r.layer.BeginRecovery()
		r.layer.EndRecovery(tr)
		newPhys, _ := cuda.Lookup(r.layer.Handles(), cuda.BufHandle, b)
		if newPhys != oldPhys+100 {
			t.Errorf("virtual %v maps to %v, want %v", b, newPhys, oldPhys+100)
		}
	})
}

func TestProxyBackedLayerSurvivesServerRestart(t *testing.T) {
	// Full transparent stack: layer -> proxy client -> server -> driver.
	// Inject driver corruption, restart the proxy, replay creation +
	// minibatch logs, remap; the application-level handle still works.
	env := vclock.NewEnv(1)
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	server, err := proxy.NewServer(env, dev, engine, defaultKernels(), cuda.DefaultParams(), proxy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	client := proxy.NewClient(env, server)
	var faults []Fault
	layer := New(env, client, "rank0", Config{Mode: ModeTransparent})
	layer.cfg.OnFault = func(_ *vclock.Proc, f Fault) { faults = append(faults, f) }

	env.Go("worker", func(p *vclock.Proc) {
		b, _ := layer.Malloc(p, 64, 2, "w")
		layer.StartMinibatch(1)
		layer.MemcpyH2D(p, b, []float32{6, 7}, cuda.DefaultStream)
		layer.StreamSynchronize(p, cuda.DefaultStream)

		// Recovery controller acting on driver corruption: restart the
		// proxy and rebuild state via replay.
		layer.BeginRecovery()
		dev.InjectDriverCorrupt()
		server.Stop()
		client.AbortPending()
		if err := server.Restart(); err != nil {
			t.Error(err)
			return
		}
		tr := cuda.NewHandles()
		if err := replay.Apply(p, client, layer.Log().Creation, tr, replay.Options{}); err != nil {
			t.Error(err)
			return
		}
		if err := replay.Apply(p, client, layer.Log().Minibatch, tr, replay.Options{}); err != nil {
			t.Error(err)
			return
		}
		layer.EndRecovery(tr)

		got, err := layer.MemcpyD2H(p, b, cuda.DefaultStream)
		if err != nil {
			t.Error(err)
			return
		}
		if !tensor.Vector(got).Equal(tensor.Vector{6, 7}) {
			t.Errorf("post-restart read = %v, want [6 7]", got)
		}
	})
	if err := env.RunUntil(vclock.Hour); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInterceptedLaunchOverhead(b *testing.B) {
	env := vclock.NewEnv(1)
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	drv, err := cuda.NewDriver(dev, engine, defaultKernels(), cuda.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	layer := New(env, drv, "rank0", Config{Mode: ModeTransparent})
	env.Go("worker", func(p *vclock.Proc) {
		buf, _ := layer.Malloc(p, 64, 2, "x")
		layer.StartMinibatch(0)
		for i := 0; i < b.N; i++ {
			layer.Launch(p, cuda.LaunchParams{Kernel: "nop", Dur: vclock.Microsecond, Bufs: []cuda.Buf{buf}}, cuda.DefaultStream)
			if i%1024 == 1023 {
				layer.StreamSynchronize(p, cuda.DefaultStream)
				layer.StartMinibatch(i)
			}
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// Property: for any alloc/free interleaving, the layer's virtual handle
// table stays consistent — live virtual buffers resolve to live physical
// buffers, VirtualBufs reflects exactly the live set, and tag sequence numbers
// never repeat.
func TestVirtualHandleTableProperty(t *testing.T) {
	f := func(ops []bool) bool {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		env := vclock.NewEnv(1)
		dev := gpu.NewDevice(env, 0, 0, 1<<34)
		engine := nccl.NewEngine(env, nccl.DefaultParams())
		drv, err := cuda.NewDriver(dev, engine, nil, cuda.DefaultParams())
		if err != nil {
			return false
		}
		layer := New(env, drv, "r", Config{Mode: ModeTransparent})
		ok := true
		env.Go("w", func(p *vclock.Proc) {
			var live []cuda.Buf
			seen := map[string]map[int]bool{}
			for i, alloc := range ops {
				if alloc || len(live) == 0 {
					tag := fmt.Sprintf("t%d", i%3)
					b, err := layer.Malloc(p, 64, 1, tag)
					if err != nil {
						ok = false
						return
					}
					meta, found := layer.bufMeta[b]
					if !found {
						ok = false
						return
					}
					if seen[tag] == nil {
						seen[tag] = map[int]bool{}
					}
					if seen[tag][meta.Seq] {
						ok = false // duplicate (tag, seq) name
						return
					}
					seen[tag][meta.Seq] = true
					live = append(live, b)
				} else {
					victim := live[0]
					live = live[1:]
					if err := layer.Free(p, victim); err != nil {
						ok = false
						return
					}
					if _, found := layer.bufMeta[victim]; found {
						ok = false // metadata survived the free
						return
					}
				}
				if infos := layer.VirtualBufs(); len(infos) != len(live) {
					ok = false
					return
				}
				for _, b := range live {
					if _, found := cuda.Lookup(layer.Handles(), cuda.BufHandle, b); !found {
						ok = false
						return
					}
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
