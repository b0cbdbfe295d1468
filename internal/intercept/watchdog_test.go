package intercept

import (
	"testing"

	"jitckpt/internal/cuda"
	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/proxy"
	"jitckpt/internal/tensor"
	"jitckpt/internal/vclock"
)

// slowPeer runs rank 1 on a raw driver, joining the rendezvous immediately
// but delaying its AllReduce by lag — a straggler, not a hang.
func (r *rig) slowPeer(t *testing.T, lag vclock.Time) {
	t.Helper()
	r.env.Go("peer", func(p *vclock.Proc) {
		dev := gpu.NewDevice(r.env, 0, 1, 1<<34)
		drv, err := cuda.NewDriver(dev, r.engine, defaultKernels(), cuda.DefaultParams())
		if err != nil {
			t.Error(err)
			return
		}
		comm, err := drv.CommInit(p, "dp", 0, 2, 1)
		if err != nil {
			t.Error(err)
			return
		}
		comms, _ := drv.StreamCreate(p)
		grads, _ := drv.Malloc(p, 1<<20, 2, "g")
		p.Sleep(lag)
		drv.AllReduce(p, comm, grads, comms)
		drv.StreamSynchronize(p, comms)
	})
}

// watchedAllReduce drives rank 0 through the layer: AllReduce on the comm
// stream, event recorded, StreamWaitEvent (arms the watchdog + watch-list),
// then StreamSynchronize so completion is observable.
func (r *rig) watchedAllReduce(t *testing.T, done *bool) {
	t.Helper()
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
		r.layer.StreamSynchronize(p, comms)
		if done != nil {
			*done = true
		}
	})
}

// TestFixedWatchdogTripsOnStraggler: the watchdog has one fixed timeout, so
// a collective that finishes late — past HangTimeout — is declared hung
// just like one that never finishes.
func TestFixedWatchdogTripsOnStraggler(t *testing.T) {
	r := newRig(t, Config{Mode: ModeTransparent, HangTimeout: vclock.Seconds(5)})
	r.slowPeer(t, vclock.Seconds(7))
	r.watchedAllReduce(t, nil)
	if err := r.env.RunUntil(vclock.Minute); err != nil {
		t.Fatal(err)
	}
	if len(r.faults) != 1 || r.faults[0].Kind != FaultHang {
		t.Fatalf("faults = %+v, want one hang", r.faults)
	}
}

// dispatchCensus is a recorder keeping each retired process's dispatches,
// by name: [callback, coroutine] (vclock.DispatchRecorder).
type dispatchCensus map[string][2]uint64

func (c dispatchCensus) ProcDispatches(_ int, name string, callback, coroutine uint64) {
	c[name] = [2]uint64{c[name][0] + callback, c[name][1] + coroutine}
}

// hungCollective starts rank 1 of a two-rank communicator, which joins and
// then never issues its collective, and returns rank 0's part, run through
// api: the communicator, an AllReduce that therefore never finishes, and n
// events recorded after it on the same stream, each waited on by the
// compute stream. Those n watched events stay pending; the part returns
// them.
func hungCollective(env *vclock.Env, engine *nccl.Engine, api cuda.API, n int) func(p *vclock.Proc) []cuda.Event {
	env.Go("peer", func(p *vclock.Proc) { engine.CommInitRank(p, "dp", 0, 2, 1, nil) })
	return func(p *vclock.Proc) []cuda.Event {
		comm, _ := api.CommInit(p, "dp", 0, 2, 0)
		compute, _ := api.StreamCreate(p)
		comms, _ := api.StreamCreate(p)
		grads, _ := api.Malloc(p, 1<<20, 2, "g")
		api.AllReduce(p, comm, grads, comms)
		var evs []cuda.Event
		for i := 0; i < n; i++ {
			ev, _ := api.EventCreate(p)
			api.EventRecord(p, ev, comms)
			api.StreamWaitEvent(p, compute, ev)
			evs = append(evs, ev)
		}
		return evs
	}
}

// TestUserLevelOnFaultBlocksOnWatchdog: a user-level OnFault takes the §3.2
// save on the watchdog's own thread and blocks there: a sleep, a contended
// mutex, a D2H through the layer in checkpoint mode. The watchdog, a
// callback process until then, becomes a coroutine for it, the save
// completes, and the same process keeps polling afterwards: once the fault
// is cleared it finds a second hang, as a coroutine.
func TestUserLevelOnFaultBlocksOnWatchdog(t *testing.T) {
	type save struct {
		by         string
		start, end vclock.Time
		data       []float32
	}
	var (
		r      *rig
		gil    *vclock.Mutex
		params cuda.Buf
		saves  []save
	)
	r = newRig(t, Config{Mode: ModeUserLevel, HangTimeout: 10 * vclock.Second, OnFault: func(p *vclock.Proc, f Fault) {
		s := save{by: p.Name(), start: p.Now()}
		if f.Kind != FaultHang {
			t.Errorf("fault %+v, want a hang", f)
		}
		p.Sleep(vclock.Second)
		gil.Lock(p)
		if err := r.layer.EnterCheckpointMode(p); err != nil {
			t.Error(err)
		}
		s.data, _ = r.layer.MemcpyD2H(p, params, cuda.DefaultStream)
		r.layer.ExitCheckpointMode()
		gil.Unlock(p)
		s.end = p.Now()
		saves = append(saves, s)
	}})
	census := dispatchCensus{}
	r.env.SetRecorder(census)
	gil = vclock.NewMutex(r.env, "gil")
	r.env.Go("holder", func(p *vclock.Proc) {
		gil.Lock(p)
		p.Sleep(15 * vclock.Second)
		gil.Unlock(p)
	})
	hang := hungCollective(r.env, r.engine, r.layer, 1)
	var evs []cuda.Event
	r.env.Go("worker", func(p *vclock.Proc) {
		params, _ = r.layer.Malloc(p, 64, 2, "params")
		r.layer.MemcpyH2D(p, params, []float32{8, 9}, cuda.DefaultStream)
		r.layer.StreamSynchronize(p, cuda.DefaultStream)
		evs = hang(p)
	})
	// The fault cleared, a new wait on the hung collective's event.
	r.env.Go("again", func(p *vclock.Proc) {
		p.Sleep(30 * vclock.Second)
		r.layer.EndRecovery(r.layer.Handles())
		s, _ := r.layer.StreamCreate(p)
		r.layer.StreamWaitEvent(p, s, evs[0])
	})
	if err := r.env.RunUntil(vclock.Minute); err != nil {
		t.Fatal(err)
	}
	if len(saves) != 2 {
		t.Fatalf("%d saves, want 2: %+v", len(saves), saves)
	}
	for i, s := range saves {
		if s.by != "rank0.watchdog" || !tensor.Vector(s.data).Equal(tensor.Vector{8, 9}) {
			t.Errorf("save %d by %q read %v, want the watchdog's and [8 9]", i, s.by, s.data)
		}
	}
	// The first save waits for the holder's unlock at 15 s, the second for
	// its own 1 s sleep and nothing else.
	if s := saves[0]; s.start < 10*vclock.Second || s.end < 15*vclock.Second || s.end > 15*vclock.Second+vclock.Millisecond {
		t.Errorf("first save %v to %v, want from past 10 s to just past 15 s", s.start, s.end)
	}
	if s := saves[1]; s.start < 40*vclock.Second || s.end-s.start < vclock.Second || s.end-s.start > vclock.Second+vclock.Millisecond {
		t.Errorf("second save %v to %v, want from past 40 s for just over 1 s", s.start, s.end)
	}
	// About 200 polls to the first fault as a callback, 1000 to the end of
	// the minute as a coroutine.
	if c := census["rank0.watchdog"]; c[0] < 150 || c[1] < 900 {
		t.Errorf("watchdog dispatches %v (callback, coroutine), want the polls before the first fault as a callback and the rest as a coroutine", c)
	}
}

// proxiedRig is a layer over a proxy client, its server on one device.
func proxiedRig(tb testing.TB, cfg Config) (*vclock.Env, *nccl.Engine, *Layer) {
	tb.Helper()
	env := vclock.NewEnv(1)
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	server, err := proxy.NewServer(env, dev, engine, defaultKernels(), cuda.DefaultParams(), proxy.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	return env, engine, New(env, proxy.NewClient(env, server), "rank0", cfg)
}

// TestTransparentWatchdogStaysCallback: a transparent-mode OnFault only
// signals the recovery controller, so it runs inside the watchdog's step,
// and the watchdog is a callback process from its first poll to its last:
// through two hangs on a proxied layer, each with its BeginRecovery and
// EndRecovery.
func TestTransparentWatchdogStaysCallback(t *testing.T) {
	type fault struct {
		by string
		at vclock.Time
	}
	var faults []fault
	env, engine, layer := proxiedRig(t, Config{Mode: ModeTransparent, HangTimeout: 10 * vclock.Second})
	census := dispatchCensus{}
	env.SetRecorder(census)
	detected := vclock.NewQueue[int](env, "faults")
	layer.SetOnFault(func(p *vclock.Proc, f Fault) {
		faults = append(faults, fault{p.Name(), p.Now()})
		detected.Push(f.Iter)
	})
	hang := hungCollective(env, engine, layer, 2)
	var evs []cuda.Event
	env.Go("worker", func(p *vclock.Proc) { evs = hang(p) })
	env.Go("controller", func(p *vclock.Proc) {
		for {
			detected.Pop(p)
			layer.BeginRecovery()
			p.Sleep(2 * vclock.Second)
			layer.EndRecovery(layer.Handles())
			s, _ := layer.StreamCreate(p)
			layer.StreamWaitEvent(p, s, evs[1]) // the collective still hangs
		}
	})
	if err := env.RunUntil(vclock.Seconds(25)); err != nil {
		t.Fatal(err)
	}
	if len(faults) != 2 || faults[0].by != "rank0.watchdog" || faults[1].by != "rank0.watchdog" || faults[1].at < 22*vclock.Second {
		t.Errorf("faults %+v, want two, by the watchdog, the second past 22 s", faults)
	}
	if c := census["rank0.watchdog"]; c[0] < 400 || c[1] != 0 {
		t.Errorf("watchdog dispatches %v (callback, coroutine), want every one as a callback", c)
	}
}
