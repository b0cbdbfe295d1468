package intercept

import (
	"errors"
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

// lifeCensus is a dispatchCensus that also keeps when each process ended
// (vclock.ProcRecorder).
type lifeCensus struct {
	dispatchCensus
	ended map[string]vclock.Time
}

func newLifeCensus() lifeCensus { return lifeCensus{dispatchCensus{}, map[string]vclock.Time{}} }

func (lifeCensus) ProcStart(vclock.Time, int, string) {}

func (c lifeCensus) ProcEnd(t vclock.Time, _ int, name string) { c.ended[name] = t }

// TestUserLevelOnFaultBlocksOnWatchdog: a user-level OnFault takes the §3.2
// save on the watchdog's own thread and blocks there: a sleep, a contended
// mutex, a D2H through the layer in checkpoint mode. The watchdog, a
// callback process until then, becomes a coroutine for the save and ends
// when OnFault returns (§3.2: the watchdog "exits the process immediately
// after the checkpoint"): its coroutine dispatches are the save's, and a
// later StreamWaitEvent starts no second watchdog.
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
	census := newLifeCensus()
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
	// A new wait on the hung collective's event, long after the save.
	r.env.Go("again", func(p *vclock.Proc) {
		p.Sleep(30 * vclock.Second)
		s, _ := r.layer.StreamCreate(p)
		r.layer.StreamWaitEvent(p, s, evs[0])
	})
	if err := r.env.RunUntil(vclock.Minute); err != nil {
		t.Fatal(err)
	}
	if len(saves) != 1 {
		t.Fatalf("%d saves, want 1: %+v", len(saves), saves)
	}
	s := saves[0]
	if s.by != "rank0.watchdog" || !tensor.Vector(s.data).Equal(tensor.Vector{8, 9}) {
		t.Errorf("save by %q read %v, want the watchdog's and [8 9]", s.by, s.data)
	}
	// The save waits for the holder's unlock at 15 s.
	if s.start < 10*vclock.Second || s.end < 15*vclock.Second || s.end > 15*vclock.Second+vclock.Millisecond {
		t.Errorf("save %v to %v, want from past 10 s to just past 15 s", s.start, s.end)
	}
	// About 200 polls to the fault as a callback, the save's few waits as
	// a coroutine, and nothing after it.
	if end, ok := census.ended["rank0.watchdog"]; !ok || end != s.end {
		t.Errorf("watchdog ended at %v (ended: %v), want at the save's end, %v", end, ok, s.end)
	}
	if c := census.dispatchCensus["rank0.watchdog"]; c[0] < 150 || c[1] == 0 || c[1] > 10 {
		t.Errorf("watchdog dispatches %v (callback, coroutine), want the polls before the fault as a callback and only the save's as a coroutine", c)
	}
}

// TestWorkerFaultEndsUserLevelWatchdog: a fault a worker's own call raises
// (Layer.Do's FaultError path) ends a user-level watchdog too: the callback
// retires at its next poll, without becoming a coroutine.
func TestWorkerFaultEndsUserLevelWatchdog(t *testing.T) {
	r := newRig(t, Config{Mode: ModeUserLevel})
	census := newLifeCensus()
	r.env.SetRecorder(census)
	var faultAt vclock.Time
	r.run(t, func(p *vclock.Proc) {
		s, _ := r.layer.StreamCreate(p)
		ev, _ := r.layer.EventCreate(p)
		r.layer.EventRecord(p, ev, s)
		r.layer.StreamWaitEvent(p, cuda.DefaultStream, ev) // starts the watchdog
		p.Sleep(2 * vclock.Second)
		r.dev.InjectSticky()
		faultAt = p.Now()
		if _, err := r.layer.Malloc(p, 64, 1, "x"); !errors.Is(err, gpu.ErrSticky) {
			t.Errorf("err = %v, want sticky", err)
		}
	})
	if len(r.faults) != 1 || r.faults[0].Kind != FaultError {
		t.Fatalf("faults = %+v, want one FaultError", r.faults)
	}
	end, ok := census.ended["rank0.watchdog"]
	if !ok || end <= faultAt || end > faultAt+watchdogPoll+vclock.Millisecond {
		t.Errorf("watchdog ended at %v (ended: %v), want within a poll of the fault at %v", end, ok, faultAt)
	}
	if c := census.dispatchCensus["rank0.watchdog"]; c[0] < 30 || c[1] != 0 {
		t.Errorf("watchdog dispatches %v (callback, coroutine), want every one as a callback", c)
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
