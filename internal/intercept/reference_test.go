package intercept

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"jitckpt/internal/cuda"
	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/proxy"
	"jitckpt/internal/vclock"
)

// refDog is the every-tick watchdog on the poll grid: it wakes at every tick
// start + k·watchdogPoll, idles while its layer does, and otherwise polls
// there (DESIGN.md "The watchdog's poll grid"). The watchdog sleeps through
// every tick at which such a poll can change nothing, and
// TestWatchdogMatchesEveryTickReference holds it to this one.
type refDog struct {
	l     *Layer
	at    dogAt
	start vclock.Time

	now  vclock.Time
	evs  []cuda.Event
	i    int
	stop int
	hung bool

	api  stepper
	call cuda.Call
	n    int

	kind FaultKind
	err  error
}

// startRefDog starts the reference as l's watchdog, where the layer would
// start its own: at the first StreamWaitEvent, and the first after a
// StopWatchdog.
func startRefDog(l *Layer) {
	if l.watchdogProc != nil {
		return
	}
	w := &refDog{l: l, start: l.env.Now(), call: cuda.Call{Op: cuda.OpEventQuery}}
	l.watchdogProc = l.env.GoFunc(l.name+".watchdog", w.next)
	l.watchdogProc.RunLast()
	l.pinWatchdog()
}

func (w *refDog) next(p *vclock.Proc) {
	for {
		u, ok := w.step(p)
		if !ok || p.AwaitNext(u) {
			return
		}
	}
}

func (w *refDog) raise(p *vclock.Proc) { w.l.raiseFault(p, w.kind, w.err) }

func (w *refDog) look() {
	l := w.l
	w.now, w.evs, w.i, w.hung = l.env.Now(), append(w.evs[:0], l.WatchedEvents()...), 0, false
	w.stop = len(w.evs)
	for j, ev := range w.evs {
		del, raise, kind, err := l.verdict(ev, w.now)
		if del {
			l.watch.Delete(int(ev))
		}
		if raise && w.stop == len(w.evs) {
			w.stop, w.kind, w.err = j, kind, err
		}
	}
	for _, started := range l.inflight {
		if w.now-started > l.cfg.HangTimeout {
			w.hung = true
		}
	}
}

func (w *refDog) step(p *vclock.Proc) (vclock.Until, bool) {
	l := w.l
	userLevel := l.cfg.Mode == ModeUserLevel
	for {
		switch w.at {
		case dogSleep:
			w.at = dogPoll
			next := w.start + ((p.Now()-w.start)/watchdogPoll+1)*watchdogPoll
			return vclock.Until{D: next - p.Now()}, true
		case dogPoll:
			if userLevel && l.faultRaised {
				return vclock.Until{}, false
			}
			w.at = dogSleep
			if !l.inRecovery && !l.faultRaised {
				w.look()
				w.at = dogEvent
			}
		case dogEvent:
			switch {
			case w.i > w.stop, w.i == w.stop && errors.Is(w.err, proxy.ErrProxyDown):
				w.at = dogRaise
				continue
			case w.i == len(w.evs):
				w.at = dogInflight
				continue
			}
			pe, ok := cuda.Lookup(l.handles, cuda.EventHandle, w.evs[w.i])
			if w.i++; !ok {
				continue
			}
			w.api, w.call.Event, w.n, w.at = l.inner.(stepper), pe, 0, dogQuery
		case dogQuery:
			u, waits, _, err := w.api.Step(p, &w.call, w.n)
			if w.n++; waits {
				return u, true
			}
			w.at = dogEvent
			if errors.Is(err, proxy.ErrProxyDown) {
				w.at = dogSleep
			}
		case dogRaise:
			if userLevel && !l.faultRaised {
				p.Become(w.raise)
				return vclock.Until{}, false
			}
			l.raiseFault(p, w.kind, w.err)
			w.err, w.at = nil, dogSleep
		case dogInflight:
			w.at = dogSleep
			if w.hung && !l.faultRaised {
				w.kind, w.at = FaultHang, dogRaise
			}
		}
	}
}

// dogScenario is one seeded run of a layer and its watchdog: a worker that
// all-reduces with a peer, records and waits on a few reused events and
// sometimes blocks on its comm stream, and around it what can move a poll:
// a peer that lags or stops (a hang), a fault injected into the device or
// the communicator (sticky, driver-corrupt, hard, a network error the
// record carries), sometimes exactly on a tick, a recovery or a proxy
// restart timed into a poll's queries, a StopWatchdog, and probes that read
// the watch-list.
type dogScenario struct {
	seed    int64
	mode    Mode
	proxied bool
}

// play runs s with the layer's own watchdog, or with the every-tick
// reference (ref), and returns what happened: each fault (kind, iteration,
// instant, raiser), each probe's watch-list, and the watchdog's end.
func (s dogScenario) play(ref bool) string {
	rng := rand.New(rand.NewSource(s.seed))
	var out strings.Builder
	env := vclock.NewEnv(1)
	census := newLifeCensus()
	env.SetRecorder(census)
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	var (
		api    cuda.API
		server *proxy.Server
		client *proxy.Client
	)
	if s.proxied {
		server, _ = proxy.NewServer(env, dev, engine, defaultKernels(), cuda.DefaultParams(), proxy.DefaultParams())
		client = proxy.NewClient(env, server)
		api = client
	} else {
		api, _ = cuda.NewDriver(dev, engine, defaultKernels(), cuda.DefaultParams())
	}
	hang := vclock.Time(1+rng.Intn(8)) * 100 * vclock.Millisecond
	if rng.Intn(3) == 0 {
		hang += vclock.Time(rng.Intn(3)) * vclock.Millisecond // off the tick multiples
	}
	faults := vclock.NewQueue[Fault](env, "faults")
	var layer *Layer
	layer = New(env, api, "rank0", Config{Mode: s.mode, HangTimeout: hang, OnFault: func(p *vclock.Proc, f Fault) {
		fmt.Fprintf(&out, "fault kind=%d iter=%d at=%d by=%s\n", f.Kind, f.Iter, p.Now(), p.Name())
		faults.Push(f)
		if s.mode == ModeUserLevel && p.Name() == "rank0.watchdog" {
			p.Sleep(vclock.Time(rng.Intn(3)) * vclock.Millisecond) // the save
		}
	}})
	var gridStart vclock.Time = -1
	// tickAfter returns a tick of the first watchdog's grid at least d away,
	// plus off.
	tickAfter := func(now, d, off vclock.Time) vclock.Time {
		k := (now+d-gridStart)/watchdogPoll + 1
		return gridStart + k*watchdogPoll + off
	}
	swe := func(p *vclock.Proc, st cuda.Stream, ev cuda.Event) error {
		if gridStart < 0 {
			gridStart = p.Now()
		}
		if ref {
			startRefDog(layer)
		}
		return layer.StreamWaitEvent(p, st, ev)
	}

	// The peer: rank 1 on its own device, all-reducing after a lag, and
	// stopping for good (a hang) at a drawn iteration.
	iters := 6 + rng.Intn(20)
	stopAt := iters + 1
	if rng.Intn(2) == 0 {
		stopAt = rng.Intn(iters)
	}
	lags := make([]vclock.Time, iters)
	for i := range lags {
		lags[i] = vclock.Time(rng.Intn(80)) * vclock.Millisecond
		if rng.Intn(4) == 0 {
			lags[i] = vclock.Time(rng.Intn(2000)) * vclock.Microsecond
		}
	}
	env.Go("peer", func(p *vclock.Proc) {
		pdev := gpu.NewDevice(env, 0, 1, 1<<34)
		drv, _ := cuda.NewDriver(pdev, engine, defaultKernels(), cuda.DefaultParams())
		comm, err := drv.CommInit(p, "dp", 0, 2, 1)
		if err != nil {
			return
		}
		st, _ := drv.StreamCreate(p)
		g, _ := drv.Malloc(p, 1<<20, 2, "g")
		for i := 0; i < iters && i != stopAt; i++ {
			p.Sleep(lags[i])
			drv.AllReduce(p, comm, g, st)
			drv.StreamSynchronize(p, st)
		}
	})

	// The worker.
	nev := 1 + rng.Intn(3)
	sleeps := make([]vclock.Time, iters)
	onTick := make([]bool, iters)
	syncs := make([]bool, iters)
	for i := range sleeps {
		sleeps[i] = vclock.Time(rng.Intn(120)) * vclock.Millisecond
		onTick[i] = rng.Intn(4) == 0
		syncs[i] = rng.Intn(3) == 0
	}
	env.Go("worker", func(p *vclock.Proc) {
		comm, err := layer.CommInit(p, "dp", 0, 2, 0)
		if err != nil {
			return
		}
		compute, _ := layer.StreamCreate(p)
		comms, _ := layer.StreamCreate(p)
		g, _ := layer.Malloc(p, 1<<20, 2, "g")
		evs := make([]cuda.Event, nev)
		for j := range evs {
			evs[j], _ = layer.EventCreate(p)
		}
		for i := 0; i < iters; i++ {
			layer.StartMinibatch(i)
			if onTick[i] && gridStart >= 0 {
				p.Sleep(tickAfter(p.Now(), 0, 0) - p.Now())
			} else {
				p.Sleep(sleeps[i])
			}
			if layer.AllReduce(p, comm, g, comms) != nil {
				return
			}
			ev := evs[i%nev]
			if layer.EventRecord(p, ev, comms) != nil || swe(p, compute, ev) != nil {
				return
			}
			if syncs[i] && layer.StreamSynchronize(p, comms) != nil {
				return
			}
		}
	})

	// What moves a poll, each at a drawn time, some exactly on a tick or
	// just after one, inside its queries.
	at := func(d vclock.Time, f func(p *vclock.Proc)) {
		off := vclock.Time(rng.Intn(4)) * vclock.Microsecond
		exact := rng.Intn(2) == 0
		env.Go("chaos", func(p *vclock.Proc) {
			p.Sleep(d)
			if exact && gridStart >= 0 {
				p.Sleep(tickAfter(p.Now(), 0, off) - p.Now())
			}
			f(p)
		})
	}
	horizon := 8 * vclock.Second
	draw := func() vclock.Time { return vclock.Time(rng.Int63n(int64(horizon / 2))) }
	switch rng.Intn(6) {
	case 0:
		at(draw(), func(*vclock.Proc) { dev.InjectSticky() })
	case 1:
		at(draw(), func(*vclock.Proc) { dev.InjectDriverCorrupt() })
	case 2:
		at(draw(), func(*vclock.Proc) { dev.InjectHard() })
	case 3:
		at(draw(), func(*vclock.Proc) { engine.InjectFault("dp", 0, nccl.FaultError) })
	}
	if s.proxied && rng.Intn(3) == 0 {
		at(draw(), func(*vclock.Proc) {
			server.Stop()
			client.AbortPending()
			server.Restart()
		})
	}
	if rng.Intn(4) == 0 {
		at(draw(), func(*vclock.Proc) { layer.StopWatchdog() })
	}
	for k := rng.Intn(4); k > 0; k-- {
		at(draw(), func(p *vclock.Proc) {
			fmt.Fprintf(&out, "probe at=%d watched=%v\n", p.Now(), layer.WatchedEvents())
		})
	}
	if s.mode == ModeTransparent {
		pause := vclock.Time(rng.Intn(120)) * vclock.Millisecond
		down := vclock.Time(rng.Intn(400)) * vclock.Millisecond
		restart := s.proxied && rng.Intn(2) == 0
		env.Go("controller", func(p *vclock.Proc) {
			for {
				faults.Pop(p)
				p.Sleep(pause)
				layer.BeginRecovery()
				if s.proxied {
					client.AbortPending()
					if restart {
						server.Stop()
						client.AbortPending()
						server.Restart()
					}
				}
				p.Sleep(down)
				layer.EndRecovery(layer.Handles())
				faults.Drain()
			}
		})
	}
	// The run ends by stopping the watchdog at the horizon, as a job's end
	// does: the clock then stops where the last process's did, whichever
	// polls a live watchdog would have gone on with.
	env.Go("end", func(p *vclock.Proc) {
		p.Sleep(horizon)
		layer.StopWatchdog()
	})
	if err := env.RunUntil(horizon); err != nil {
		return err.Error()
	}
	fmt.Fprintf(&out, "end watched=%v", layer.WatchedEvents())
	if end, ok := census.ended["rank0.watchdog"]; ok {
		fmt.Fprintf(&out, " dog-ended=%d", end)
	}
	return out.String()
}

// TestWatchdogMatchesEveryTickReference: over seeded scenarios on direct,
// user-level and proxied layers, the watchdog that sleeps through polls that
// can find nothing raises the same faults as the every-tick reference, each
// of the same kind, at the same iteration and instant, by the same process,
// and leaves the same watch-list wherever a probe reads it; a user-level
// watchdog ends at the same instant.
func TestWatchdogMatchesEveryTickReference(t *testing.T) {
	kinds := []dogScenario{
		{mode: ModeTransparent},
		{mode: ModeUserLevel},
		{mode: ModeTransparent, proxied: true},
		{mode: ModeUserLevel, proxied: true},
	}
	seeds := int64(150)
	if testing.Short() {
		seeds = 40
	}
	faults := 0
	for _, k := range kinds {
		for seed := int64(1); seed <= seeds; seed++ {
			s := k
			s.seed = seed
			got, want := s.play(false), s.play(true)
			if got != want {
				t.Fatalf("%+v: the watchdog\n%s\n\nthe every-tick reference\n%s", s, got, want)
			}
			faults += strings.Count(want, "fault ")
		}
	}
	if faults == 0 {
		t.Fatal("no scenario raised a fault")
	}
	t.Logf("%d faults over %d scenarios", faults, int64(len(kinds))*seeds)
}

// TestWatchdogWakesAFewTimesPerHangTimeout: in a healthy user-level run,
// where every watched collective finishes well inside HangTimeout, the
// watchdog wakes for no poll that could find nothing: over 100 s of
// training with a 10 s timeout it dispatches a few times per timeout, not
// once a tick (2000 ticks).
func TestWatchdogWakesAFewTimesPerHangTimeout(t *testing.T) {
	const hang, horizon = 10 * vclock.Second, 100 * vclock.Second
	r := newRig(t, Config{Mode: ModeUserLevel, HangTimeout: hang})
	census := dispatchCensus{}
	r.env.SetRecorder(census)
	iters := 0
	r.env.Go("peer", func(p *vclock.Proc) {
		dev := gpu.NewDevice(r.env, 0, 1, 1<<34)
		drv, _ := cuda.NewDriver(dev, r.engine, defaultKernels(), cuda.DefaultParams())
		comm, _ := drv.CommInit(p, "dp", 0, 2, 1)
		st, _ := drv.StreamCreate(p)
		g, _ := drv.Malloc(p, 1<<20, 2, "g")
		for {
			p.Sleep(30 * vclock.Millisecond)
			drv.AllReduce(p, comm, g, st)
			drv.StreamSynchronize(p, st)
		}
	})
	r.env.Go("worker", func(p *vclock.Proc) {
		comm, _ := r.layer.CommInit(p, "dp", 0, 2, 0)
		compute, _ := r.layer.StreamCreate(p)
		comms, _ := r.layer.StreamCreate(p)
		g, _ := r.layer.Malloc(p, 1<<20, 2, "g")
		ev, _ := r.layer.EventCreate(p)
		for {
			p.Sleep(20 * vclock.Millisecond)
			r.layer.AllReduce(p, comm, g, comms)
			r.layer.EventRecord(p, ev, comms)
			r.layer.StreamWaitEvent(p, compute, ev)
			r.layer.StreamSynchronize(p, compute)
			iters++
		}
	})
	r.env.Go("end", func(p *vclock.Proc) {
		p.Sleep(horizon)
		r.layer.StopWatchdog()
	})
	if err := r.env.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	if len(r.faults) != 0 || iters < 1000 {
		t.Fatalf("faults %+v after %d iterations, want none after over 1000", r.faults, iters)
	}
	c := census["rank0.watchdog"]
	t.Logf("%d iterations, watchdog dispatches %v (callback, coroutine)", iters, c)
	if perTimeout := float64(c[0]+c[1]) / float64(horizon/hang); perTimeout > 4 {
		t.Errorf("watchdog dispatched %v times in %v, %.1f per HangTimeout, want at most 4", c, horizon, perTimeout)
	}
}
