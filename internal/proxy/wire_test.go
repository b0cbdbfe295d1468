package proxy

import (
	"reflect"
	"sort"
	"testing"

	"jitckpt/internal/cuda"
	"jitckpt/internal/vclock"
)

// TestAsyncSendIsOwed: an async call over the proxy is submitted at once,
// its send latency owed. Five launches take no worker time and no dispatch
// of anyone; the next synchronising call sleeps the five owed send
// latencies with its own, once, and the handler, idle again by then, takes
// the Malloc with the debt its launches left: their call and send
// latencies.
func TestAsyncSendIsOwed(t *testing.T) {
	r := newRig(t, cuda.Registry{"nop": func(cuda.KernelArgs) error { return nil }})
	ipc, call := DefaultParams(), cuda.DefaultParams().CallLatency
	r.run(t, func(p *vclock.Proc) {
		t0, d0 := p.Now(), r.env.Stats().Dispatches
		for i := 0; i < 5; i++ {
			if err := r.client.Launch(p, cuda.LaunchParams{Kernel: "nop"}, cuda.DefaultStream); err != nil {
				t.Fatal(err)
			}
		}
		if p.Now() != t0 || r.env.Stats().Dispatches != d0 {
			t.Errorf("five async launches took %v and %d dispatches, want none", p.Now()-t0, r.env.Stats().Dispatches-d0)
		}
		if _, err := r.client.Malloc(p, 64, 1, "x"); err != nil {
			t.Fatal(err)
		}
		client := 6 * ipc.SendLatency
		server := ipc.HandleLatency + 5*(call+ipc.SendLatency) + call + ipc.SendLatency
		if got, want := p.Now()-t0, client+server; got != want {
			t.Errorf("Malloc after five launches returned at t0+%v, want t0+%v (client %v, server %v)", got, want, client, server)
		}
	})
}

// TestAsyncCallIsNotAnswered: the handler sends nothing back for an async
// call, not even for one the driver refuses. The refused launch costs its
// handler one park (the handling latency) and no answer's send latency,
// which it owes instead, so the next synchronising call pays it; that call
// gets its own answer.
func TestAsyncCallIsNotAnswered(t *testing.T) {
	r := newRig(t, nil)
	ipc, call := DefaultParams(), cuda.DefaultParams().CallLatency
	r.run(t, func(p *vclock.Proc) {
		if err := r.client.Launch(p, cuda.LaunchParams{Kernel: "missing"}, cuda.DefaultStream); err != nil {
			t.Fatalf("async launch failed inline: %v", err)
		}
		f0 := r.env.Stats().TimerFires
		p.Sleep(vclock.Second) // the handler takes the launch meanwhile
		if fires := r.env.Stats().TimerFires - f0; fires != 2 {
			t.Errorf("the refused launch cost %d timer fires besides the worker's sleep, want 1: the handling latency, no answer", fires-1)
		}
		h, _ := r.server.handlers.At(0)
		if h.at != idle || h.tq.Len() != 0 {
			t.Fatalf("the handler has not finished the launch")
		}
		t1 := p.Now()
		b, err := r.client.Malloc(p, 64, 1, "x")
		if err != nil || b != 1 {
			t.Errorf("Malloc after a refused launch = %v, %v; want its own answer, buffer 1", b, err)
		}
		// The worker owes the launch's send latency; the handler owes the
		// launch's call latency and the send latency of the answer it
		// did not send.
		want := 2*ipc.SendLatency + ipc.HandleLatency + (call + ipc.SendLatency) + call + ipc.SendLatency
		if got := p.Now() - t1; got != want {
			t.Errorf("Malloc took %v, want %v", got, want)
		}
	})
}

// TestRequestHeldWhileDown: a request sent while the server is down is
// held, and runs on the restarted server's fresh driver.
func TestRequestHeldWhileDown(t *testing.T) {
	r := newRig(t, nil)
	r.server.Stop()
	var restartAt vclock.Time
	r.env.Go("recovery", func(p *vclock.Proc) {
		p.Sleep(vclock.Second)
		restartAt = p.Now()
		if err := r.server.Restart(); err != nil {
			t.Error(err)
		}
	})
	r.run(t, func(p *vclock.Proc) {
		b, err := r.client.Malloc(p, 64, 1, "x")
		if err != nil || b != 1 {
			t.Errorf("Malloc sent while down = %v, %v; want buffer 1 from the restarted driver", b, err)
		}
		if p.Now() <= restartAt || restartAt == 0 {
			t.Errorf("Malloc returned at %v, before the restart at %v", p.Now(), restartAt)
		}
		if r.server.generation != 1 {
			t.Errorf("generation %d, want 1", r.server.generation)
		}
	})
}

// dispatchCensus records each retired process's dispatches by name.
type dispatchCensus map[string]uint64

func (c dispatchCensus) ProcDispatches(_ int, name string, callback, coroutine uint64) {
	c[name] += callback + coroutine
}

// TestProxiedCallDispatchesOnlyItsHandler: the wire has no relay processes,
// so a proxied call costs the server only dispatches of its thread's
// handler. A synchronising call is three handler dispatches (the request
// arrives, the handling and call latencies end, the answer's send latency
// ends), an async call two (it arrives, the handling latency ends); the
// worker is dispatched twice per synchronising call (its send latency
// ends, the answer comes) and never for an async one.
func TestProxiedCallDispatchesOnlyItsHandler(t *testing.T) {
	const syncs, asyncs = 20, 20
	r := newRig(t, nil)
	census := dispatchCensus{}
	r.env.SetRecorder(census)
	r.run(t, func(p *vclock.Proc) {
		ev, err := r.client.EventCreate(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < syncs-1; i++ {
			if _, err := r.client.EventQuery(p, ev); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < asyncs; i++ {
			if err := r.client.EventRecord(p, ev, cuda.DefaultStream); err != nil {
				t.Fatal(err)
			}
			p.Sleep(vclock.Millisecond) // the handler goes idle between calls
		}
	})
	var names []string
	for name := range census {
		names = append(names, name)
	}
	sort.Strings(names)
	handler := r.dev.Name() + ".proxy.t0.g0"
	want := []string{handler, r.dev.Name() + ".s0", "worker"}
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("dispatched processes %v, want %v: the worker, its handler and the stream the records run on", names, want)
	}
	// One more handler dispatch retires it at the end of the run, one
	// more worker dispatch starts it, and the worker sleeps once per
	// async call.
	if got, want := census[handler], uint64(3*syncs+2*asyncs+1); got != want {
		t.Errorf("handler dispatches %d, want %d", got, want)
	}
	if got, want := census["worker"], uint64(2*syncs+asyncs+1); got != want {
		t.Errorf("worker dispatches %d, want %d", got, want)
	}
}
