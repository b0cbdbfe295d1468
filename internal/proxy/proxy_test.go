package proxy

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"jitckpt/internal/cuda"
	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/tensor"
	"jitckpt/internal/vclock"
)

type rig struct {
	env    *vclock.Env
	dev    *gpu.Device
	engine *nccl.Engine
	server *Server
	client *Client
}

func newRig(t *testing.T, kernels cuda.Registry) *rig {
	t.Helper()
	env := vclock.NewEnv(1)
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	server, err := NewServer(env, dev, engine, kernels, cuda.DefaultParams(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return &rig{env: env, dev: dev, engine: engine, server: server, client: NewClient(env, server)}
}

func (r *rig) run(t *testing.T, body func(p *vclock.Proc)) {
	t.Helper()
	r.env.Go("worker", body)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProxyMemcpyRoundTrip(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *vclock.Proc) {
		b, err := r.client.Malloc(p, 1<<20, 3, "w")
		if err != nil {
			t.Error(err)
			return
		}
		r.client.MemcpyH2D(p, b, []float32{7, 8, 9}, cuda.DefaultStream)
		got, err := r.client.MemcpyD2H(p, b, cuda.DefaultStream)
		if err != nil {
			t.Error(err)
			return
		}
		if !tensor.Vector(got).Equal(tensor.Vector{7, 8, 9}) {
			t.Errorf("round trip = %v", got)
		}
	})
}

func TestProxyKernelLaunchByName(t *testing.T) {
	kernels := cuda.Registry{
		"add1": func(a cuda.KernelArgs) error {
			for i := range a.Bufs[0] {
				a.Bufs[0][i]++
			}
			return nil
		},
	}
	r := newRig(t, kernels)
	r.run(t, func(p *vclock.Proc) {
		b, _ := r.client.Malloc(p, 64, 2, "x")
		r.client.MemcpyH2D(p, b, []float32{1, 2}, cuda.DefaultStream)
		r.client.Launch(p, cuda.LaunchParams{Kernel: "add1", Dur: vclock.Millisecond, Bufs: []cuda.Buf{b}}, cuda.DefaultStream)
		got, _ := r.client.MemcpyD2H(p, b, cuda.DefaultStream)
		if !tensor.Vector(got).Equal(tensor.Vector{2, 3}) {
			t.Errorf("result = %v", got)
		}
	})
}

func TestProxyAsyncCallsDoNotBlock(t *testing.T) {
	r := newRig(t, cuda.Registry{"slow": func(cuda.KernelArgs) error { return nil }})
	r.run(t, func(p *vclock.Proc) {
		t0 := p.Now()
		r.client.Launch(p, cuda.LaunchParams{Kernel: "slow", Dur: vclock.Seconds(100)}, cuda.DefaultStream)
		if p.Now()-t0 > vclock.Millisecond {
			t.Errorf("async launch blocked for %v", p.Now()-t0)
		}
	})
}

// An async op that fails on the device poisons its stream; over the proxy
// the caller sees it at the next synchronizing call on that stream (there is
// no separate last-error readback).
func TestProxyAsyncErrorSurfacesAtSync(t *testing.T) {
	boom := errors.New("boom")
	r := newRig(t, cuda.Registry{"boom": func(cuda.KernelArgs) error { return boom }})
	r.run(t, func(p *vclock.Proc) {
		if err := r.client.Launch(p, cuda.LaunchParams{Kernel: "boom", Dur: vclock.Millisecond}, cuda.DefaultStream); err != nil {
			t.Fatalf("async launch failed inline: %v", err)
		}
		err := r.client.StreamSynchronize(p, cuda.DefaultStream)
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("StreamSynchronize = %v, want the kernel's error", err)
		}
	})
}

func TestProxyPerThreadOrdering(t *testing.T) {
	var order []string
	kernels := cuda.Registry{
		"k": func(a cuda.KernelArgs) error {
			order = append(order, fmt.Sprintf("%d", a.IArgs[0]))
			return nil
		},
	}
	r := newRig(t, kernels)
	r.run(t, func(p *vclock.Proc) {
		// Ten async launches from one thread must execute in issue order.
		for i := 0; i < 10; i++ {
			r.client.Launch(p, cuda.LaunchParams{
				Kernel: "k", Dur: vclock.Millisecond, IArgs: []int64{int64(i)},
			}, cuda.DefaultStream)
		}
		r.client.StreamSynchronize(p, cuda.DefaultStream)
	})
	want := "0123456789"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Fatalf("execution order %q, want %q", got, want)
	}
}

func TestProxyThreadIsolation(t *testing.T) {
	// The main thread wedges in a StreamSynchronize on a hung collective;
	// the watchdog thread's EventQuery must stay responsive.
	r := newRig(t, nil)
	mainStuck := false
	watchdogOK := false
	r.env.Go("peer-rank", func(p *vclock.Proc) {
		// Rank 1 joins init then never issues its collective.
		if _, err := r.engine.CommInitRank(p, "dp", 0, 2, 1, nil); err != nil {
			t.Error(err)
		}
	})
	r.env.Go("main-thread", func(p *vclock.Proc) {
		comm, err := r.client.CommInit(p, "dp", 0, 2, 0)
		if err != nil {
			t.Error(err)
			return
		}
		b, _ := r.client.Malloc(p, 1<<20, 1, "g")
		r.client.AllReduce(p, comm, b, cuda.DefaultStream)
		mainStuck = true
		r.client.StreamSynchronize(p, cuda.DefaultStream) // hangs forever
		mainStuck = false
	})
	r.env.Go("watchdog-thread", func(p *vclock.Proc) {
		p.Sleep(vclock.Seconds(10))
		ev, err := r.client.EventCreate(p)
		if err != nil {
			t.Error(err)
			return
		}
		done, err := r.client.EventQuery(p, ev)
		watchdogOK = done && err == nil
	})
	if err := r.env.RunUntil(vclock.Minute); err != nil {
		t.Fatal(err)
	}
	if !mainStuck {
		t.Fatal("main thread should be wedged at StreamSynchronize")
	}
	if !watchdogOK {
		t.Fatal("watchdog thread was starved by the wedged main thread")
	}
}

func TestProxyErrorIdentityAcrossWire(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *vclock.Proc) {
		if _, err := r.client.MemcpyD2H(p, cuda.Buf(99), cuda.DefaultStream); !errors.Is(err, cuda.ErrBadHandle) {
			t.Errorf("bad handle: %v", err)
		}
		r.dev.InjectSticky()
		if _, err := r.client.Malloc(p, 1, 0, "x"); !errors.Is(err, gpu.ErrSticky) {
			t.Errorf("sticky: %v", err)
		}
	})
	// A call the server will never answer is released by AbortPending.
	r.server.Stop()
	released := false
	r.run(t, func(p *vclock.Proc) {
		r.env.Go("abort", func(ap *vclock.Proc) {
			ap.Sleep(vclock.Second)
			if n := r.client.AbortPending(); n != 1 {
				t.Errorf("AbortPending released %d callers, want 1", n)
			}
		})
		_, err := r.client.EventQuery(p, 1)
		if err != ErrProxyDown {
			t.Errorf("aborted call: %v, want ErrProxyDown itself", err)
		}
		released = true
	})
	if !released {
		t.Error("the aborted call never returned")
	}
}

// TestProxyErrorsMatchDirectDriver: an error crosses the wire unchanged.
// For each sentinel a device call can fail with, a kernel fails wrapping it,
// and StreamSynchronize over the proxy returns what it returns straight
// from a cuda.Driver: the same text, and errors.Is still finds the sentinel.
func TestProxyErrorsMatchDirectDriver(t *testing.T) {
	for _, sentinel := range []error{
		gpu.ErrDeviceLost, gpu.ErrSticky, gpu.ErrCorrupt, gpu.ErrOutOfMemory,
		gpu.ErrNoSuchBuf, gpu.ErrNoSuchQueue,
		cuda.ErrBadHandle, cuda.ErrUnknownKernel,
		nccl.ErrNetwork, nccl.ErrCommDead, nccl.ErrMismatch, nccl.ErrBufSizes,
		nccl.ErrInvalidRank, nccl.ErrDeviceFailed,
		ErrProxyDown,
	} {
		kernels := cuda.Registry{"fail": func(cuda.KernelArgs) error { return fmt.Errorf("ctx: %w", sentinel) }}
		failAndSync := func(p *vclock.Proc, api cuda.API) error {
			if err := api.Launch(p, cuda.LaunchParams{Kernel: "fail", Dur: vclock.Millisecond}, cuda.DefaultStream); err != nil {
				t.Errorf("%v: launch failed inline: %v", sentinel, err)
			}
			return api.StreamSynchronize(p, cuda.DefaultStream)
		}
		var direct, proxied error
		r := newRig(t, kernels)
		drv, err := cuda.NewDriver(r.dev, r.engine, kernels, cuda.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		r.run(t, func(p *vclock.Proc) { direct = failAndSync(p, drv) })
		r = newRig(t, kernels)
		r.run(t, func(p *vclock.Proc) { proxied = failAndSync(p, r.client) })
		if direct == nil || proxied == nil || proxied.Error() != direct.Error() {
			t.Errorf("%v: proxied error %q, direct %q", sentinel, proxied, direct)
		}
		if !errors.Is(direct, sentinel) || !errors.Is(proxied, sentinel) {
			t.Errorf("%v: errors.Is direct %v, proxied %v", sentinel, errors.Is(direct, sentinel), errors.Is(proxied, sentinel))
		}
	}
}

// Arguments are captured when the call is made and results belong to the
// caller: nothing on either side of the boundary aliases the other.
func TestCallCapturedAtSend(t *testing.T) {
	kernels := cuda.Registry{
		"scale": func(a cuda.KernelArgs) error {
			for i := range a.Bufs[0] {
				a.Bufs[0][i] *= a.FArgs[0]
			}
			return nil
		},
	}
	r := newRig(t, kernels)
	r.run(t, func(p *vclock.Proc) {
		b, _ := r.client.Malloc(p, 64, 3, "x")
		other, _ := r.client.Malloc(p, 64, 3, "y")
		r.client.MemcpyH2D(p, other, []float32{5, 5, 5}, cuda.DefaultStream)

		src := []float32{1, 2, 3}
		r.client.MemcpyH2D(p, b, src, cuda.DefaultStream)
		src[0] = 99 // the async copy has not run yet

		bufs, fargs := []cuda.Buf{b}, []float32{2}
		r.client.Launch(p, cuda.LaunchParams{Kernel: "scale", Bufs: bufs, FArgs: fargs}, cuda.DefaultStream)
		bufs[0], fargs[0] = other, 100

		got, err := r.client.MemcpyD2H(p, b, cuda.DefaultStream)
		if err != nil || !tensor.Vector(got).Equal(tensor.Vector{2, 4, 6}) {
			t.Errorf("device saw %v (err %v), want the call-time values [2 4 6]", got, err)
		}
		got[0] = 42 // the result is the caller's own copy
		again, _ := r.client.MemcpyD2H(p, b, cuda.DefaultStream)
		if !tensor.Vector(again).Equal(tensor.Vector{2, 4, 6}) {
			t.Errorf("device memory moved with the caller's result: %v", again)
		}
		if o, _ := r.client.MemcpyD2H(p, other, cuda.DefaultStream); !tensor.Vector(o).Equal(tensor.Vector{5, 5, 5}) {
			t.Errorf("launch ran on the overwritten buffer list: other = %v", o)
		}
	})
}

func TestProxyRestartClearsStickyAndKeepsBuffers(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *vclock.Proc) {
		b, _ := r.client.Malloc(p, 1<<10, 2, "param.w")
		r.client.MemcpyH2D(p, b, []float32{3, 4}, cuda.DefaultStream)
		r.client.StreamSynchronize(p, cuda.DefaultStream)

		r.dev.InjectSticky()
		if _, err := r.client.Malloc(p, 1, 0, "x"); !errors.Is(err, gpu.ErrSticky) {
			t.Errorf("expected sticky, got %v", err)
		}

		// Restart the proxy: sticky cleared, device buffers survive.
		if err := r.server.Restart(); err != nil {
			t.Error(err)
			return
		}
		if r.dev.Health() != gpu.Healthy {
			t.Errorf("health after restart = %v", r.dev.Health())
		}
		// The one allocation so far is device buffer 0.
		if gb, err := r.dev.Buf(0); err != nil || gb.Data[0] != 3 {
			t.Errorf("buffer after restart: %v (err %v)", gb, err)
		}
		// Old client still talks to the restarted server's fresh driver:
		// the new driver has no handle for the old buffer (that remapping
		// is the interception layer's virtual-handle job).
		if _, err := r.client.MemcpyD2H(p, b, cuda.DefaultStream); err == nil {
			t.Error("old physical handle should be invalid after restart")
		}
		// New allocations work.
		if _, err := r.client.Malloc(p, 64, 1, "y"); err != nil {
			t.Errorf("Malloc after restart: %v", err)
		}
	})
}

func TestProxyRestartDropsInFlightCalls(t *testing.T) {
	r := newRig(t, nil)
	hung := false
	released := false
	r.env.Go("victim", func(p *vclock.Proc) {
		b, _ := r.client.Malloc(p, 1<<30, 1, "big")
		// Block the default stream behind a wedged event wait so D2H hangs.
		peerEv := r.env.NewEvent("never")
		r.client.Launch(p, cuda.LaunchParams{Kernel: "missing"}, cuda.DefaultStream)
		_ = peerEv
		// Sync call that will be in flight during restart: use a stream
		// sync on a stream wedged by a hung collective.
		r.env.Go("peer", func(pp *vclock.Proc) {
			r.engine.CommInitRank(pp, "dp", 0, 2, 1, nil)
		})
		comm, err := r.client.CommInit(p, "dp", 0, 2, 0)
		if err != nil {
			t.Error(err)
			return
		}
		r.client.AllReduce(p, comm, b, cuda.DefaultStream)
		hung = true
		err = r.client.StreamSynchronize(p, cuda.DefaultStream)
		if errors.Is(err, ErrProxyDown) {
			released = true
		}
	})
	r.env.Go("recovery", func(p *vclock.Proc) {
		p.Sleep(vclock.Seconds(30))
		r.server.Stop()
		r.client.AbortPending()
		if err := r.server.Restart(); err != nil {
			t.Error(err)
		}
	})
	if err := r.env.RunUntil(vclock.Hour); err != nil {
		t.Fatal(err)
	}
	if !hung || !released {
		t.Fatalf("hung=%v released=%v; AbortPending must release in-flight callers", hung, released)
	}
}

func TestProxyGenerationCounts(t *testing.T) {
	r := newRig(t, nil)
	if r.server.generation != 0 {
		t.Fatalf("gen = %d", r.server.generation)
	}
	r.run(t, func(p *vclock.Proc) {
		r.server.Restart()
		r.server.Restart()
	})
	if r.server.generation != 2 {
		t.Fatalf("gen after two restarts = %d", r.server.generation)
	}
}

func TestProxyCollectivesAcrossTwoProxiedRanks(t *testing.T) {
	env := vclock.NewEnv(1)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	var clients [2]*Client
	var devs [2]*gpu.Device
	for i := 0; i < 2; i++ {
		devs[i] = gpu.NewDevice(env, 0, i, 1<<34)
		srv, err := NewServer(env, devs[i], engine, nil, cuda.DefaultParams(), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = NewClient(env, srv)
	}
	results := [2][]float32{}
	for rank := 0; rank < 2; rank++ {
		rank := rank
		env.Go(fmt.Sprintf("rank%d", rank), func(p *vclock.Proc) {
			cl := clients[rank]
			comm, err := cl.CommInit(p, "dp", 0, 2, rank)
			if err != nil {
				t.Error(err)
				return
			}
			b, _ := cl.Malloc(p, 64, 2, "g")
			cl.MemcpyH2D(p, b, []float32{float32(rank + 1), 10}, cuda.DefaultStream)
			cl.AllReduce(p, comm, b, cuda.DefaultStream)
			got, err := cl.MemcpyD2H(p, b, cuda.DefaultStream)
			if err != nil {
				t.Error(err)
				return
			}
			results[rank] = got
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for rank, got := range results {
		if !tensor.Vector(got).Equal(tensor.Vector{3, 20}) {
			t.Fatalf("rank %d allreduce = %v, want [3 20]", rank, got)
		}
	}
}

// TestAbortPendingReleasesInRequestOrder: with several sync calls in flight
// at a proxy restart (main thread in StreamSynchronize, watchdog thread in
// EventQuery), the order the callers resume in is the order the trace and
// every later dispatch inherit, so it must not depend on map iteration.
func TestAbortPendingReleasesInRequestOrder(t *testing.T) {
	for run := 0; run < 50; run++ {
		r := newRig(t, nil)
		var resumed []int
		r.env.Go("abort", func(p *vclock.Proc) {
			// A stopped server never answers: every sync call stays pending.
			r.server.Stop()
			for i := 0; i < 3; i++ {
				i := i
				r.env.Go(fmt.Sprintf("caller%d", i), func(cp *vclock.Proc) {
					cp.Sleep(vclock.Time(i) * vclock.Millisecond)
					if _, err := r.client.EventQuery(cp, 1); !errors.Is(err, ErrProxyDown) {
						t.Errorf("caller %d: err = %v, want ErrProxyDown", i, err)
					}
					resumed = append(resumed, i)
				})
			}
			p.Sleep(vclock.Second)
			if n := r.client.AbortPending(); n != 3 {
				t.Errorf("AbortPending released %d callers, want 3", n)
			}
		})
		if err := r.env.Run(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(resumed) != "[0 1 2]" {
			t.Fatalf("run %d: resume order %v, want issue order [0 1 2]", run, resumed)
		}
	}
}

// proxiedAllocs is what one round of calls on a steady-state client
// allocates: long minus short complete runs, so the fixed setup cancels.
// round is handed the client, an event and a launch of a no-op kernel on a
// buffer, made once in the setup, so the caller reuses its slices.
func proxiedAllocs(t *testing.T, round func(p *vclock.Proc, c *Client, ev cuda.Event, lp cuda.LaunchParams)) float64 {
	measure := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			r := newRig(t, cuda.Registry{"nop": func(cuda.KernelArgs) error { return nil }})
			r.run(t, func(p *vclock.Proc) {
				defer r.server.Stop()
				ev, _ := r.client.EventCreate(p)
				b, _ := r.client.Malloc(p, 64, 2, "w")
				r.client.StreamCreate(p) // stream 1
				lp := cuda.LaunchParams{Kernel: "nop", Dur: vclock.Microsecond, Bufs: []cuda.Buf{b}, IArgs: []int64{1}}
				for i := 0; i < n; i++ {
					round(p, r.client, ev, lp)
				}
			})
		})
	}
	const short, long = 50, 250
	return (measure(long) - measure(short)) / (long - short)
}

// TestProxiedCallAllocBudget pins what a call costs the simulator on the
// proxy wire, the way intercept.TestInterceptedLaunchAllocFree pins the
// direct path: a blocking round trip allocates nothing (its thread's slot
// holds the event and the response), and an async launch allocates only
// the argument slices it captures at call time.
func TestProxiedCallAllocBudget(t *testing.T) {
	query := proxiedAllocs(t, func(p *vclock.Proc, c *Client, ev cuda.Event, _ cuda.LaunchParams) {
		if _, err := c.EventQuery(p, ev); err != nil {
			t.Error(err)
		}
	})
	t.Logf("%.3f allocs per proxied EventQuery", query)
	if query > 0.05 {
		t.Errorf("a proxied EventQuery allocates %.3f objects, want 0", query)
	}
	// Bufs and IArgs are captured, FArgs is empty; the synchronize that
	// keeps the stream short costs nothing, as the query above.
	launch := proxiedAllocs(t, func(p *vclock.Proc, c *Client, _ cuda.Event, lp cuda.LaunchParams) {
		if err := c.Launch(p, lp, cuda.DefaultStream); err != nil {
			t.Error(err)
		}
		if err := c.StreamSynchronize(p, cuda.DefaultStream); err != nil {
			t.Error(err)
		}
	})
	t.Logf("%.3f allocs per proxied Launch + StreamSynchronize", launch)
	if launch > 2.05 {
		t.Errorf("a proxied Launch + StreamSynchronize allocates %.3f objects, want 2 (its captured Bufs and IArgs)", launch)
	}
	// The blocking calls park their handler at each wait. The handler holds
	// the call in progress itself, so a wait costs nothing: two launches
	// with no argument slices (nothing to capture) keep two streams busy,
	// and the DeviceSynchronize waits for both; the copy a MemcpyD2H
	// returns is all it allocates.
	devSync := proxiedAllocs(t, func(p *vclock.Proc, c *Client, _ cuda.Event, _ cuda.LaunchParams) {
		for _, s := range []cuda.Stream{cuda.DefaultStream, 1} {
			if err := c.Launch(p, cuda.LaunchParams{Kernel: "nop", Dur: vclock.Microsecond}, s); err != nil {
				t.Error(err)
			}
		}
		if err := c.DeviceSynchronize(p); err != nil {
			t.Error(err)
		}
	})
	t.Logf("%.3f allocs per proxied DeviceSynchronize over two busy streams", devSync)
	if devSync > 0.05 {
		t.Errorf("a proxied DeviceSynchronize allocates %.3f objects, want 0", devSync)
	}
	d2h := proxiedAllocs(t, func(p *vclock.Proc, c *Client, _ cuda.Event, lp cuda.LaunchParams) {
		if _, err := c.MemcpyD2H(p, lp.Bufs[0], cuda.DefaultStream); err != nil {
			t.Error(err)
		}
	})
	t.Logf("%.3f allocs per proxied MemcpyD2H", d2h)
	if d2h > 1.05 {
		t.Errorf("a proxied MemcpyD2H allocates %.3f objects, want 1 (the copy it returns)", d2h)
	}
}

func BenchmarkProxySyncCall(b *testing.B) {
	env := vclock.NewEnv(1)
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	server, err := NewServer(env, dev, engine, nil, cuda.DefaultParams(), DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	client := NewClient(env, server)
	b.ReportAllocs()
	env.Go("worker", func(p *vclock.Proc) {
		ev, _ := client.EventCreate(p)
		for i := 0; i < b.N; i++ {
			client.EventQuery(p, ev)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
