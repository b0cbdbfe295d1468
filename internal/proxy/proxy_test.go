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

// TestUndecodableFrameEndsTheRun: a frame gob cannot read, on either queue,
// ends the run with an error that names the dispatcher which read it. A
// skipped frame would park a synchronous caller until its watchdog
// reported a device hang.
func TestUndecodableFrameEndsTheRun(t *testing.T) {
	for _, tc := range []struct {
		frame, proc string
		queue       func(s *Server) *vclock.Queue[[]byte]
	}{
		{"request", "gpu[n0.g0].proxy.dispatch.g0", func(s *Server) *vclock.Queue[[]byte] { return s.reqQ }},
		{"response", "proxy.client.dispatch", func(s *Server) *vclock.Queue[[]byte] { return s.respQ }},
	} {
		t.Run(tc.frame, func(t *testing.T) {
			r := newRig(t, nil)
			r.env.Go("garbage", func(p *vclock.Proc) { tc.queue(r.server).Push([]byte("not gob")) })
			err := r.env.Run()
			want := fmt.Sprintf("process %q panicked: proxy: %s decode", tc.proc, tc.frame)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Run = %v, want an error containing %q", err, want)
			}
		})
	}
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

func TestWireErrorCodec(t *testing.T) {
	for _, sentinel := range wireErrors {
		code, msg := encodeErr(sentinel)
		if got := decodeErr(code, msg); !errors.Is(got, sentinel) {
			t.Fatalf("codec lost identity of %v", sentinel)
		}
	}
	wrapped := fmt.Errorf("context: %w", gpu.ErrOutOfMemory)
	code, msg := encodeErr(wrapped)
	got := decodeErr(code, msg)
	if !errors.Is(got, gpu.ErrOutOfMemory) {
		t.Fatalf("wrapped error lost identity: %v", got)
	}
	if decodeErr(0, "") != nil {
		t.Fatal("nil should round trip")
	}
	opaque := decodeErr(encodeErr(errors.New("weird")))
	if opaque == nil || opaque.Error() != "weird" {
		t.Fatalf("opaque error = %v", opaque)
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
