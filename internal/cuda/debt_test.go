package cuda

import (
	"fmt"
	"testing"

	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/vclock"
)

// nopKernels has one kernel that does nothing for its Dur.
var nopKernels = Registry{"nop": func(KernelArgs) error { return nil }}

// burst makes n async launches of dur on s and fails the test if any of
// them failed or took virtual time or a dispatch: an async call only adds
// its latency to the caller's debt.
func burst(t *testing.T, r *testRig, p *vclock.Proc, n int, dur vclock.Time, s Stream) {
	t.Helper()
	t0, d0 := p.Now(), r.env.Stats().Dispatches
	for i := 0; i < n; i++ {
		if err := r.drv.Launch(p, LaunchParams{Kernel: "nop", Dur: dur}, s); err != nil {
			t.Error(err)
			return
		}
	}
	if now, d := p.Now(), r.env.Stats().Dispatches; now != t0 || d != d0 {
		t.Errorf("%d async launches took %v and %d dispatches, want none", n, now-t0, d-d0)
	}
}

// TestAsyncLatencyPaidAtNextSync: after n async calls, the next
// synchronising call sleeps the n latencies they owe and its own, once,
// and then its wait, which the device has been working off meanwhile.
func TestAsyncLatencyPaidAtNextSync(t *testing.T) {
	const n = 5
	latency := DefaultParams().CallLatency
	r := newRig(t, nopKernels)
	r.inProc(t, func(p *vclock.Proc) {
		s, _ := r.drv.StreamCreate(p)
		t0 := p.Now()
		burst(t, r, p, n, 0, s)
		if _, err := r.drv.Malloc(p, 64, 2, "b"); err != nil {
			t.Error(err)
		}
		if got, want := p.Now(), t0+(n+1)*latency; got != want {
			t.Errorf("Malloc after %d launches returned at %v, want %v", n, got, want)
		}
		if debt := p.Settle(); debt != 0 {
			t.Errorf("%v still owed after a synchronising call", debt)
		}

		// Kernels longer than the owed latency: it hides behind them, and
		// the sync returns when the stream drains.
		t1 := p.Now()
		burst(t, r, p, n, vclock.Millisecond, s)
		if err := r.drv.StreamSynchronize(p, s); err != nil {
			t.Error(err)
		}
		if got, want := p.Now(), t1+n*vclock.Millisecond; got != want {
			t.Errorf("StreamSynchronize after %d 1ms launches returned at %v, want %v", n, got, want)
		}
	})
}

// TestDebtIsTheCallersOwn: two processes on one driver, as a worker and its
// watchdog are. The one that made the async calls pays their latency; the
// other's synchronising call pays only its own.
func TestDebtIsTheCallersOwn(t *testing.T) {
	const n = 4
	latency := DefaultParams().CallLatency
	r := newRig(t, nopKernels)
	var workerDone, otherDone vclock.Time
	synced := r.env.NewEvent("synced")
	r.env.Go("worker", func(p *vclock.Proc) {
		burst(t, r, p, n, 0, DefaultStream)
		p.Wait(synced) // parks owing n latencies
		t0 := p.Now()
		if _, err := r.drv.Malloc(p, 64, 2, "w"); err != nil {
			t.Error(err)
		}
		workerDone = p.Now() - t0
	})
	r.env.Go("other", func(p *vclock.Proc) {
		t0 := p.Now()
		if _, err := r.drv.Malloc(p, 64, 2, "o"); err != nil {
			t.Error(err)
		}
		otherDone = p.Now() - t0
		synced.Trigger()
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if otherDone != latency {
		t.Errorf("the other process's Malloc took %v, want its own latency %v", otherDone, latency)
	}
	if want := (n + 1) * latency; workerDone != want {
		t.Errorf("the worker's Malloc took %v, want its debt and its latency %v", workerDone, want)
	}
}

// TestZeroCallLatencyOwesNothing: with no call latency there is nothing to
// owe or pay, and a call that does not wait takes neither time nor a
// dispatch, as before calls could owe.
func TestZeroCallLatencyOwesNothing(t *testing.T) {
	env := vclock.NewEnv(1)
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	drv, err := NewDriver(dev, nccl.NewEngine(env, nccl.DefaultParams()), nopKernels, Params{H2DBandwidth: 25e9, D2HBandwidth: 25e9})
	if err != nil {
		t.Fatal(err)
	}
	r := &testRig{env: env, dev: dev, drv: drv}
	r.inProc(t, func(p *vclock.Proc) {
		t0, d0 := p.Now(), env.Stats().Dispatches
		burst(t, r, p, 3, 0, DefaultStream)
		if debt := p.Settle(); debt != 0 {
			t.Errorf("%v owed under a zero call latency", debt)
		}
		if _, err := drv.Malloc(p, 64, 2, "b"); err != nil {
			t.Error(err)
		}
		if now, d := p.Now(), env.Stats().Dispatches; now != t0 || d != d0 {
			t.Errorf("three launches and a Malloc took %v and %d dispatches, want none", now-t0, d-d0)
		}
	})
}

// TestBufDataSettlesTheStream: a privileged read mid-run sees the launches
// that completed before now and none after, though the stream applies
// them only when the run ends.
func TestBufDataSettlesTheStream(t *testing.T) {
	r := newRig(t, Registry{"inc": func(a KernelArgs) error { a.Bufs[0][0]++; return nil }})
	r.inProc(t, func(p *vclock.Proc) {
		b, _ := r.drv.Malloc(p, 4, 1, "x")
		for i := 0; i < 4; i++ {
			if err := r.drv.Launch(p, LaunchParams{Kernel: "inc", Bufs: []Buf{b}, Dur: vclock.Second}, DefaultStream); err != nil {
				t.Fatal(err)
			}
		}
		var got []float32
		for _, at := range []vclock.Time{vclock.Seconds(0.5), vclock.Seconds(2.5), vclock.Seconds(5)} {
			p.Sleep(at - p.Now())
			data, err := r.drv.BufData(b)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, data[0])
		}
		if fmt.Sprint(got) != "[0 2 4]" {
			t.Errorf("BufData at 0.5s, 2.5s and 5s read %v, want [0 2 4]", got)
		}
	})
}
