package intercept

import (
	"testing"

	"jitckpt/internal/cuda"
	"jitckpt/internal/vclock"
)

// deviceCalls issues n three-buffer launches on the default stream through
// api, each followed by a synchronize: the steady state of a worker's
// device calls, through the user-level layer into the driver when api is
// r.layer, straight into it when api is r.drv.
func deviceCalls(tb testing.TB, api cuda.API, p *vclock.Proc, n int) {
	lp := cuda.LaunchParams{Kernel: "add1", Dur: 10 * vclock.Microsecond} // outlasts the synchronize's call latency
	for i := 0; i < 3; i++ {
		b, err := api.Malloc(p, 64, 2, "w")
		if err != nil {
			tb.Error(err)
			return
		}
		lp.Bufs = append(lp.Bufs, b)
	}
	for i := 0; i < n; i++ {
		if err := api.Launch(p, lp, cuda.DefaultStream); err != nil {
			tb.Error(err)
			return
		}
		if err := api.StreamSynchronize(p, cuda.DefaultStream); err != nil {
			tb.Error(err)
			return
		}
	}
}

// callAllocs is what one Launch + StreamSynchronize through the API api
// picks from a rig allocates: long minus short complete runs, so the fixed
// setup cancels.
func callAllocs(t *testing.T, api func(r *rig) cuda.API) float64 {
	measure := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			r := newRig(t, Config{Mode: ModeUserLevel})
			r.run(t, func(p *vclock.Proc) { deviceCalls(t, api(r), p, n) })
		})
	}
	const short, long = 50, 250
	return (measure(long) - measure(short)) / (long - short)
}

// TestInterceptedLaunchAllocFree pins what a steady-state device call
// allocates on its way through intercept.Layer into cuda.Driver: nothing.
// The launch's buffers are translated into a slice the layer lends, the
// driver's op is pooled, its handles are slice indices, the call latency is
// a timer in a delay lane, and the synchronize waits on the stream's own
// drain event with its one waiter inline.
func TestInterceptedLaunchAllocFree(t *testing.T) {
	perCall := callAllocs(t, func(r *rig) cuda.API { return r.layer })
	t.Logf("%.3f allocs per intercepted Launch + StreamSynchronize", perCall)
	// Measured 0. A translation slice, drain event or waiter list made per
	// call shows as a whole object.
	if perCall > 0.05 {
		t.Errorf("an intercepted Launch + StreamSynchronize allocates %.3f objects, want 0", perCall)
	}
}

// TestDriverLaunchAllocFree: the same call straight into the driver, the
// path of ranks with no interception layer. The driver's typed methods
// pack a cuda.Call for its Do, as the layer's do; the Call stays on the
// stack.
func TestDriverLaunchAllocFree(t *testing.T) {
	perCall := callAllocs(t, func(r *rig) cuda.API { return r.drv })
	t.Logf("%.3f allocs per bare-driver Launch + StreamSynchronize", perCall)
	if perCall > 0.05 {
		t.Errorf("a bare-driver Launch + StreamSynchronize allocates %.3f objects, want 0", perCall)
	}
}

// TestWatchedEventsAllocFree: the watchdog lists its watch-list on every
// poll of every rank, into a slice the layer keeps.
func TestWatchedEventsAllocFree(t *testing.T) {
	r := newRig(t, Config{Mode: ModeUserLevel})
	for _, ev := range []cuda.Event{9, 3, 7} {
		r.layer.watch[ev] = 0
	}
	if allocs := testing.AllocsPerRun(100, func() { r.layer.WatchedEvents() }); allocs != 0 {
		t.Errorf("WatchedEvents allocates %v objects a call, want 0", allocs)
	}
	if got := r.layer.WatchedEvents(); len(got) != 3 || got[0] != 3 || got[1] != 7 || got[2] != 9 {
		t.Errorf("WatchedEvents = %v, want [3 7 9]", got)
	}
}

// BenchmarkDeviceCall times one Launch plus its synchronize, host cost and
// allocations (-benchmem) included: intercepted, and straight into the
// driver.
func BenchmarkDeviceCall(b *testing.B) {
	for _, bc := range []struct {
		name string
		api  func(r *rig) cuda.API
	}{
		{"intercepted", func(r *rig) cuda.API { return r.layer }},
		{"driver", func(r *rig) cuda.API { return r.drv }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := newRig(b, Config{Mode: ModeUserLevel})
			b.ReportAllocs()
			r.env.Go("worker", func(p *vclock.Proc) {
				b.ResetTimer()
				deviceCalls(b, bc.api(r), p, b.N)
			})
			if err := r.env.RunUntil(vclock.Hour); err != nil {
				b.Fatal(err)
			}
		})
	}
}
