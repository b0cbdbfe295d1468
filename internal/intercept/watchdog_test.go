package intercept

import (
	"testing"

	"jitckpt/internal/cuda"
	"jitckpt/internal/gpu"
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
