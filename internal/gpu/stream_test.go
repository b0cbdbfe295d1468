package gpu

import (
	"errors"
	"testing"

	"jitckpt/internal/vclock"
)

// TestOpWaitCostsInDispatches pins what each kind of wait costs the kernel.
// The numbers were recorded from the coroutine stream executor with the
// equivalent ops (a Run that returns at once, Sleep(0), Sleep(d), Wait on a
// triggered and on an untriggered event): a begun op whose event is already
// triggered completes in the dispatch that popped it, a zero Dur costs
// exactly one more dispatch (the yield), a positive one a timer fire too.
func TestOpWaitCostsInDispatches(t *testing.T) {
	// Stream parks on its queue, issuer sleeps and wakes, enqueues and parks,
	// stream runs the op, issuer wakes; shutdown retires the stream: 6, with
	// the issuer's timer and the op's Done.
	base := vclock.Stats{Dispatches: 6, TimerFires: 1, Triggers: 1, Spawns: 2}
	ran := 0
	exec := func(*Device) error { ran++; return nil }
	for _, c := range []struct {
		name       string
		op         func(env *vclock.Env) *Op
		dispatches uint64
		timerFires uint64
		dur        vclock.Time
	}{
		{"Ev already triggered", func(env *vclock.Env) *Op { return &Op{Ev: env.DoneEvent(), Exec: exec} }, 0, 0, 0},
		{"Begin sets a triggered Ev", func(env *vclock.Env) *Op {
			op := &Op{Exec: exec}
			op.Begin = func(*Device) error { op.Ev = env.DoneEvent(); return nil }
			return op
		}, 0, 0, 0},
		{"Dur 0", func(*vclock.Env) *Op { return &Op{Exec: exec} }, 1, 0, 0},
		{"Dur 3s", func(*vclock.Env) *Op { return &Op{Dur: 3 * vclock.Second, Exec: exec} }, 1, 1, 3 * vclock.Second},
		{"Begin sets Dur 3s", func(*vclock.Env) *Op {
			op := &Op{Exec: exec}
			op.Begin = func(*Device) error { op.Dur = 3 * vclock.Second; return nil }
			return op
		}, 1, 1, 3 * vclock.Second},
	} {
		ran = 0
		env, d := newTestDevice(t)
		s, _ := d.NewStream()
		op := c.op(env)
		doneAt := vclock.Time(-1)
		env.Go("issuer", func(p *vclock.Proc) {
			p.Sleep(vclock.Second)
			p.Wait(s.Enqueue(op))
			doneAt = p.Now()
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		want := base
		want.Dispatches += c.dispatches
		want.TimerFires += c.timerFires
		if got := env.Stats(); got != want || doneAt != vclock.Second+c.dur || ran != 1 || op.Err != nil {
			t.Errorf("%s: %+v done at %v after %d Exec, err %v; want %+v at %v after 1", c.name, got, doneAt, ran, op.Err, want, vclock.Second+c.dur)
		}
	}
}

// TestOpWaitsForUntriggeredEvent: an op whose Begin names an untriggered
// event parks the stream, ops behind it included, until the trigger.
func TestOpWaitsForUntriggeredEvent(t *testing.T) {
	env, d := newTestDevice(t)
	s, _ := d.NewStream()
	gate := env.NewEvent("gate")
	var order []string
	waiter := &Op{Name: "waiter", Exec: func(*Device) error { order = append(order, "waiter"); return nil }}
	waiter.Begin = func(*Device) error { waiter.Ev = gate; return nil }
	var waiterAt, behindAt vclock.Time
	env.Go("issuer", func(p *vclock.Proc) {
		ew := s.Enqueue(waiter)
		eb := s.Enqueue(funcOp("behind", vclock.Second, func(*Device) error { order = append(order, "behind"); return nil }))
		p.Wait(ew)
		waiterAt = p.Now()
		p.Wait(eb)
		behindAt = p.Now()
	})
	env.Go("opener", func(p *vclock.Proc) {
		p.Sleep(5 * vclock.Second)
		if d.PendingOps() != 2 {
			t.Errorf("PendingOps = %d before the gate opens, want 2", d.PendingOps())
		}
		gate.Trigger()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if waiterAt != 5*vclock.Second || behindAt != 6*vclock.Second || len(order) != 2 || order[0] != "waiter" {
		t.Fatalf("waiter done at %v, behind at %v, order %v; want 5s, 6s, [waiter behind]", waiterAt, behindAt, order)
	}
}

// TestBeginErrorCompletesAtOnce: an error from Begin is the op's outcome,
// with no wait and no Exec; the stream carries it as its async error, the
// op's Done and the stream's drain event fire, and the next op still runs.
func TestBeginErrorCompletesAtOnce(t *testing.T) {
	env, d := newTestDevice(t)
	s, _ := d.NewStream()
	boom := errors.New("boom")
	execRan, freed := false, false
	bad := &Op{
		Name:  "bad",
		Dur:   vclock.Hour,
		Begin: func(*Device) error { return boom },
		Exec:  func(*Device) error { execRan = true; return nil },
		Free:  func() { freed = true },
	}
	next := &Op{Name: "next", Dur: vclock.Second}
	env.Go("issuer", func(p *vclock.Proc) {
		p.Sleep(vclock.Second)
		done := s.Enqueue(bad)
		drain := s.DrainEvent()
		p.Wait(done)
		if p.Now() != vclock.Second || !drain.Triggered() || d.PendingOps() != 0 {
			t.Errorf("failed op done at %v, drained=%v, pending=%d; want 1s, true, 0", p.Now(), drain.Triggered(), d.PendingOps())
		}
		p.Wait(s.Enqueue(next))
		if p.Now() != 2*vclock.Second {
			t.Errorf("next op done at %v, want 2s", p.Now())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if execRan || !freed || bad.Err != boom || s.AsyncErr() != boom || next.Err != nil {
		t.Fatalf("Exec ran=%v, freed=%v, op err %v, stream err %v, next err %v", execRan, freed, bad.Err, s.AsyncErr(), next.Err)
	}
}

// TestKilledMidWaitNeverCompletes: whatever kills the stream while an op is
// waiting — its destruction, a device reset, a hard failure, or the end of
// the run — the op's Exec and Free never run and its Done never fires,
// whether it waited on a timer or on an event, and neither does anything
// queued behind it.
func TestKilledMidWaitNeverCompletes(t *testing.T) {
	kills := map[string]func(d *Device, s *Stream){
		"DestroyStream": func(d *Device, s *Stream) {
			if err := d.DestroyStream(s.ID); err != nil {
				t.Error(err)
			}
		},
		"Reset": func(d *Device, s *Stream) {
			if err := d.Reset(); err != nil {
				t.Error(err)
			}
		},
		"InjectHard": func(d *Device, s *Stream) { d.InjectHard() },
		"shutdown":   func(*Device, *Stream) {},
	}
	for name, kill := range kills {
		for _, onEvent := range []bool{false, true} {
			env, d := newTestDevice(t)
			s, _ := d.NewStream()
			touched := ""
			op := &Op{
				Name: "inflight",
				Dur:  10 * vclock.Second,
				Exec: func(*Device) error { touched += "exec "; return nil },
				Free: func() { touched += "free " },
			}
			if onEvent {
				op.Ev = env.NewEvent("never")
			}
			behind := funcOp("behind", 0, func(*Device) error { touched += "behind "; return nil })
			env.Go("w", func(p *vclock.Proc) {
				s.Enqueue(op)
				s.Enqueue(behind)
				p.Sleep(vclock.Second)
				kill(d, s)
			})
			if err := env.RunUntil(5 * vclock.Second); err != nil {
				t.Fatal(err)
			}
			if touched != "" || op.Done.Triggered() || behind.Done.Triggered() || op.Err != nil || s.pending != 2 {
				t.Errorf("%s, waiting on event=%v: touched %q, done %v/%v, err %v, pending %d",
					name, onEvent, touched, op.Done.Triggered(), behind.Done.Triggered(), op.Err, s.pending)
			}
		}
	}
}
