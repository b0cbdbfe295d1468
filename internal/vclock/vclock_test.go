package vclock

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv(1)
	var done Time
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(Seconds(2.5))
		done = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != Seconds(2.5) {
		t.Fatalf("woke at %v, want 2.5s", done)
	}
	if env.Now() != Seconds(2.5) {
		t.Fatalf("clock at %v, want 2.5s", env.Now())
	}
}

func TestInterleavingIsDeterministic(t *testing.T) {
	run := func() string {
		var sb strings.Builder
		env := NewEnv(7)
		for i := 0; i < 5; i++ {
			i := i
			env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(Time(i+1) * Millisecond)
					fmt.Fprintf(&sb, "%s@%v ", p.Name(), p.Now())
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic trace:\n%s\nvs\n%s", first, got)
		}
	}
}

func TestEventWakesAllWaiters(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent("go")
	woke := []string{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		env.Go(name, func(p *Proc) {
			p.Wait(ev)
			woke = append(woke, p.Name())
		})
	}
	env.Go("trigger", func(p *Proc) {
		p.Sleep(Second)
		ev.Trigger()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 || woke[0] != "w0" || woke[1] != "w1" || woke[2] != "w2" {
		t.Fatalf("wake order %v, want [w0 w1 w2]", woke)
	}
}

func TestWaitOnTriggeredEventReturnsImmediately(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent("done")
	ev.Trigger()
	var at Time = -1
	env.Go("w", func(p *Proc) {
		p.Wait(ev)
		at = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Fatalf("waited until %v, want 0", at)
	}
}

func TestWaitTimeout(t *testing.T) {
	env := NewEnv(1)
	never := env.NewEvent("never")
	soon := env.NewEvent("soon")
	var timedOut, triggered bool
	var toAt, trAt Time
	env.Go("timeout", func(p *Proc) {
		timedOut = !p.WaitTimeout(never, Seconds(3))
		toAt = p.Now()
	})
	env.Go("triggered", func(p *Proc) {
		triggered = p.WaitTimeout(soon, Seconds(3))
		trAt = p.Now()
	})
	env.Go("firer", func(p *Proc) {
		p.Sleep(Second)
		soon.Trigger()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut || toAt != Seconds(3) {
		t.Fatalf("timeout case: timedOut=%v at %v", timedOut, toAt)
	}
	if !triggered || trAt != Second {
		t.Fatalf("trigger case: triggered=%v at %v", triggered, trAt)
	}
}

func TestTimeoutThenTriggerDoesNotDoubleWake(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent("late")
	wakes := 0
	env.Go("w", func(p *Proc) {
		p.WaitTimeout(ev, Second)
		wakes++
		p.Sleep(Seconds(5))
	})
	env.Go("firer", func(p *Proc) {
		p.Sleep(Seconds(2))
		ev.Trigger() // after the waiter already timed out
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 1 {
		t.Fatalf("woke %d times, want 1", wakes)
	}
}

func TestKillBlockedProcess(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent("never")
	reached := false
	victim := env.Go("victim", func(p *Proc) {
		p.Wait(ev)
		reached = true
	})
	env.Go("killer", func(p *Proc) {
		p.Sleep(Second)
		victim.Kill()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("killed process continued past Wait")
	}
}

func TestKillRunsDeferredCleanup(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent("never")
	cleaned := false
	victim := env.Go("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Wait(ev)
	})
	env.Go("killer", func(p *Proc) {
		p.Sleep(Second)
		victim.Kill()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
}

func TestHungProcessesKilledAtShutdown(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent("never")
	env.Go("hung", func(p *Proc) { p.Wait(ev) })
	env.Go("worker", func(p *Proc) { p.Sleep(Second) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != Second {
		t.Fatalf("clock at %v, want 1s", env.Now())
	}
}

func TestPanicSurfacesAsError(t *testing.T) {
	env := NewEnv(1)
	env.Go("bad", func(p *Proc) {
		p.Sleep(Second)
		panic("boom")
	})
	err := env.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic surfaced", err)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	env := NewEnv(1)
	ticks := 0
	env.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(Second)
			ticks++
		}
	})
	if err := env.RunUntil(Seconds(10)); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	env := NewEnv(1)
	var childAt Time = -1
	env.Go("parent", func(p *Proc) {
		p.Sleep(Second)
		p.Env().Go("child", func(c *Proc) {
			c.Sleep(Second)
			childAt = c.Now()
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != Seconds(2) {
		t.Fatalf("child finished at %v, want 2s", childAt)
	}
}

func TestQueueFIFO(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, "q")
	var got []int
	env.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Pop(p))
		}
	})
	env.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Millisecond)
			q.Push(i)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want FIFO order", got)
		}
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, "q")
	total := 0
	for i := 0; i < 3; i++ {
		env.Go(fmt.Sprintf("c%d", i), func(p *Proc) {
			for j := 0; j < 2; j++ {
				total += q.Pop(p)
			}
		})
	}
	env.Go("producer", func(p *Proc) {
		for i := 1; i <= 6; i++ {
			p.Sleep(Millisecond)
			q.Push(i)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 21 {
		t.Fatalf("total = %d, want 21", total)
	}
}

func TestMutexExclusionAndFairness(t *testing.T) {
	env := NewEnv(1)
	m := NewMutex(env, "gil")
	var order []string
	hold := func(p *Proc, d Time) {
		m.Lock(p)
		order = append(order, p.Name()+"+")
		p.Sleep(d)
		order = append(order, p.Name()+"-")
		m.Unlock(p)
	}
	env.Go("a", func(p *Proc) { hold(p, Second) })
	env.Go("b", func(p *Proc) { hold(p, Second) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a+ a- b+ b-"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

func TestMutexForceRelease(t *testing.T) {
	env := NewEnv(1)
	m := NewMutex(env, "gil")
	hung := env.NewEvent("hung-api")
	var stolen bool
	env.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Wait(hung) // hangs forever holding the lock
	})
	env.Go("watchdog", func(p *Proc) {
		p.Sleep(Second)
		prev := m.ForceRelease()
		if prev == nil || prev.Name() != "holder" {
			t.Errorf("ForceRelease returned %v", prev)
		}
		m.Lock(p)
		stolen = true
		m.Unlock(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !stolen {
		t.Fatal("watchdog failed to steal the lock")
	}
}

// TestSleepOrderProperty: for any set of sleep durations, processes wake in
// nondecreasing deadline order, with FIFO tie-breaking.
func TestSleepOrderProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 {
			return true
		}
		env := NewEnv(1)
		type wake struct {
			at  Time
			idx int
		}
		var wakes []wake
		for i, d := range durs {
			i, d := i, d
			env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(Time(d) * Microsecond)
				wakes = append(wakes, wake{p.Now(), i})
			})
		}
		if err := env.Run(); err != nil {
			return false
		}
		for i := 1; i < len(wakes); i++ {
			if wakes[i].at < wakes[i-1].at {
				return false
			}
			if wakes[i].at == wakes[i-1].at && durs[wakes[i].idx] == durs[wakes[i-1].idx] &&
				wakes[i].idx < wakes[i-1].idx {
				return false // same duration must preserve spawn order
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestClockMonotonicProperty: the clock never goes backwards no matter how
// sleeps, events and kills interleave.
func TestClockMonotonicProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		env := NewEnv(seed)
		count := int(n%8) + 2
		evs := make([]*Event, count)
		for i := range evs {
			evs[i] = env.NewEvent(fmt.Sprintf("e%d", i))
		}
		last := Time(0)
		mono := true
		for i := 0; i < count; i++ {
			i := i
			env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(Time(env.Rand().Intn(1000)+1) * Microsecond)
					if p.Now() < last {
						mono = false
					}
					last = p.Now()
					evs[i].Trigger()
					if i > 0 {
						p.WaitTimeout(evs[i-1], Millisecond)
					}
				}
			})
		}
		if err := env.Run(); err != nil {
			return false
		}
		return mono
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSleepWake(b *testing.B) {
	env := NewEnv(1)
	env.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkQueueThroughput(b *testing.B) {
	env := NewEnv(1)
	q := NewQueue[int](env, "q")
	env.Go("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Pop(p)
		}
	})
	env.Go("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Push(i)
			if i%64 == 0 {
				p.Sleep(Microsecond)
			}
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSwitchRing is the fleet-shaped process switch: 2000 processes in
// a ring, each popping its own queue and pushing the next one's, so every
// hop lands on a process that last ran 2000 hops ago (a cold goroutine).
// Creating the processes and killing them at the end are outside the timer.
func BenchmarkSwitchRing(b *testing.B) {
	const n = 2000
	b.ReportAllocs()
	env := NewEnv(1)
	qs := make([]*Queue[int], n)
	for i := range qs {
		qs[i] = NewQueue[int](env, "q")
	}
	for i := range qs {
		mine, next := qs[i], qs[(i+1)%n]
		env.Go("node", func(p *Proc) {
			for {
				left := mine.Pop(p)
				if left == 0 {
					b.StopTimer()
					return
				}
				next.Push(left - 1)
			}
		})
	}
	env.Go("starter", func(p *Proc) { // runs once every node is parked in Pop
		b.ResetTimer()
		qs[0].Push(b.N)
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// Property: under any interleaving of pushes and pops across two
// processes, the queue delivers every pushed value exactly once, in FIFO
// order.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(pushGaps []uint8) bool {
		if len(pushGaps) == 0 {
			return true
		}
		if len(pushGaps) > 64 {
			pushGaps = pushGaps[:64]
		}
		env := NewEnv(1)
		q := NewQueue[int](env, "q")
		var got []int
		env.Go("consumer", func(p *Proc) {
			for i := 0; i < len(pushGaps); i++ {
				got = append(got, q.Pop(p))
			}
		})
		env.Go("producer", func(p *Proc) {
			for i, g := range pushGaps {
				if g > 0 {
					p.Sleep(Time(g) * Microsecond)
				}
				q.Push(i)
			}
		})
		if err := env.Run(); err != nil {
			return false
		}
		if len(got) != len(pushGaps) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEventNameAndTriggerIdempotence covers the remaining Event surface.
func TestEventNameAndTriggerIdempotence(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent("named")
	if ev.name != "named" || ev.Triggered() {
		t.Fatal("fresh event state wrong")
	}
	wakes := 0
	env.Go("w", func(p *Proc) {
		p.Wait(ev)
		wakes++
	})
	env.Go("t", func(p *Proc) {
		p.Sleep(Second)
		ev.Trigger()
		ev.Trigger() // idempotent
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 1 || !ev.Triggered() {
		t.Fatalf("wakes=%d triggered=%v", wakes, ev.Triggered())
	}
}
