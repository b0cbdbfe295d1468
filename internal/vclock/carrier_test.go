package vclock

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// goid is the id of the calling goroutine, read off the header of its stack
// trace. Ids are never reused, so two bodies with one id ran on one carrier.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestSuccessiveProcessesShareACarrier: processes that run one after another
// run on one goroutine, and the Env has one goroutine while they do.
func TestSuccessiveProcessesShareACarrier(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv(1)
	var ids []string
	var counts []int
	leaf := func(p *Proc) {
		ids = append(ids, goid())
		counts = append(counts, runtime.NumGoroutine()-base)
	}
	for i := 0; i < 5; i++ {
		env.Go("leaf", leaf)
	}
	env.Go("spawner", func(p *Proc) {
		for i := 0; i < 5; i++ {
			env.Go("late", leaf)
			p.Sleep(Second)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// The five leaves queued at the start share one carrier, and the spawner
	// takes it after them. It is parked while the late leaves run, so they
	// share a second one.
	for i, id := range ids {
		if first := ids[i/5*5]; id != first {
			t.Errorf("leaf %d ran on goroutine %s, leaf %d on %s", i, id, i/5*5, first)
		}
	}
	if ids[0] == ids[5] {
		t.Errorf("a late leaf ran on the parked spawner's goroutine %s", ids[0])
	}
	if got, want := fmt.Sprint(counts), "[1 1 1 1 1 2 2 2 2 2]"; got != want {
		t.Errorf("goroutines beside the test's own, per leaf: %s, want %s", got, want)
	}
	waitGoroutines(t, base, "successive processes")
}

// TestKilledProcessLeavesACleanCarrier: a process killed mid-body runs its
// deferred calls, and its carrier then runs a later process, which blocks,
// wakes and returns like any other, and is not the killed one.
func TestKilledProcessLeavesACleanCarrier(t *testing.T) {
	env := NewEnv(1)
	var log []string
	var victimID, heirID string
	victim := env.Go("victim", func(p *Proc) {
		victimID = goid()
		defer func() { log = append(log, fmt.Sprintf("victim cleaned up at %v", p.Now())) }()
		p.Sleep(Hour)
		log = append(log, "victim woke")
	})
	env.Go("killer", func(p *Proc) {
		p.Sleep(Second)
		victim.Kill()
		p.Sleep(Second)
		// Parked while the heir starts, so the heir cannot take this
		// process's own carrier.
		defer p.Sleep(Second)
		env.Go("heir", func(q *Proc) {
			heirID = goid()
			defer func() { log = append(log, fmt.Sprintf("heir done at %v, recovered %v", q.Now(), recover())) }()
			q.Sleep(Second)
			q.Yield()
			log = append(log, fmt.Sprintf("heir woke at %v", q.Now()))
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := "victim cleaned up at 1.000s; heir woke at 3.000s; heir done at 3.000s, recovered <nil>"
	if got := strings.Join(log, "; "); got != want {
		t.Errorf("log %q, want %q", got, want)
	}
	if heirID != victimID {
		t.Errorf("heir ran on goroutine %s, the killed victim's carrier is %s", heirID, victimID)
	}
}

// TestBecomeTakesAnIdleCarrier: a callback process that turns into a
// coroutine after a coroutine has ended takes that one's carrier.
func TestBecomeTakesAnIdleCarrier(t *testing.T) {
	env := NewEnv(1)
	var first, became string
	env.Go("first", func(p *Proc) { first = goid() })
	n := 0
	env.GoFunc("cb", func(p *Proc) {
		if n++; n == 1 {
			p.SleepNext(Second)
			return
		}
		p.Become(func(p *Proc) {
			became = goid()
			p.Sleep(Second)
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if became == "" || became != first {
		t.Errorf("Become ran its body on goroutine %q, the idle carrier is %s", became, first)
	}
	if got, want := env.Stats(), (Stats{Dispatches: 4, TimerFires: 2, Spawns: 2}); got != want {
		t.Errorf("%+v, want %+v", got, want)
	}
}

// TestGoexitCarrierIsNotReused: a carrier that a runtime.Goexit unwound is
// dead and never offered to another process, even when it had run one
// before; the Goexit still ends the run and leaves no goroutine behind.
func TestGoexitCarrierIsNotReused(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv(1)
	var first, quitter string
	idleAtShutdown := -1
	env.Go("sleeper", func(p *Proc) {
		defer func() { idleAtShutdown = len(env.idle) }()
		p.Sleep(Hour)
	})
	env.Go("first", func(p *Proc) { first = goid() })
	env.Go("quitter", func(p *Proc) {
		quitter = goid()
		p.Sleep(Millisecond)
		runtime.Goexit()
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		env.Run()
	}()
	<-done
	if quitter != first {
		t.Errorf("quitter ran on goroutine %s, want first's idle carrier %s", quitter, first)
	}
	if idleAtShutdown != 0 {
		t.Errorf("%d idle carriers when shutdown killed the sleeper, want 0: the Goexit'd one is dead", idleAtShutdown)
	}
	if len(env.idle) != 0 || len(env.procs) != 0 {
		t.Errorf("idle=%d procs=%d after the run, want 0 and 0", len(env.idle), len(env.procs))
	}
	waitGoroutines(t, base, "goexit in a reused carrier")
}

// BenchmarkSpawnRetire is the host cost of a coroutine process from spawn to
// retirement, in ns/spawn, in two shapes. sequential: 50 000 leaves that run
// one after another in one Env (the repo benchmark's vclock.spawn_ns), which
// share one carrier. parked: 10 000 leaves all parked at once when the run
// ends, each on a carrier of its own, which shutdown kills.
func BenchmarkSpawnRetire(b *testing.B) {
	shapes := []struct {
		name string
		n    int
		body func(ev *Event) func(*Proc)
	}{
		{"sequential", 50000, func(*Event) func(*Proc) { return func(*Proc) {} }},
		{"parked", 10000, func(ev *Event) func(*Proc) { return func(p *Proc) { p.Wait(ev) } }},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env := NewEnv(1)
				body := s.body(env.NewEvent("never"))
				for j := 0; j < s.n; j++ {
					env.Go("leaf", body)
				}
				if err := env.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.n), "ns/spawn")
		})
	}
}
