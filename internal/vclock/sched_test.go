package vclock

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/order.golden")

// procLog is a ProcRecorder writing process start/end into the same log the
// program's steps go to, so the position of every retirement is pinned too.
type procLog struct{ sb *strings.Builder }

func (l procLog) ProcStart(t Time, id int, name string) {
	fmt.Fprintf(l.sb, "%d start %s#%d\n", t, name, id)
}
func (l procLog) ProcEnd(t Time, id int, name string) {
	fmt.Fprintf(l.sb, "%d end %s#%d\n", t, name, id)
}

// censusLog is procLog that also logs each process's dispatch total when it
// retires (DispatchRecorder) and counts the processes dispatched in both
// forms: those that became coroutines after a dispatch as a callback.
type censusLog struct {
	procLog
	switched *int
}

func (l censusLog) ProcDispatches(id int, name string, callback, coroutine uint64) {
	fmt.Fprintf(l.sb, "dispatches %s#%d %d\n", name, id, callback+coroutine)
	if callback > 0 && coroutine > 0 {
		*l.switched++
	}
}

func logStats(sb *strings.Builder, env *Env) {
	s := env.Stats()
	fmt.Fprintf(sb, "now=%d dispatches=%d timer_fires=%d triggers=%d spawns=%d timers_left=%d\n",
		env.Now(), s.Dispatches, s.TimerFires, s.Triggers, s.Spawns, env.timers.n)
}

// A script is a process body written once and run by two interpreters: as a
// coroutine that blocks (world.run) and as a callback process that parks and
// returns (stepper.step). Every expectation about a callback process in this
// file is the log of the same script under the coroutine interpreter, which
// runs unchanged on the kernel that had no callbacks.
type instr struct {
	op byte // see world.run
	i  int  // which event
	d  Time
}

var instrNames = map[byte]string{'s': "sleep", 'w': "wait", 't': "waittimeout", 'p': "pop", 'T': "trigger", 'P': "push", 'k': "kill self", 'c': "become a coroutine"}

func (in instr) String() string { return fmt.Sprintf("%s e%d %d", instrNames[in.op], in.i, in.d) }

// world is what scripts act on. say logs instruction pc of p: its text
// before it executes, "done" (or a popped value) after.
type world struct {
	env    *Env
	form   form // what spawn makes
	evs    []*Event
	q      *Queue[int]
	pushed int
	say    func(p *Proc, pc int, text string)
}

// act executes the instructions that never park.
func (w *world) act(p *Proc, in instr) {
	switch in.op {
	case 'T':
		w.evs[in.i].Trigger()
		w.evs[in.i] = w.env.NewEvent("e")
	case 'P':
		w.pushed++
		w.q.Push(w.pushed)
	case 'k':
		p.Kill()
	}
}

// form is how a script's process is made.
type form int

const (
	coroutine form = iota
	callback
)

var forms = []form{coroutine, callback}

func (f form) String() string { return [...]string{"coroutine", "callback"}[f] }

// spawn starts a process running script, in the world's form.
func (w *world) spawn(name string, script []instr) *Proc {
	if w.form == callback {
		return w.env.GoFunc(name, (&stepper{w: w, script: script}).step)
	}
	return w.env.Go(name, func(p *Proc) { w.run(p, script, 0) })
}

// run is the coroutine interpreter, from instruction pc on. To it "become a
// coroutine" is a no-op.
func (w *world) run(p *Proc, script []instr, pc int) {
	for ; pc < len(script); pc++ {
		in := script[pc]
		w.say(p, pc, in.String())
		switch in.op {
		case 's':
			p.Sleep(in.d)
		case 'w':
			p.Wait(w.evs[in.i])
		case 't':
			p.WaitTimeout(w.evs[in.i], in.d)
		case 'p':
			w.say(p, pc, fmt.Sprintf("-> %d", w.q.Pop(p)))
		default:
			w.act(p, in)
		}
		w.say(p, pc, "done")
	}
}

// stepper is the callback interpreter: where run blocks, step registers the
// wake-up, remembers that it did (woken: the next dispatch is the return
// from that wait) and returns. At "become a coroutine" it hands the rest of
// the script to run (Proc.Become).
type stepper struct {
	w      *world
	script []instr
	pc     int
	woken  bool
}

func (s *stepper) step(p *Proc) {
	w := s.w
	for ; s.pc < len(s.script); s.pc++ {
		in := s.script[s.pc]
		if !s.woken {
			w.say(p, s.pc, in.String())
			parked := false
			switch in.op {
			case 's':
				p.SleepNext(in.d)
				parked = true
			case 'w':
				parked = p.WaitNext(w.evs[in.i], 0)
			case 't':
				parked = p.WaitNext(w.evs[in.i], in.d)
			case 'p':
			case 'c':
				w.say(p, s.pc, "done")
				rest := s.pc + 1
				p.Become(func(p *Proc) { w.run(p, s.script, rest) })
				return
			default:
				w.act(p, in)
			}
			if parked {
				s.woken = true
				return
			}
		}
		s.woken = false
		if in.op == 'p' {
			v, ok := w.q.PopNext(p)
			if !ok {
				s.woken = true
				return
			}
			w.say(p, s.pc, fmt.Sprintf("-> %d", v))
		}
		w.say(p, s.pc, "done")
	}
}

// orderProgram is a seeded random program over every kernel primitive. Its
// draws come from its own source, in execution order, so the log is a
// function of the kernel's scheduling order and nothing else. With scripted
// set, every other process it spawns is a scripted one in that form, drawn
// from the same source when it is spawned.
type orderProgram struct {
	world
	rng      *rand.Rand
	sb       *strings.Builder
	m        *Mutex
	procs    []*Proc
	scripted bool
	become   bool // each script becomes a coroutine at a drawn instruction
}

// spawnScripted draws a script of n instructions and starts it.
func (o *orderProgram) spawnScripted(name string, n int) {
	r := o.rng
	script := make([]instr, n)
	for k := range script {
		script[k] = instr{op: "ssswwtttppTTPP"[r.Intn(14)], i: r.Intn(len(o.evs)), d: Time(r.Intn(6)-1) * Microsecond}
		if script[k].op == 't' && script[k].d <= 0 {
			script[k].d = 5 * Microsecond // WaitNext has no expired-on-arrival form
		}
	}
	if o.become {
		script = slices.Insert(script, r.Intn(n+1), instr{op: 'c'})
	}
	o.procs = append(o.procs, o.world.spawn(name, script))
}

// popTimeout is Pop with a deadline: a timed park on the queue's waiter
// list, the one park that a timer and a wake-all Push can both end, and where
// a wake can find the queue emptied again. No command pops with a deadline;
// the order program and TestKillRaces drive the kernel through it.
func popTimeout[T any](q *Queue[T], p *Proc, d Time) (v T, ok bool) {
	deadline := p.Now() + d
	for q.Len() == 0 {
		p.unwindIfKilled()
		remain := deadline - p.Now()
		if remain <= 0 || (p.park(&q.waiters, remain) == wakeTimeout && q.Len() == 0) {
			return v, false
		}
	}
	return q.popHead(), true
}

// orderMaxProcs caps the processes one program spawns.
const orderMaxProcs = 24

func (o *orderProgram) spawn(name string, steps int) {
	if o.scripted && len(o.procs)%2 == 1 {
		o.spawnScripted(name, steps)
		return
	}
	var self *Proc
	self = o.env.Go(name, func(p *Proc) {
		defer func() { fmt.Fprintf(o.sb, "%d %s unwinds\n", p.Now(), name) }()
		for s := 0; s < steps; s++ {
			o.step(p, s)
		}
	})
	o.procs = append(o.procs, self)
}

func (o *orderProgram) step(p *Proc, s int) {
	r := o.rng
	say := func(format string, args ...interface{}) {
		fmt.Fprintf(o.sb, "%d %s %d ", p.Now(), p.Name(), s)
		fmt.Fprintf(o.sb, format, args...)
		o.sb.WriteByte('\n')
	}
	dur := func() Time { return Time(r.Intn(6)-1) * Microsecond }
	switch op := r.Intn(24); op {
	case 0, 1, 2:
		d := dur()
		say("sleep %d", d)
		p.Sleep(d)
		say("slept")
	case 3:
		say("yield")
		p.Yield()
		say("yielded")
	case 4:
		i := r.Intn(len(o.evs))
		say("wait e%d", i)
		p.Wait(o.evs[i])
		say("waited")
	case 5, 6, 7:
		i, d := r.Intn(len(o.evs)), dur()
		say("waittimeout e%d %d", i, d)
		say("-> %v", p.WaitTimeout(o.evs[i], d))
	case 8, 9:
		i := r.Intn(len(o.evs))
		rearm := r.Intn(2) == 0
		say("trigger e%d rearm=%v", i, rearm)
		o.evs[i].Trigger()
		if rearm {
			o.evs[i] = o.env.NewEvent("e")
		}
	case 10:
		victim := o.procs[r.Intn(len(o.procs))]
		say("kill %s", victim.Name())
		victim.Kill()
		if victim == p {
			// A process that killed itself unwinds at its next blocking
			// call; make that call here so it never reaches Mutex.Lock,
			// whose behaviour for a killed caller is a separate test.
			p.Yield()
		}
	case 11:
		if len(o.procs) < orderMaxProcs {
			name := fmt.Sprintf("c%d", len(o.procs))
			say("go %s", name)
			o.spawn(name, 4+r.Intn(8))
		}
	case 12, 13:
		o.pushed++
		say("push %d", o.pushed)
		o.q.Push(o.pushed)
	case 14:
		say("pop")
		say("-> %d", o.q.Pop(p))
	case 15, 16:
		d := dur()
		say("poptimeout %d", d)
		v, ok := popTimeout(o.q, p, d)
		say("-> %d %v", v, ok)
	case 17:
		v, ok := o.q.TryPop()
		say("trypop -> %d %v", v, ok)
	case 18:
		if o.m.Owner() == p {
			say("unlock")
			o.m.Unlock(p)
		} else {
			say("lock")
			o.m.Lock(p)
			say("locked")
		}
	case 19:
		say("lock")
		if o.m.Owner() != p {
			o.m.Lock(p)
		}
		d := dur()
		say("locked, sleep %d", d)
		p.Sleep(d)
		if o.m.Owner() == p { // unless a ForceRelease took it meanwhile
			say("unlock")
			o.m.Unlock(p)
		}
	case 20:
		prev := o.m.ForceRelease()
		name := "nobody"
		if prev != nil {
			name = prev.Name()
		}
		say("forcerelease from %s", name)
	default:
		i, d := r.Intn(len(o.evs)), dur()+Microsecond
		say("sleep %d, trigger e%d", d, i)
		p.Sleep(d)
		o.evs[i].Trigger()
		o.evs[i] = o.env.NewEvent("e")
	}
}

// inline and onFreshGoroutine are the two ways runOrderProgram issues a
// RunUntil call: on its caller's goroutine, or on one made for that call.
func inline(run func() error) error { return run() }

func onFreshGoroutine(run func() error) error {
	done := make(chan error)
	go func() { done <- run() }()
	return <-done
}

// runOrderProgram runs the program under seed to its horizon, then runs the
// same Env again to completion: the second run starts from whatever the
// first run's shutdown left behind (dead processes' timers included).
func runOrderProgram(sb *strings.Builder, seed int64, horizon Time, call func(run func() error) error) error {
	return runOrderProgramIn(sb, seed, horizon, call, nil, nil)
}

// runOrderProgramIn is runOrderProgram with every other process scripted, in
// form *scripted (nil: none, the program order.golden's first three sections
// were generated from). With switched set, each script becomes a coroutine
// at a drawn instruction, each process's dispatches are logged when it
// retires, and *switched counts the processes that switched form.
func runOrderProgramIn(sb *strings.Builder, seed int64, horizon Time, call func(run func() error) error, scripted *form, switched *int) error {
	become := switched != nil
	fmt.Fprintf(sb, "# seed %d horizon %d\n", seed, horizon)
	env := NewEnv(seed)
	if become {
		env.SetRecorder(censusLog{procLog{sb}, switched})
	} else {
		env.SetRecorder(procLog{sb})
	}
	o := &orderProgram{rng: rand.New(rand.NewSource(seed)), sb: sb, scripted: scripted != nil, become: become}
	o.env = env
	if scripted != nil {
		o.form = *scripted
	}
	o.say = func(p *Proc, pc int, text string) { fmt.Fprintf(sb, "%d %s %d %s\n", p.Now(), p.Name(), pc, text) }
	for i := 0; i < 5; i++ {
		o.evs = append(o.evs, env.NewEvent("e"))
	}
	o.q = NewQueue[int](env, "q")
	o.m = NewMutex(env, "m")
	for i := 0; i < 8; i++ {
		o.spawn(fmt.Sprintf("p%d", i), 20+o.rng.Intn(10))
	}
	// The janitor keeps the program alive: without it most processes end up
	// parked on an event, an empty queue or a dead owner's mutex.
	env.Go("janitor", func(p *Proc) {
		for i := 0; i < 12; i++ {
			p.Sleep(3 * Microsecond)
			fmt.Fprintf(sb, "%d janitor %d\n", p.Now(), i)
			o.m.ForceRelease()
			o.pushed++
			o.q.Push(o.pushed)
			for j, ev := range o.evs {
				ev.Trigger()
				o.evs[j] = env.NewEvent("e")
			}
		}
	})
	if err := call(func() error { return env.RunUntil(horizon) }); err != nil {
		return err
	}
	logStats(sb, env)
	fmt.Fprintf(sb, "# seed %d second run\n", seed)
	o.spawn("late", 12)
	if err := call(env.Run); err != nil {
		return err
	}
	logStats(sb, env)
	return nil
}

// orderSections runs the golden's six programs: three of coroutines only,
// then three with every other process scripted in form f.
func orderSections(t *testing.T, f form) string {
	var sb strings.Builder
	for i, c := range []struct {
		seed    int64
		horizon Time
	}{{1, -1}, {2, 10 * Microsecond}, {3, 20 * Microsecond}, {4, -1}, {5, 10 * Microsecond}, {6, 20 * Microsecond}} {
		scripted := &f
		if i < 3 {
			scripted = nil
		}
		if err := runOrderProgramIn(&sb, c.seed, c.horizon, inline, scripted, nil); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// TestSchedulingOrderGolden compares the (time, process, step) log and the
// final counters of the random program with testdata/order.golden. Its first
// three sections were generated by the first kernel: the scheduling order —
// run queue FIFO, timers by (deadline, seq) — and every counter are
// unchanged. The last three, where half the processes are scripted, were
// generated by the kernel that had no callback process, the scripts run as
// coroutines: callback processes are scheduled, killed, counted and recorded
// as those coroutines were.
func TestSchedulingOrderGolden(t *testing.T) {
	path := filepath.Join("testdata", "order.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(orderSections(t, coroutine)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range forms {
		got := orderSections(t, f)
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("scripts as %v: scheduling order diverges at line %d:\n got: %s\nwant: %s", f, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("scripts as %v: scheduling log has %d lines, golden %d", f, len(gl), len(wl))
	}
}

// raceRig is one kill-race scenario's Env and its log of who did what when.
type raceRig struct {
	env *Env
	log []string
}

func (r *raceRig) note(format string, args ...interface{}) {
	r.log = append(r.log, fmt.Sprintf("%v ", r.env.Now())+fmt.Sprintf(format, args...))
}

func (r *raceRig) ProcStart(Time, int, string)        {}
func (r *raceRig) ProcEnd(_ Time, _ int, name string) { r.note("%s ends", name) }

// victim runs body, noting whether it got past it and when it unwound.
func (r *raceRig) victim(name string, body func(p *Proc)) *Proc {
	return r.env.Go(name, func(p *Proc) {
		defer r.note("%s unwinds", name)
		body(p)
		r.note("%s resumed", name)
	})
}

// bystander marks a position in the run queue.
func (r *raceRig) bystander(d Time) {
	r.env.Go("b", func(p *Proc) {
		if d > 0 {
			p.Sleep(d)
		}
		r.note("b runs")
	})
}

// TestKillRaces pins the order and the counters of every way a kill can
// race a wakeup. The expectations were recorded from the kernel this one
// replaced (the shared-lane row from the last kernel without delay lanes);
// "timers=" is the number of pending timers where the scenario reads it.
func TestKillRaces(t *testing.T) {
	cases := []struct {
		name  string
		build func(r *raceRig)
		want  string
	}{
		{"WaitTimeout killed, event triggered in the same step", func(r *raceRig) {
			ev := r.env.NewEvent("ev")
			v := r.victim("v", func(p *Proc) { p.WaitTimeout(ev, 10*Second) })
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				v.Kill()
				ev.Trigger()
				r.note("timers=%d", r.env.timers.n)
			})
			r.bystander(Second)
		}, "1.000s timers=1; 1.000s killer ends; 1.000s v unwinds; 1.000s v ends; 1.000s b runs; 1.000s b ends; end 1.000s {Dispatches:6 TimerFires:2 Triggers:1 Spawns:3} timers=0"},
		{"WaitTimeout killed, event triggered after the victim unwound", func(r *raceRig) {
			ev := r.env.NewEvent("ev")
			v := r.victim("v", func(p *Proc) { p.WaitTimeout(ev, 10*Second) })
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				v.Kill()
				p.Sleep(Second)
				r.note("timers=%d", r.env.timers.n)
				ev.Trigger()
				r.note("timers=%d", r.env.timers.n)
			})
		}, "1.000s v unwinds; 1.000s v ends; 2.000s timers=1; 2.000s timers=0; 2.000s killer ends; end 2.000s {Dispatches:5 TimerFires:2 Triggers:1 Spawns:2} timers=0"},
		{"WaitTimeout killed, event never triggered", func(r *raceRig) {
			ev := r.env.NewEvent("ev")
			v := r.victim("v", func(p *Proc) { p.WaitTimeout(ev, 10*Second) })
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				v.Kill()
			})
		}, "1.000s killer ends; 1.000s v unwinds; 1.000s v ends; end 10.000s {Dispatches:4 TimerFires:2 Triggers:0 Spawns:2} timers=0"},
		{"queued by Yield", func(r *raceRig) {
			v := r.victim("v", func(p *Proc) { p.Yield() })
			r.env.Go("killer", func(p *Proc) {
				v.Kill() // v sits behind b in the run queue
				v.Kill()
			})
			r.bystander(0)
		}, "0.000s killer ends; 0.000s b runs; 0.000s b ends; 0.000s v unwinds; 0.000s v ends; end 0.000s {Dispatches:4 TimerFires:0 Triggers:0 Spawns:3} timers=0"},
		{"woken by an event, not yet run", func(r *raceRig) {
			ev := r.env.NewEvent("ev")
			v := r.victim("v", func(p *Proc) { p.Wait(ev) })
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				ev.Trigger()
				v.Kill()
				v.Kill()
			})
			r.bystander(Second)
		}, "1.000s killer ends; 1.000s v unwinds; 1.000s v ends; 1.000s b runs; 1.000s b ends; end 1.000s {Dispatches:6 TimerFires:2 Triggers:1 Spawns:3} timers=0"},
		{"woken by a queue push, not yet run", func(r *raceRig) {
			q := NewQueue[int](r.env, "q")
			v := r.victim("v", func(p *Proc) { popTimeout(q, p, 10*Second) })
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				q.Push(1)
				v.Kill()
				r.note("timers=%d", r.env.timers.n)
			})
			r.bystander(Second)
		}, "1.000s timers=1; 1.000s killer ends; 1.000s v unwinds; 1.000s v ends; 1.000s b runs; 1.000s b ends; end 1.000s {Dispatches:6 TimerFires:2 Triggers:0 Spawns:3} timers=0"},
		{"woken by a mutex release, not yet run", func(r *raceRig) {
			m := NewMutex(r.env, "m")
			var v *Proc
			r.env.Go("killer", func(p *Proc) {
				m.Lock(p)
				p.Sleep(Second)
				m.Unlock(p)
				v.Kill()
			})
			v = r.victim("v", func(p *Proc) { m.Lock(p) })
			r.victim("next", func(p *Proc) { m.Lock(p) }) // the wakeup v took is lost
			r.bystander(Second)
		}, "1.000s killer ends; 1.000s v unwinds; 1.000s v ends; 1.000s b runs; 1.000s b ends; 1.000s next unwinds; 1.000s next ends; end 1.000s {Dispatches:8 TimerFires:2 Triggers:0 Spawns:4} timers=0"},
		{"sleeper killed at the instant its own timer is due", func(r *raceRig) {
			var v *Proc
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				v.Kill()
			})
			v = r.victim("v", func(p *Proc) { p.Sleep(Second) })
			r.bystander(Second)
		}, "1.000s killer ends; 1.000s v unwinds; 1.000s v ends; 1.000s b runs; 1.000s b ends; end 1.000s {Dispatches:6 TimerFires:3 Triggers:0 Spawns:3} timers=0"},
		{"never started", func(r *raceRig) {
			r.env.Go("killer", func(p *Proc) {
				v := r.victim("v", func(p *Proc) {})
				r.bystander(0)
				v.Kill()
			})
		}, "0.000s killer ends; 0.000s v ends; 0.000s b runs; 0.000s b ends; end 0.000s {Dispatches:3 TimerFires:0 Triggers:0 Spawns:3} timers=0"},
		{"sleeper, its timer comes due later", func(r *raceRig) {
			v := r.victim("v", func(p *Proc) { p.Sleep(10 * Second) })
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				v.Kill()
				p.Sleep(Second)
				r.note("timers=%d", r.env.timers.n)
			})
		}, "1.000s v unwinds; 1.000s v ends; 2.000s timers=1; 2.000s killer ends; end 10.000s {Dispatches:5 TimerFires:3 Triggers:0 Spawns:2} timers=0"},
		{"sleeper in a shared lane, its timer comes due later", func(r *raceRig) {
			// One delay lane holds a, u, w (due at 10s) and v (at 11s); u's
			// timeout loses to its event and leaves a hole between a and w,
			// and v's timer lingers behind them once v is killed.
			ev := r.env.NewEvent("ev")
			a := r.victim("a", func(p *Proc) { p.Sleep(10 * Second) })
			r.victim("u", func(p *Proc) { p.WaitTimeout(ev, 10*Second) })
			v := r.victim("v", func(p *Proc) { p.Sleep(Second); p.Sleep(10 * Second) })
			r.victim("w", func(p *Proc) { p.Sleep(10 * Second) })
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(2 * Second)
				if v.timerLane == 0 || v.timerLane != a.timerLane {
					r.note("v's timer is not in a's lane")
				}
				ev.Trigger()
				v.Kill()
				r.note("timers=%d", r.env.timers.n)
			})
		}, "2.000s timers=3; 2.000s killer ends; 2.000s u resumed; 2.000s u unwinds; 2.000s u ends; 2.000s v unwinds; 2.000s v ends; 10.000s a resumed; 10.000s a unwinds; 10.000s a ends; 10.000s w resumed; 10.000s w unwinds; 10.000s w ends; end 11.000s {Dispatches:11 TimerFires:5 Triggers:1 Spawns:5} timers=0"},
		{"sleeper, horizon before its dead timer", func(r *raceRig) {
			v := r.victim("v", func(p *Proc) { p.Sleep(100 * Second) })
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				v.Kill()
			})
		}, "1.000s killer ends; 1.000s v unwinds; 1.000s v ends; end 1.000s {Dispatches:4 TimerFires:1 Triggers:0 Spawns:2} timers=1"},
	}
	for _, c := range cases {
		r := &raceRig{env: NewEnv(1)}
		r.env.SetRecorder(r)
		c.build(r)
		if err := r.env.RunUntil(50 * Second); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s; end %v %+v timers=%d", strings.Join(r.log, "; "), r.env.Now(), r.env.Stats(), r.env.timers.n)
		if got != c.want {
			t.Errorf("%s:\n got: %s\nwant: %s", c.name, got, c.want)
		}
	}
}

// TestCallbackMatchesCoroutine is the differential test of the callback form:
// one small program — sleepers, an event ping-pong, a queue consumer and its
// producer, a zero-duration sleep, a timeout that loses to its event — run
// with every process a coroutine and with every process a callback gives the
// same log, the same ProcStart/ProcEnd sequence, the same counters and the
// same final clock, and the callback run never owns a goroutine.
func TestCallbackMatchesCoroutine(t *testing.T) {
	us := func(n int) Time { return Time(n) * Microsecond }
	program := []struct {
		name   string
		script []instr
	}{
		{"sleeper1", []instr{{'s', 0, us(3)}, {'s', 0, us(3)}, {'s', 0, us(1)}}},
		{"sleeper2", []instr{{'s', 0, us(2)}, {'s', 0, 0}, {'s', 0, us(4)}}},
		{"pong", []instr{{'w', 0, 0}, {'s', 0, us(1)}, {'T', 1, 0}, {'w', 0, 0}, {'T', 1, 0}}},
		{"ping", []instr{{'T', 0, 0}, {'w', 1, 0}, {'T', 0, 0}, {'w', 1, 0}}},
		{"consumer", []instr{{'p', 0, 0}, {'p', 0, 0}, {'p', 0, 0}}},
		{"producer", []instr{{'P', 0, 0}, {'s', 0, us(5)}, {'P', 0, 0}, {'P', 0, 0}}},
		{"timeout-loses", []instr{{'t', 2, us(9)}, {'s', 0, us(1)}}},
		{"timeout-wins", []instr{{'t', 3, us(2)}}},
		{"trigger2", []instr{{'s', 0, us(4)}, {'T', 2, 0}}},
		{"hung", []instr{{'w', 3, 0}}},
	}
	var want string
	for _, f := range forms {
		var sb strings.Builder
		env := NewEnv(1)
		env.SetRecorder(procLog{&sb})
		w := &world{env: env, form: f, q: NewQueue[int](env, "q")}
		for i := 0; i < 4; i++ {
			w.evs = append(w.evs, env.NewEvent("e"))
		}
		peak, base := 0, runtime.NumGoroutine()
		w.say = func(p *Proc, pc int, text string) {
			fmt.Fprintf(&sb, "%d %s %d %s\n", p.Now(), p.Name(), pc, text)
			peak = max(peak, runtime.NumGoroutine())
		}
		for _, pr := range program {
			w.spawn(pr.name, pr.script)
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		logStats(&sb, env)
		if f == callback && peak > base {
			t.Errorf("the callback run had %d goroutines at its peak, %d before it", peak, base)
		}
		if want == "" {
			want = sb.String()
			for _, line := range []string{"1000 ping 1 done", "1000 end ping#3", "5000 consumer 2 -> 3", "2000 sleeper2 1 done",
				"4000 timeout-loses 0 done", "2000 timeout-wins 0 done", "7000 end hung#9", "now=7000 dispatches=29 timer_fires=10 triggers=5 spawns=10 timers_left=0"} {
				if !strings.Contains(want, line+"\n") {
					t.Errorf("the program does not do what its names say: no %q in\n%s", line, want)
				}
			}
		} else if got := sb.String(); got != want {
			t.Errorf("processes as %v:\n%s\nas %v:\n%s", f, got, forms[0], want)
		}
	}
}

// TestBecomeMatchesCoroutine is the differential test of Proc.Become: the
// random program, every other process a script that becomes a coroutine at
// a drawn instruction, run with the scripts as callbacks, which switch
// there, and as coroutines, to which the instruction is a no-op. Both give
// the same log (every step, every ProcStart and ProcEnd, each process's
// dispatch total at its retirement), the same counters and the same clock.
func TestBecomeMatchesCoroutine(t *testing.T) {
	switchedAll := 0
	for seed := int64(1); seed <= 6; seed++ {
		horizon := [...]Time{-1, 10 * Microsecond, 20 * Microsecond}[seed%3]
		var logs [2]string
		for _, f := range forms {
			var sb strings.Builder
			switched := 0
			if err := runOrderProgramIn(&sb, seed, horizon, inline, &f, &switched); err != nil {
				t.Fatal(err)
			}
			logs[f] = sb.String()
			if f == callback {
				switchedAll += switched
			}
		}
		if logs[callback] == logs[coroutine] {
			continue
		}
		gl, wl := strings.Split(logs[callback], "\n"), strings.Split(logs[coroutine], "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("seed %d: the run whose scripts switch diverges at line %d:\n got: %s\nwant: %s", seed, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("seed %d: the run whose scripts switch logs %d lines, the coroutine run %d", seed, len(gl), len(wl))
	}
	if switchedAll == 0 {
		t.Error("no script became a coroutine after a dispatch as a callback")
	}
}

// TestPanicInStepNamesTheCallback: a callback's step runs on the stack of
// whoever is scheduling — here the process "host", inside its Sleep — and a
// panic in it is the run's failure under the callback's name, with the
// step's frames.
func TestPanicInStepNamesTheCallback(t *testing.T) {
	env := NewEnv(1)
	hostDone := false
	env.Go("host", func(p *Proc) {
		defer func() { hostDone = recover() == killedSentinel{} }()
		p.Sleep(Hour)
	})
	calls := 0
	env.GoFunc("cb", func(p *Proc) {
		if calls++; calls == 2 {
			explodeNow()
		}
		p.SleepNext(Second)
	})
	err := env.Run()
	if err == nil {
		t.Fatal("panic not surfaced")
	}
	for _, want := range []string{`callback process "cb" panicked: boom`, "vclock.explodeNow", "sched_test.go"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
	if strings.Contains(err.Error(), `process "host" panicked`) {
		t.Errorf("the panic is recorded against the process whose stack the step ran on:\n%v", err)
	}
	if !hostDone {
		t.Error("the host was not unwound by the shutdown that followed")
	}
	if got, want := env.Stats(), (Stats{Dispatches: 4, TimerFires: 1, Spawns: 2}); got != want || len(env.procs) != 0 {
		t.Errorf("%+v and %d processes left, want %+v and none", got, len(env.procs), want)
	}
}

func explodeNow() { panic("boom") }

// TestGoexitInStepNamesTheCallback: a t.Fatal in a step (an op's Exec, say)
// ends the run like one in a body does, and the failure the Env keeps names
// the callback although the exit unwound its host's stack on the way out.
func TestGoexitInStepNamesTheCallback(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv(1)
	hostCleanedUp := false
	env.Go("host", func(p *Proc) {
		defer func() { hostCleanedUp = true }()
		p.Sleep(Hour)
	})
	env.GoFunc("quitter", func(p *Proc) {
		if p.Now() > 0 {
			runtime.Goexit()
		}
		p.SleepNext(Second)
	})
	returned, done := false, make(chan struct{})
	go func() {
		defer close(done)
		env.Run()
		returned = true
	}()
	<-done
	if returned || !hostCleanedUp || env.running || len(env.procs) != 0 {
		t.Errorf("returned=%v hostCleanedUp=%v running=%v procs=%d, want false, true, false, 0", returned, hostCleanedUp, env.running, len(env.procs))
	}
	if err := env.Run(); err == nil || !strings.Contains(err.Error(), `callback process "quitter" called runtime.Goexit`) {
		t.Errorf("a later Run on the same Env returned %v, want the callback's Goexit as its failure", err)
	}
	waitGoroutines(t, base, "goexit in a step")
}

// TestBlockingCallInStepPanics: a step has no stack of its own to block on,
// so every blocking primitive refuses a callback process, in words.
func TestBlockingCallInStepPanics(t *testing.T) {
	for name, call := range map[string]func(p *Proc, ev *Event, q *Queue[int], m *Mutex){
		"Sleep":       func(p *Proc, _ *Event, _ *Queue[int], _ *Mutex) { p.Sleep(Second) },
		"Sleep(0)":    func(p *Proc, _ *Event, _ *Queue[int], _ *Mutex) { p.Sleep(0) },
		"Yield":       func(p *Proc, _ *Event, _ *Queue[int], _ *Mutex) { p.Yield() },
		"Wait":        func(p *Proc, ev *Event, _ *Queue[int], _ *Mutex) { p.Wait(ev) },
		"WaitTimeout": func(p *Proc, ev *Event, _ *Queue[int], _ *Mutex) { p.WaitTimeout(ev, Second) },
		"Pop":         func(p *Proc, _ *Event, q *Queue[int], _ *Mutex) { q.Pop(p) },
		"Mutex.Lock":  func(p *Proc, _ *Event, _ *Queue[int], m *Mutex) { m.Lock(p) },
	} {
		env := NewEnv(1)
		ev, q, m := env.NewEvent("never"), NewQueue[int](env, "q"), NewMutex(env, "m")
		env.Go("holder", func(p *Proc) { m.Lock(p); p.Wait(ev) })
		got := false
		env.GoFunc("cb", func(p *Proc) {
			call(p, ev, q, m)
			got = true
		})
		err := env.Run()
		if err == nil || got {
			t.Errorf("%s in a step: err=%v, returned=%v, want a panic", name, err, got)
			continue
		}
		for _, want := range []string{`callback process "cb" panicked`, "a GoFunc step must not block", "SleepNext, WaitNext or PopNext"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s in a step: error lacks %q:\n%v", name, want, err)
			}
		}
	}
	// The other way round: the callback forms are for steps only, once each.
	for name, body := range map[string]func(env *Env){
		"SleepNext in a coroutine": func(env *Env) { env.Go("co", func(p *Proc) { p.SleepNext(Second) }) },
		"two parks in one step": func(env *Env) {
			env.GoFunc("cb", func(p *Proc) { p.SleepNext(Second); p.SleepNext(Second) })
		},
		"Become in a coroutine": func(env *Env) { env.Go("co", func(p *Proc) { p.Become(func(*Proc) {}) }) },
		"Become after a park": func(env *Env) {
			env.GoFunc("cb", func(p *Proc) { p.SleepNext(Second); p.Become(func(*Proc) {}) })
		},
	} {
		env := NewEnv(1)
		body(env)
		if err := env.Run(); err == nil || !strings.Contains(err.Error(), "not a callback process inside its step, or parked already") {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestKillRacesScripted is TestKillRaces with the victim a script, run as a
// coroutine and as a callback process: killed new, queued, parked on an
// event, on a timer, on both, by itself inside its step, and by shutdown.
// Each expectation was recorded from the coroutine form on the kernel that
// had no callbacks, and both forms must give it — the lingering timer of a
// killed callback included. "v past N" is the victim getting past
// instruction N.
func TestKillRacesScripted(t *testing.T) {
	sec := func(n int) Time { return Time(n) * Second }
	cases := []struct {
		name   string
		victim []instr
		build  func(r *raceRig, w *world, v *Proc)
		want   string
	}{
		{"WaitTimeout killed, event triggered in the same step", []instr{{'t', 0, sec(10)}}, func(r *raceRig, w *world, v *Proc) {
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				v.Kill()
				w.evs[0].Trigger()
				r.note("timers=%d", r.env.timers.n)
			})
			r.bystander(Second)
		}, "1.000s timers=1; 1.000s killer ends; 1.000s v ends; 1.000s b runs; 1.000s b ends; end 1.000s {Dispatches:6 TimerFires:2 Triggers:1 Spawns:3} timers=0"},
		{"WaitTimeout killed, event triggered after the victim was retired", []instr{{'t', 0, sec(10)}}, func(r *raceRig, w *world, v *Proc) {
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				v.Kill()
				p.Sleep(Second)
				r.note("timers=%d", r.env.timers.n)
				w.evs[0].Trigger()
				r.note("timers=%d", r.env.timers.n)
			})
		}, "1.000s v ends; 2.000s timers=1; 2.000s timers=0; 2.000s killer ends; end 2.000s {Dispatches:5 TimerFires:2 Triggers:1 Spawns:2} timers=0"},
		{"WaitTimeout killed, event never triggered", []instr{{'t', 0, sec(10)}}, func(r *raceRig, w *world, v *Proc) {
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				v.Kill()
			})
		}, "1.000s killer ends; 1.000s v ends; end 10.000s {Dispatches:4 TimerFires:2 Triggers:0 Spawns:2} timers=0"},
		{"queued by a zero sleep", []instr{{'s', 0, 0}}, func(r *raceRig, w *world, v *Proc) {
			r.env.Go("killer", func(p *Proc) {
				v.Kill() // v sits behind b in the run queue
				v.Kill()
			})
			r.bystander(0)
		}, "0.000s killer ends; 0.000s b runs; 0.000s b ends; 0.000s v ends; end 0.000s {Dispatches:4 TimerFires:0 Triggers:0 Spawns:3} timers=0"},
		{"woken by an event, not yet run", []instr{{'w', 0, 0}}, func(r *raceRig, w *world, v *Proc) {
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				w.evs[0].Trigger()
				v.Kill()
				v.Kill()
			})
			r.bystander(Second)
		}, "1.000s killer ends; 1.000s v ends; 1.000s b runs; 1.000s b ends; end 1.000s {Dispatches:6 TimerFires:2 Triggers:1 Spawns:3} timers=0"},
		{"woken by a queue push, not yet run", []instr{{'p', 0, 0}}, func(r *raceRig, w *world, v *Proc) {
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				w.q.Push(1)
				v.Kill()
			})
			r.bystander(Second)
		}, "1.000s killer ends; 1.000s v ends; 1.000s b runs; 1.000s b ends; end 1.000s {Dispatches:6 TimerFires:2 Triggers:0 Spawns:3} timers=0"},
		{"parked on an event nobody triggers", []instr{{'w', 0, 0}}, func(r *raceRig, w *world, v *Proc) {
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				v.Kill()
			})
			r.bystander(Second)
		}, "1.000s killer ends; 1.000s v ends; 1.000s b runs; 1.000s b ends; end 1.000s {Dispatches:6 TimerFires:2 Triggers:0 Spawns:3} timers=0"},
		{"sleeper killed at the instant its own timer is due", []instr{{'s', 0, 0}, {'s', 0, sec(1)}}, func(r *raceRig, w *world, v *Proc) {
			// v yields first, so the killer's timer is the earlier of the two.
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				v.Kill()
			})
			r.bystander(Second)
		}, "0.000s v past 0; 1.000s killer ends; 1.000s v ends; 1.000s b runs; 1.000s b ends; end 1.000s {Dispatches:7 TimerFires:3 Triggers:0 Spawns:3} timers=0"},
		{"never started", nil, func(r *raceRig, w *world, v *Proc) {
			r.bystander(0)
			v.Kill()
		}, "0.000s v ends; 0.000s b runs; 0.000s b ends; end 0.000s {Dispatches:2 TimerFires:0 Triggers:0 Spawns:2} timers=0"},
		{"sleeper, its timer comes due later", []instr{{'s', 0, sec(10)}}, func(r *raceRig, w *world, v *Proc) {
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				v.Kill()
				p.Sleep(Second)
				r.note("timers=%d", r.env.timers.n)
			})
		}, "1.000s v ends; 2.000s timers=1; 2.000s killer ends; end 10.000s {Dispatches:5 TimerFires:3 Triggers:0 Spawns:2} timers=0"},
		{"sleeper, horizon before its dead timer", []instr{{'s', 0, sec(100)}}, func(r *raceRig, w *world, v *Proc) {
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(Second)
				v.Kill()
			})
		}, "1.000s killer ends; 1.000s v ends; end 1.000s {Dispatches:4 TimerFires:1 Triggers:0 Spawns:2} timers=1"},
		{"kills itself, retired at its next park", []instr{{'s', 0, sec(1)}, {'k', 0, 0}, {'P', 0, 0}, {'s', 0, sec(1)}, {'P', 0, 0}}, func(r *raceRig, w *world, v *Proc) {
			r.bystander(2 * Second)
		}, "1.000s v past 0; 1.000s v past 1; 1.000s v past 2; 1.000s v ends; 2.000s b runs; 2.000s b ends; end 2.000s {Dispatches:4 TimerFires:2 Triggers:0 Spawns:2} timers=0"},
		{"kills itself, then returns", []instr{{'k', 0, 0}}, func(r *raceRig, w *world, v *Proc) {
			r.bystander(0)
		}, "0.000s v past 0; 0.000s v ends; 0.000s b runs; 0.000s b ends; end 0.000s {Dispatches:2 TimerFires:0 Triggers:0 Spawns:2} timers=0"},
		{"kills itself in the step that becomes a coroutine", []instr{{'k', 0, 0}, {'c', 0, 0}, {'P', 0, 0}, {'s', 0, sec(1)}, {'P', 0, 0}}, func(r *raceRig, w *world, v *Proc) {
			r.bystander(0)
		}, "0.000s v past 0; 0.000s v past 1; 0.000s v past 2; 0.000s v ends; 0.000s b runs; 0.000s b ends; end 0.000s {Dispatches:2 TimerFires:0 Triggers:0 Spawns:2} timers=0"},
		{"became a coroutine, killed while parked", []instr{{'s', 0, sec(1)}, {'c', 0, 0}, {'w', 0, 0}}, func(r *raceRig, w *world, v *Proc) {
			r.env.Go("killer", func(p *Proc) {
				p.Sleep(2 * Second)
				v.Kill()
			})
			r.bystander(2 * Second)
		}, "1.000s v past 0; 1.000s v past 1; 2.000s killer ends; 2.000s v ends; 2.000s b runs; 2.000s b ends; end 2.000s {Dispatches:7 TimerFires:3 Triggers:0 Spawns:3} timers=0"},
		{"became a coroutine, killed by shutdown", []instr{{'c', 0, 0}, {'s', 0, sec(100)}}, func(r *raceRig, w *world, v *Proc) {
			r.bystander(Second)
		}, "0.000s v past 0; 1.000s b runs; 1.000s b ends; 1.000s v ends; end 1.000s {Dispatches:4 TimerFires:1 Triggers:0 Spawns:2} timers=1"},
		{"killed by shutdown: parked on both, on a timer, queued", []instr{{'t', 0, sec(100)}}, func(r *raceRig, w *world, v *Proc) {
			w.spawn("v2", []instr{{'s', 0, sec(100)}})
			w.spawn("v3", []instr{{'p', 0, 0}})
			r.env.Go("failer", func(p *Proc) {
				p.Sleep(2 * Second)
				w.q.Push(1) // puts v3 in the run queue
				panic("stop here")
			})
		}, "2.000s failer ends; 2.000s v ends; 2.000s v2 ends; 2.000s v3 ends; end 2.000s {Dispatches:8 TimerFires:1 Triggers:0 Spawns:4} timers=2"},
	}
	for _, c := range cases {
		for _, f := range forms {
			r := &raceRig{env: NewEnv(1)}
			r.env.SetRecorder(r)
			w := &world{env: r.env, form: f, evs: []*Event{r.env.NewEvent("ev")}, q: NewQueue[int](r.env, "q")}
			w.say = func(p *Proc, pc int, text string) {
				if text == "done" {
					r.note("%s past %d", p.Name(), pc)
				}
			}
			c.build(r, w, w.spawn("v", c.victim))
			err := r.env.RunUntil(50 * Second)
			if err != nil && !strings.Contains(err.Error(), "stop here") {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%s; end %v %+v timers=%d", strings.Join(r.log, "; "), r.env.Now(), r.env.Stats(), r.env.timers.n)
			if got != c.want {
				t.Errorf("%s, victim as %v:\n got: %s\nwant: %s", c.name, f, got, c.want)
			}
		}
	}
}

// TestSecondRunAfterShutdownKilledSleepers: a first run ends at its horizon
// and shutdown kills processes that are asleep; their timers stay in the
// heap. A second run on the same Env must pass over them — each advances
// the clock and counts a timer fire, none wakes anything — and finish.
func TestSecondRunAfterShutdownKilledSleepers(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent("never")
	for i := 0; i < 3; i++ {
		d := Time(10*(i+1)) * Second
		env.Go(fmt.Sprintf("sleeper%d", i), func(p *Proc) { p.Sleep(d) })
	}
	env.Go("timed-waiter", func(p *Proc) { p.WaitTimeout(ev, 15*Second) })
	env.Go("hung", func(p *Proc) { p.Wait(ev) })
	if err := env.RunUntil(5 * Second); err != nil {
		t.Fatal(err)
	}
	if got, want := env.Stats(), (Stats{Dispatches: 10, Spawns: 5}); got != want {
		t.Fatalf("first run: %+v, want %+v", got, want)
	}
	if env.Now() != 0 || env.timers.n != 4 {
		t.Fatalf("first run: now=%v timers=%d, want 0s and 4", env.Now(), env.timers.n)
	}
	var woke Time
	env.Go("second", func(p *Proc) {
		p.Sleep(12 * Second)
		woke = p.Now()
	})
	done := make(chan error, 1)
	go func() { done <- env.RunUntil(Minute) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second RunUntil hung on the dead processes' timers")
	}
	if woke != 12*Second {
		t.Errorf("second run's sleeper woke at %v, want 12s", woke)
	}
	if got, want := env.Stats(), (Stats{Dispatches: 12, TimerFires: 5, Spawns: 6}); got != want {
		t.Errorf("second run: %+v, want %+v", got, want)
	}
	if env.Now() != 30*Second || env.timers.n != 0 {
		t.Errorf("second run: now=%v timers=%d, want 30s and 0", env.Now(), env.timers.n)
	}
}

// waitGoroutines polls until the goroutine count is back at base: the last
// process of a run signals the runner just before its goroutine returns.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	var n int
	for i := 0; i < 2000; i++ {
		if n = runtime.NumGoroutine(); n <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("%s: %d goroutines, %d before the run", what, n, base)
}

// TestEnvOwnsNoGoroutinesAfterRun: whichever way a run ends, every
// goroutine the Env started is gone when Run returns.
func TestEnvOwnsNoGoroutinesAfterRun(t *testing.T) {
	populate := func(env *Env) {
		ev := env.NewEvent("never")
		q := NewQueue[int](env, "q")
		m := NewMutex(env, "m")
		env.Go("holder", func(p *Proc) { m.Lock(p); p.Wait(ev) })
		env.Go("locker", func(p *Proc) { m.Lock(p) })
		env.Go("popper", func(p *Proc) { q.Pop(p) })
		env.Go("ticker", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(Second)
			}
		})
		env.Go("yielder", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Yield()
			}
		})
	}
	// park200 adds 200 processes that start and then sit in a long sleep or
	// on an event nobody triggers.
	park200 := func(env *Env) {
		ev := env.NewEvent("never")
		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				env.Go("sleeper", func(p *Proc) { p.Sleep(Hour) })
			} else {
				env.Go("waiter", func(p *Proc) { p.Wait(ev) })
			}
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"drain", func(t *testing.T) {
			env := NewEnv(1)
			populate(env)
			if err := env.Run(); err != nil {
				t.Error(err)
			}
		}},
		{"horizon", func(t *testing.T) {
			env := NewEnv(1)
			populate(env)
			if err := env.RunUntil(10 * Second); err != nil {
				t.Error(err)
			}
		}},
		{"panic", func(t *testing.T) {
			env := NewEnv(1)
			populate(env)
			env.Go("bad", func(p *Proc) { p.Sleep(3 * Second); panic("boom") })
			if err := env.Run(); err == nil {
				t.Error("panic not surfaced")
			}
		}},
		{"horizon cuts 200 started, parked processes", func(t *testing.T) {
			env := NewEnv(1)
			park200(env)
			if err := env.RunUntil(Minute); err != nil {
				t.Error(err)
			}
			if got, want := env.Stats(), (Stats{Dispatches: 400, Spawns: 200}); got != want {
				t.Errorf("%+v, want %+v", got, want)
			}
		}},
		{"process panics while 200 others are parked", func(t *testing.T) {
			env := NewEnv(1)
			park200(env)
			env.Go("bad", func(p *Proc) { p.Sleep(Second); panic("boom") })
			if err := env.Run(); err == nil {
				t.Error("panic not surfaced")
			}
		}},
		{"2000 callback processes, no goroutine during the run either", func(t *testing.T) {
			env := NewEnv(1)
			ev := env.NewEvent("never")
			peak, base := 0, runtime.NumGoroutine()
			for i := 0; i < 2000; i++ {
				n := 0
				env.GoFunc("cb", func(p *Proc) {
					peak = max(peak, runtime.NumGoroutine())
					if n++; n <= 5 {
						p.SleepNext(Time(i%7) * Millisecond)
					} else if i%2 == 0 {
						p.WaitNext(ev, 0)
					}
				})
			}
			if err := env.RunUntil(Minute); err != nil {
				t.Error(err)
			}
			// 6 dispatches each; the 1000 that parked for good cost shutdown one more.
			if got, want := env.Stats().Dispatches, uint64(2000*6+1000); got != want {
				t.Errorf("%d dispatches, want %d", got, want)
			}
			if peak > base {
				t.Errorf("%d goroutines at the peak of the run, %d before it", peak, base)
			}
		}},
		{"idle carriers left at shutdown", func(t *testing.T) {
			env := NewEnv(1)
			ev := env.NewEvent("never")
			idle := 0
			// 50 processes alive at once, then 40 of them end: their
			// carriers wait idle while the last 10 hang past the horizon.
			for i := 0; i < 50; i++ {
				env.Go("worker", func(p *Proc) {
					p.Sleep(Time(i+1) * Millisecond)
					if i < 40 {
						return
					}
					idle = max(idle, len(env.idle))
					p.Wait(ev)
				})
			}
			if err := env.RunUntil(Second); err != nil {
				t.Error(err)
			}
			if idle != 40 || len(env.idle) != 0 {
				t.Errorf("%d carriers idle before shutdown and %d after, want 40 and 0", idle, len(env.idle))
			}
		}},
		{"second RunUntil on the same Env", func(t *testing.T) {
			env := NewEnv(1)
			populate(env)
			if err := env.RunUntil(10 * Second); err != nil {
				t.Error(err)
			}
			populate(env)
			park200(env)
			if err := env.RunUntil(Hour); err != nil {
				t.Error(err)
			}
		}},
		{"killed before start", func(t *testing.T) {
			env := NewEnv(1)
			populate(env)
			ran := false
			for i := 0; i < 10; i++ {
				env.Go("stillborn", func(p *Proc) { ran = true }).Kill()
			}
			env.Go("spawner", func(p *Proc) {
				p.Sleep(Second)
				env.Go("stillborn", func(p *Proc) { ran = true }).Kill()
			})
			if err := env.Run(); err != nil {
				t.Error(err)
			}
			if ran {
				t.Error("a process killed before it started ran its body")
			}
		}},
	}
	for _, c := range cases {
		base := runtime.NumGoroutine()
		c.run(t)
		waitGoroutines(t, base, c.name)
	}
}

// TestKilledProcessDoesNotParkOnMutex: a process whose kill flag is set
// unwinds at Lock like at every other blocking primitive instead of sitting
// in the waiter list until someone releases the mutex.
func TestKilledProcessDoesNotParkOnMutex(t *testing.T) {
	env := NewEnv(1)
	m := NewMutex(env, "m")
	var unwoundAt Time = -1
	env.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(10 * Second)
		m.Unlock(p)
	})
	env.Go("doomed", func(p *Proc) {
		defer func() { unwoundAt = p.Now() }()
		p.Sleep(Second)
		p.Kill()
		m.Lock(p)
		t.Error("killed process acquired the mutex")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if unwoundAt != Second {
		t.Errorf("killed process unwound at %v, want 1s (the Lock call)", unwoundAt)
	}
}

// TestDispatchCounterContract pins what counts as a dispatch.
func TestDispatchCounterContract(t *testing.T) {
	t.Run("a resume without a switch counts", func(t *testing.T) {
		env := NewEnv(1)
		env.Go("lone", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(Second)
			}
			for i := 0; i < 3; i++ {
				p.Yield()
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := env.Stats(), (Stats{Dispatches: 9, TimerFires: 5, Spawns: 1}); got != want {
			t.Errorf("%+v, want %+v", got, want)
		}
	})
	t.Run("each shutdown kill counts, started or not", func(t *testing.T) {
		env := NewEnv(1)
		ev := env.NewEvent("never")
		for i := 0; i < 4; i++ {
			env.Go("hung", func(p *Proc) { p.Wait(ev) })
		}
		env.Go("spawner", func(p *Proc) {
			p.Sleep(2 * Second)
			env.Go("late", func(p *Proc) {}) // queued behind the horizon's shutdown
			panic("stop here")
		})
		if err := env.Run(); err == nil {
			t.Fatal("panic not surfaced")
		}
		// 5 first runs, the spawner's wakeup, then 4 hung + 1 never-started.
		if got, want := env.Stats(), (Stats{Dispatches: 11, TimerFires: 1, Spawns: 6}); got != want {
			t.Errorf("%+v, want %+v", got, want)
		}
	})
	t.Run("shutdown takes control back after each kill", func(t *testing.T) {
		env := NewEnv(1)
		evA, evB := env.NewEvent("a"), env.NewEvent("b")
		var log []string
		env.Go("a", func(p *Proc) {
			defer func() {
				log = append(log, "a unwinds")
				evB.Trigger() // makes b runnable while shutdown is under way
				env.Go("orphan", func(p *Proc) { log = append(log, "orphan ran") })
			}()
			p.Wait(evA)
		})
		env.Go("b", func(p *Proc) {
			defer func() { log = append(log, "b unwinds") }()
			p.Wait(evB)
			log = append(log, "b ran past its wait")
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := strings.Join(log, "; "), "a unwinds; b unwinds"; got != want {
			t.Errorf("log %q, want %q", got, want)
		}
		if got, want := env.Stats(), (Stats{Dispatches: 4, Triggers: 1, Spawns: 3}); got != want {
			t.Errorf("%+v, want %+v", got, want)
		}
	})
}

// TestGoexitInBodyEndsRun: runtime.Goexit in a process body — what a t.Fatal
// there does — ends the run. The goroutine that called Run exits (its own
// deferred calls run, Run does not return), and on the way out every other
// process is killed and unwound, so no goroutine is left behind.
func TestGoexitInBodyEndsRun(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv(1)
	var log []string
	env.Go("sleeper", func(p *Proc) {
		defer func() { log = append(log, "sleeper cleaned up") }()
		p.Sleep(Hour)
	})
	env.Go("quitter", func(p *Proc) {
		defer func() { log = append(log, "quitter's deferred call ran") }()
		p.Sleep(Millisecond)
		runtime.Goexit()
	})
	env.Go("stillborn", func(p *Proc) { log = append(log, "stillborn ran") }).Kill()
	returned, done := false, make(chan struct{})
	go func() {
		defer close(done)
		env.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run neither returned nor exited")
	}
	if returned {
		t.Error("Run returned: the Goexit did not reach its caller")
	}
	if got, want := strings.Join(log, "; "), "quitter's deferred call ran; sleeper cleaned up"; got != want {
		t.Errorf("log %q, want %q", got, want)
	}
	if env.running || len(env.procs) != 0 || env.Now() != Millisecond {
		t.Errorf("running=%v procs=%d now=%v, want false, 0 and 0.001s", env.running, len(env.procs), env.Now())
	}
	if err := env.Run(); err == nil || !strings.Contains(err.Error(), `process "quitter" called runtime.Goexit`) {
		t.Errorf("a later Run on the same Env returned %v, want the Goexit as its failure", err)
	}
	waitGoroutines(t, base, "goexit in a body")

	fresh := NewEnv(1)
	var woke Time
	fresh.Go("p", func(p *Proc) { p.Sleep(Second); woke = p.Now() })
	if err := fresh.Run(); err != nil || woke != Second {
		t.Errorf("a later run on a fresh Env: err=%v woke=%v", err, woke)
	}
}

// TestConcurrentEnvsMatchSerial is the Workers > 1 sweep shape pinned at the
// kernel: Envs driven side by side from different goroutines share nothing,
// so each gives the log and counters of the same program run alone. And a
// coroutine never outlives the RunUntil call that made it (shutdown finishes
// what the run left), so successive calls on one Env may come from different
// goroutines.
func TestConcurrentEnvsMatchSerial(t *testing.T) {
	base := runtime.NumGoroutine()
	horizon := func(i int) Time { return Time(i%3*10-10) * Microsecond } // none, 0, 10µs
	var serial [8]strings.Builder
	for i := range serial {
		if err := runOrderProgram(&serial[i], int64(i+1), horizon(i), inline); err != nil {
			t.Fatal(err)
		}
	}

	var side [8]strings.Builder
	errs := make(chan error, len(side))
	for i := range side {
		go func() { errs <- runOrderProgram(&side[i], int64(i+1), horizon(i), inline) }()
	}
	for range side {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	for i := range side {
		if side[i].String() != serial[i].String() {
			t.Errorf("seed %d: log of the Env run beside seven others differs from its serial log", i+1)
		}
	}

	for i := range serial {
		var sb strings.Builder
		if err := runOrderProgram(&sb, int64(i+1), horizon(i), onFreshGoroutine); err != nil {
			t.Fatal(err)
		}
		if sb.String() != serial[i].String() {
			t.Errorf("seed %d: two RunUntil calls from two goroutines differ from the same calls from one", i+1)
		}
	}
	waitGoroutines(t, base, "concurrent Envs")
}

// explode is the frame TestPanicInBodyStillCarriesStack looks for.
func explode(p *Proc) {
	p.Sleep(Second)
	panic("boom")
}

// TestPanicInBodyStillCarriesStack: the error Run returns for a panicking
// process names it and carries the stack of the panic, whose outermost
// frames are now the coroutine's.
func TestPanicInBodyStillCarriesStack(t *testing.T) {
	env := NewEnv(1)
	env.Go("bystander", func(p *Proc) { p.Sleep(Hour) })
	env.Go("bad", explode)
	err := env.Run()
	if err == nil {
		t.Fatal("panic not surfaced")
	}
	for _, want := range []string{`process "bad" panicked: boom`, "vclock.explode", "sched_test.go"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
}

// TestNestedRun: a process body may build an Env of its own and run it — a
// coroutine resuming coroutines. The inner run gives what it gives alone and
// the outer one carries on around it.
func TestNestedRun(t *testing.T) {
	var alone, nested strings.Builder
	if err := runOrderProgram(&alone, 1, 20*Microsecond, inline); err != nil {
		t.Fatal(err)
	}
	outer := NewEnv(7)
	var ticks []Time
	outer.Go("ticker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Second)
			ticks = append(ticks, p.Now())
		}
	})
	outer.Go("host", func(p *Proc) {
		p.Sleep(1500 * Millisecond)
		if err := runOrderProgram(&nested, 1, 20*Microsecond, inline); err != nil {
			t.Error(err)
		}
		p.Sleep(Second)
		ticks = append(ticks, p.Now())
	})
	if err := outer.Run(); err != nil {
		t.Fatal(err)
	}
	if nested.String() != alone.String() {
		t.Error("the inner run's log differs from the same run outside a process")
	}
	if got, want := fmt.Sprint(ticks), "[1.000s 2.000s 2.500s 3.000s]"; got != want {
		t.Errorf("outer run: %s, want %s", got, want)
	}
	if got, want := outer.Stats(), (Stats{Dispatches: 7, TimerFires: 5, Spawns: 2}); got != want {
		t.Errorf("outer run: %+v, want %+v", got, want)
	}
}

// TestRewakeOrder holds Proc.Rewake to the order contract: a moved timer
// pops by (deadline, seq) with the seq of the move, as if it had been armed
// at that instant, and the old deadline is gone, so it neither fires nor
// advances the clock. Whatever else the process waits for still wakes it,
// and a process with no timer is left as it is.
func TestRewakeOrder(t *testing.T) {
	env := NewEnv(1)
	var log []string
	note := func(p *Proc, what string) { log = append(log, fmt.Sprintf("%s %s@%v", p.Name(), what, p.Now())) }
	// Both armed at 0: "early" due at 5s, "moved" at 10s. At 1s "moved" is
	// rewoken at 5s, and "late" arms a timer for 5s after the move.
	early := env.Go("early", func(p *Proc) { p.Sleep(5 * Second); note(p, "woke") })
	moved := env.GoFunc("moved", func(p *Proc) {
		if p.Now() == 0 {
			p.SleepNext(10 * Second)
			return
		}
		note(p, "woke")
	})
	// "waiter" waits for an event with a 10s timeout, rewoken at 3s: it
	// times out there. "fired" does the same, but the event comes first.
	ev, ev2 := env.NewEvent("never"), env.NewEvent("soon")
	waiter := env.Go("waiter", func(p *Proc) { note(p, fmt.Sprint("wait=", p.WaitTimeout(ev, 10*Second))) })
	fired := env.Go("fired", func(p *Proc) { note(p, fmt.Sprint("wait=", p.WaitTimeout(ev2, 10*Second))) })
	env.Go("mover", func(p *Proc) {
		p.Sleep(Second)
		for _, c := range []struct {
			p  *Proc
			at Time
		}{{moved, 5 * Second}, {waiter, 3 * Second}, {fired, 4 * Second}} {
			if !c.p.Rewake(c.at) {
				t.Errorf("Rewake(%s) found no timer", c.p.Name())
			}
		}
		if p.Rewake(2 * Second) {
			t.Error("Rewake of the running process moved a timer")
		}
		env.Go("late", func(p *Proc) { p.Sleep(4 * Second); note(p, "woke") })
		p.Sleep(Second)
		ev2.Trigger()
		if early.Rewake(5*Second) != true {
			t.Error("Rewake to the same deadline found no timer")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// "early" was rewoken at 2s to its own deadline: it now comes due
	// after "moved" and "late", both armed for 5s before that.
	want := "fired wait=true@2.000s waiter wait=false@3.000s moved woke@5.000s late woke@5.000s early woke@5.000s"
	if got := strings.Join(log, " "); got != want || env.Now() != 5*Second {
		t.Errorf("got %q, run ended at %v\nwant %q, at 5s", got, env.Now(), want)
	}
	if got := env.Stats().TimerFires; got != 6 {
		t.Errorf("%d timer fires, want 6: the mover's two, waiter, and three at 5s", got)
	}
}
