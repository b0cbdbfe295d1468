//go:build go1.23

// The build line is for the import of iter, which needs language version
// 1.23, and a file's build line raises that file's language version. The root
// go.mod stays at go 1.22 because benchmark/go.mod says go 1.22, may not
// change in a PR that claims a gain, and refuses to build against a root
// module that says more. When benchmark/ is re-based, bump both go.mod files
// to 1.23 and drop the line.

// Package vclock implements a deterministic virtual-time simulation kernel.
//
// The kernel runs simulation processes (coroutines: each has a goroutine of
// its own, so a body blocks in the middle of ordinary Go code) cooperatively:
// exactly one process executes at a time, and the virtual clock advances only
// when every process is blocked in Sleep, Wait, or WaitTimeout. Given the
// same seed and the same program, a simulation produces a byte-identical
// event trace on every run, which is what makes the failure-recovery
// experiments in this repository reproducible.
//
// The design follows the classic process-interaction style (SimPy, OMNeT++):
//
//	env := vclock.NewEnv(seed)
//	env.Go("worker", func(p *vclock.Proc) {
//	    p.Sleep(vclock.Seconds(1.5))
//	    ev.Trigger()
//	})
//	err := env.Run()
//
// Blocking primitives must only be called from inside the owning process.
// Trigger may be called from any process (or from scheduler callbacks), but
// never from outside the simulation.
//
// A callback process (GoFunc) is a process without the coroutine: its step
// function is called at each of its dispatches, on the stack of whoever is
// scheduling, and parks by registering its next wake-up (SleepNext, WaitNext,
// Queue.PopNext) and returning. It is queued, woken, killed, counted and
// recorded exactly like any other process; only the switch is gone.
//
// There is no scheduler goroutine and no channel. Whichever process blocks or
// exits runs the scheduling function itself (Env.schedule: the head of the
// run queue, else the earliest timer, else the run is over), leaves its
// successor in Env.succ and suspends — or carries on when it is its own
// successor. RunUntil is the trampoline that resumes whoever was left there:
// a coroutine switch hands the thread straight to the target goroutine and
// never enters the Go scheduler. The hot path allocates nothing: timers live
// by value in delay lanes and an indexed heap (eventq.go), the run queue is a
// ring buffer, a wait list holds its first waiter inline, and a blocked
// process's wait record is four fields of its Proc (DESIGN.md, "Virtual-time
// kernel").
package vclock

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"sort"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration constants and conversion helpers. Virtual durations reuse the
// Time type: the zero point is simulation start.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
	Day              = 24 * Hour
)

// Seconds converts a floating-point second count to a virtual duration.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Sec reports t as floating-point seconds.
func (t Time) Sec() float64 { return float64(t) / float64(Second) }

// String renders the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Sec()) }

// procState tracks where a process is in its lifecycle.
type procState int

const (
	stateNew     procState = iota // in the run queue, coroutine not created
	stateQueued                   // in the run queue: woken, yielded or killed
	stateRunning                  // the one process executing
	stateBlocked                  // parked on a wait list, a timer, or both
	stateDead
)

// wakeCause reports why a parked process was woken.
type wakeCause int

const (
	wakeEvent wakeCause = iota
	wakeTimeout
)

// killedSentinel is panicked inside a killed process to unwind its stack.
type killedSentinel struct{}

// Proc is a simulation process. All blocking methods must be called from the
// goroutine executing the process body.
type Proc struct {
	env    *Env
	id     int
	name   string
	state  procState
	killed bool

	// The coroutine, made at the first dispatch: RunUntil calls next to
	// switch to the process, the process calls suspend to switch back.
	next    func() (struct{}, bool)
	suspend func(struct{}) bool
	body    func(*Proc)
	// step replaces all three in a callback process (GoFunc).
	step func(*Proc)

	// The wait record. A process blocks in one place at a time, so one
	// record per process is enough: block numbers the current wait, and a
	// waitList entry or timer made for an earlier number is stale. Whichever
	// of a wait list and the timer fires first moves the number on (wake);
	// a kill does not, it only queues the process, so the record of a
	// killed process stays armed after it has unwound.
	block     uint64
	cause     wakeCause
	timerIdx  int32 // where the timer is in the heap or its lane, -1 when absent
	timerLane int8  // 0: the heap, k: lane k-1
}

// waiter is one entry of a waitList: p, parked under block number block.
type waiter struct {
	p     *Proc
	block uint64
}

// waitList holds the processes parked on one Event, Queue or Mutex, in
// registration order. The first entry of an empty list is held inline, so
// the common list — one waiter on a fresh event — allocates nothing.
type waitList struct {
	first waiter // empty unless it precedes everything in rest
	rest  []waiter
	head  int
}

func (l *waitList) add(w waiter) {
	if l.first.p == nil && l.head == len(l.rest) {
		l.first = w
	} else {
		l.rest = append(l.rest, w)
	}
}

// wake wakes the first n processes still parked on the list (all of them
// when n < 0), dropping the stale entries it passes.
func (l *waitList) wake(e *Env, n int) {
	for n != 0 {
		w := l.first
		if w.p != nil {
			l.first = waiter{}
		} else if l.head < len(l.rest) {
			w = l.rest[l.head]
			l.rest[l.head] = waiter{}
			l.head++
		} else {
			break
		}
		if w.block == w.p.block {
			e.wake(w.p, wakeEvent)
			n--
		}
	}
	if l.head == len(l.rest) {
		l.rest, l.head = l.rest[:0], 0
	}
}

// Event is a one-shot condition processes can wait on. Once triggered it
// stays triggered; waiting on a triggered event returns immediately.
type Event struct {
	env       *Env
	triggered bool
	waiters   waitList
	name      string
}

// Stats counts the scheduling work a simulation performed. The bench
// harness divides these by wall time for its events/sec trajectory metric.
type Stats struct {
	// Dispatches is the number of process wakeups executed (every resume
	// of a process counts once, including the final kill).
	Dispatches uint64
	// TimerFires is the number of clock advances driven by timer expiry.
	TimerFires uint64
	// Triggers is the number of Event.Trigger calls that fired.
	Triggers uint64
	// Spawns is the number of processes created.
	Spawns uint64
}

// Events totals the scheduler events a run processed: dispatches, timer
// fires and event triggers (spawns are counted by their first dispatch).
func (s Stats) Events() uint64 { return s.Dispatches + s.TimerFires + s.Triggers }

// Add accumulates other into s (for aggregating stats across runs).
func (s *Stats) Add(other Stats) {
	s.Dispatches += other.Dispatches
	s.TimerFires += other.TimerFires
	s.Triggers += other.Triggers
	s.Spawns += other.Spawns
}

// Env is a simulation environment: a virtual clock plus the set of processes
// sharing it. An Env is not safe for concurrent use from outside the
// simulation; drive it with Run or RunUntil from a single goroutine.
type Env struct {
	now     Time
	seq     uint64
	timers  timerQueue
	runq    procRing
	procs   map[int]*Proc
	nextID  int
	rng     *rand.Rand
	failure error
	running bool
	rec     interface{}

	// succ is the process to resume next, nil for none: left for RunUntil by
	// the process that has just suspended or retired.
	succ     *Proc
	limit    Time // the current run's horizon, < 0 for none
	stopping bool // shutdown is under way: schedule nothing

	doneEv *Event
	stats  Stats
}

// ProcRecorder is implemented by recorders that want process-lifecycle
// notifications (see SetRecorder). It lives here so vclock needs no
// dependency on the trace package.
type ProcRecorder interface {
	ProcStart(t Time, id int, name string)
	ProcEnd(t Time, id int, name string)
}

// NewEnv creates an environment whose random source is seeded with seed.
func NewEnv(seed int64) *Env {
	return &Env{
		procs: make(map[int]*Proc),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Stats returns the scheduling-work counters accumulated so far.
func (e *Env) Stats() Stats { return e.stats }

// Rand returns the environment's deterministic random source. It must only
// be used from inside simulation processes (or between Run calls).
func (e *Env) Rand() *rand.Rand { return e.rng }

// SetRecorder attaches a structured event recorder to the environment.
// The slot is untyped so vclock stays dependency-free; the trace package
// owns the concrete type and retrieves it with trace.Of. A recorder that
// also implements ProcRecorder receives process start/end notifications.
func (e *Env) SetRecorder(r interface{}) { e.rec = r }

// Recorder returns the attached recorder slot (nil when tracing is off).
func (e *Env) Recorder() interface{} { return e.rec }

// Go spawns a new simulation process. It may be called before Run or from
// inside a running process; the new process is appended to the run queue and
// will execute at the current virtual time.
func (e *Env) Go(name string, body func(p *Proc)) *Proc {
	return e.spawn(&Proc{name: name, body: body})
}

// GoFunc spawns a callback process: a process like any other — an id, a
// name, a place in the run queue, a wait record, a dispatch count — but with
// no coroutine. step is called at each dispatch, on the stack of whoever is
// scheduling, and must not block: it parks by registering its next wake-up
// with SleepNext, WaitNext or Queue.PopNext and returning, and is called
// again when that wake-up comes. Returning without parking retires the
// process. A killed one is retired at its dispatch without being called.
func (e *Env) GoFunc(name string, step func(p *Proc)) *Proc {
	return e.spawn(&Proc{name: name, step: step})
}

func (e *Env) spawn(p *Proc) *Proc {
	p.env, p.id, p.timerIdx = e, e.nextID, -1
	e.nextID++
	e.procs[p.id] = p
	e.runq.push(p)
	e.stats.Spawns++
	if pr, ok := e.rec.(ProcRecorder); ok {
		pr.ProcStart(e.now, p.id, p.name)
	}
	return p
}

// NewEvent creates an untriggered event.
func (e *Env) NewEvent(name string) *Event {
	return &Event{env: e, name: name}
}

// InitEvent makes ev an untriggered event of e: NewEvent in place, for an
// event embedded in what it completes and reused with it. Nobody may still
// wait on ev, or hold it to wait later: it is a new event.
func (e *Env) InitEvent(ev *Event, name string) {
	*ev = Event{env: e, name: name, waiters: waitList{rest: ev.waiters.rest[:0]}}
}

// DoneEvent returns a shared, permanently-triggered event. Waiting on it
// returns immediately; triggering it is a no-op. Callers that need an
// "already complete" completion handle (an idle stream's drain, for
// example) use it instead of allocating a fresh triggered event.
func (e *Env) DoneEvent() *Event {
	if e.doneEv == nil {
		e.doneEv = &Event{env: e, triggered: true, name: "done"}
	}
	return e.doneEv
}

// run is the coroutine behind a process: the body, then retirement, then
// one last scheduling decision on behalf of whoever runs next.
func (p *Proc) run(suspend func(struct{}) bool) {
	e := p.env
	p.suspend = suspend
	returned := false
	defer func() {
		switch r := recover(); {
		case r == killedSentinel{} || e.failure != nil:
			// unwound by Kill, or not the first to fail
		case r != nil:
			e.failure = fmt.Errorf("vclock: process %q panicked: %v\n%s", p.name, r, debug.Stack())
		case !returned:
			e.failure = fmt.Errorf("vclock: process %q called runtime.Goexit", p.name)
		}
		e.retire(p)
		e.succ = e.schedule()
	}()
	p.body(p)
	returned = true
}

// retire marks p dead, whether its body returned, unwound, or never ran.
func (e *Env) retire(p *Proc) {
	p.state = stateDead
	p.next, p.suspend, p.body, p.step = nil, nil, nil, nil // a kept *Proc pins no closure
	delete(e.procs, p.id)
	if pr, ok := e.rec.(ProcRecorder); ok {
		pr.ProcEnd(e.now, p.id, p.name)
	}
}

// schedule is the one scheduling function. It returns the process to run
// next — the head of the run queue, else the owner of the earliest timer
// once the clock has advanced to it — or nil when the run is over: nothing
// left, the next timer past the horizon, a process failed, or shutdown is
// killing what remains. The caller is whoever holds control: the process
// that just parked or retired, or RunUntil.
func (e *Env) schedule() *Proc {
	for e.failure == nil && !e.stopping {
		if e.runq.len() > 0 {
			p := e.runq.pop()
			e.stats.Dispatches++
			switch {
			case p.killed && (p.state == stateNew || p.step != nil):
				e.retire(p) // never ran, or a callback: no goroutine to unwind
			case p.step != nil:
				e.runStep(p)
			default:
				return p
			}
			continue
		}
		ent, ok := e.timers.popMin(e.limit)
		if !ok {
			return nil
		}
		e.now = ent.deadline
		e.stats.TimerFires++
		// The owner may be dead (killed while it slept): the clock still
		// advances and the fire still counts, nothing is queued.
		e.wake(ent.p, wakeTimeout)
	}
	return nil
}

// runStep is a callback process's dispatch: its step runs here, inside
// schedule, on the stack of whichever process (or RunUntil) is looking for a
// successor. When it returns it has parked or queued itself, or it is done.
// A panic or a runtime.Goexit in it is the run's failure under the callback's
// own name, not the name of the process whose stack it borrowed (which a
// Goexit goes on to unwind, as far as RunUntil).
func (e *Env) runStep(p *Proc) {
	p.state = stateRunning
	returned := false
	defer func() {
		switch r := recover(); {
		case e.failure != nil:
		case r != nil:
			e.failure = fmt.Errorf("vclock: callback process %q panicked: %v\n%s", p.name, r, debug.Stack())
		case !returned:
			e.failure = fmt.Errorf("vclock: callback process %q called runtime.Goexit", p.name)
		}
		if p.state == stateRunning {
			e.retire(p)
		}
	}()
	p.step(p)
	returned = true
}

// drive is the trampoline: it resumes p, then the successor p left when it
// suspended or retired, and so on until one of them leaves none. Every
// process switch of a run is one iteration, on the goroutine that called
// RunUntil.
func (e *Env) drive(p *Proc) {
	for ; p != nil; p = e.succ {
		if p.state == stateNew {
			p.state = stateRunning
			p.next, _ = iter.Pull(p.run)
		}
		p.next()
	}
}

// wake ends p's current wait: the wait record moves on, so the other half of
// an event-or-timeout pair goes stale, a still-pending timeout leaves the
// heap, and p joins the run queue if it is parked. A process that was killed
// out of this wait is queued or dead already; for it only the record is
// consumed.
func (e *Env) wake(p *Proc, cause wakeCause) {
	p.block++
	e.timers.remove(p)
	if p.state == stateBlocked {
		p.cause = cause
		p.state = stateQueued
		e.runq.push(p)
	}
}

// Run executes the simulation until no process is runnable and no timers are
// pending. Processes still blocked on untriggered events at that point (for
// example, workers hung at a failed collective) are killed so their
// goroutines do not leak. Run returns the first process panic, if any.
func (e *Env) Run() error { return e.RunUntil(-1) }

// RunUntil is Run with a horizon: the simulation stops once the clock would
// advance past limit (limit < 0 means no horizon). The clock is left at the
// last executed event time, never past the horizon.
//
// A process body that calls runtime.Goexit (a t.Fatal inside it) ends the
// run: the exit reaches the goroutine that called RunUntil, which kills what
// is left on its way out and does not return.
func (e *Env) RunUntil(limit Time) (err error) {
	if e.running {
		return fmt.Errorf("vclock: Run called re-entrantly")
	}
	e.running = true
	// Deferred because a Goexit in a body surfaces in drive, from next.
	defer func() {
		e.shutdown()
		e.running = false
		err = e.failure
	}()

	e.limit = limit
	e.drive(e.schedule())
	return nil
}

// shutdown kills all remaining processes, in id order, so their goroutines
// exit. Each one unwinds and leaves no successor (schedule returns nil while
// stopping is set); whatever its deferred calls queued is dropped. A callback
// process has nothing to unwind and is retired in place, like a new one.
// Timers of the killed stay in the heap, like those of any killed process.
func (e *Env) shutdown() {
	e.stopping = true
	ids := make([]int, 0, len(e.procs))
	for id := range e.procs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		p := e.procs[id]
		p.killed = true
		e.stats.Dispatches++
		if p.state == stateNew || p.step != nil {
			e.retire(p)
			continue
		}
		e.drive(p)
	}
	e.runq.clear()
	e.stopping = false
}

// yield gives up control until the process is resumed. The caller has
// already queued itself or registered what will wake it. If the process was
// killed meanwhile, yield unwinds its stack.
func (p *Proc) yield() {
	e := p.env
	if next := e.schedule(); next != p {
		e.succ = next
		p.suspend(struct{}{})
	}
	p.state = stateRunning
	p.unwindIfKilled()
}

// unwindIfKilled is the check every blocking primitive makes before it
// returns early or parks: a killed process gets no further, and a callback
// process has no stack of its own to block on.
func (p *Proc) unwindIfKilled() {
	if p.step != nil {
		panic(fmt.Sprintf("vclock: blocking call in callback process %q: a GoFunc step must not block, it parks with SleepNext, WaitNext or PopNext and returns", p.name))
	}
	if p.killed {
		panic(killedSentinel{})
	}
}

// park blocks the process until l wakes it (l may be nil) or, when d > 0,
// until d has elapsed, and reports which. Every blocking primitive but
// Yield is a loop or a branch around this.
func (p *Proc) park(l *waitList, d Time) wakeCause {
	p.unwindIfKilled()
	p.arm(l, d)
	p.yield()
	return p.cause
}

// arm fills in p's wait record: parked on l (may be nil), on a timer when
// d > 0, or both.
func (p *Proc) arm(l *waitList, d Time) {
	e := p.env
	if l != nil {
		l.add(waiter{p, p.block})
	}
	if d > 0 {
		e.seq++
		e.timers.push(e.now, d, e.seq, p)
	}
	p.state = stateBlocked
}

// parks is the entry check of SleepNext, WaitNext and PopNext, the forms a
// callback process's step parks with: each arms the wait record park arms
// and returns, and the step returns after it. It reports false for a step
// that has killed itself: like a coroutine at its next blocking call it gets
// no further — nothing is registered and it is retired when it returns.
func (p *Proc) parks() bool {
	if p.step == nil || p.state != stateRunning {
		panic(fmt.Sprintf("vclock: %q parks with SleepNext, WaitNext or PopNext: not a callback process inside its step, or parked already", p.name))
	}
	return !p.killed
}

// SleepNext is the callback form of Sleep: p's next dispatch comes after d of
// virtual time, or for d <= 0 from the back of the run queue at this instant.
func (p *Proc) SleepNext(d Time) {
	if !p.parks() {
		return
	}
	if d > 0 {
		p.arm(nil, d)
		return
	}
	p.state = stateQueued
	p.env.runq.push(p)
}

// WaitNext is the callback form of Wait, or of WaitTimeout when d > 0: p's
// next dispatch comes when ev triggers or d has elapsed (ev.Triggered says
// which). It reports whether the step must return now; false means ev is
// already triggered and nothing was registered.
func (p *Proc) WaitNext(ev *Event, d Time) bool {
	if p.parks() && !ev.triggered {
		p.arm(&ev.waiters, d)
	}
	return p.killed || p.state == stateBlocked
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Sleep blocks the process for d of virtual time. Negative or zero durations
// yield to other runnable processes at the current time.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.park(nil, d)
}

// Yield places the process at the back of the run queue at the current time,
// letting other runnable processes execute first.
func (p *Proc) Yield() {
	p.unwindIfKilled()
	p.state = stateQueued
	p.env.runq.push(p)
	p.yield()
}

// Wait blocks until ev is triggered. Waiting on an already-triggered event
// returns immediately.
func (p *Proc) Wait(ev *Event) {
	p.unwindIfKilled()
	if !ev.triggered {
		p.park(&ev.waiters, 0)
	}
}

// WaitTimeout blocks until ev triggers or d elapses. It reports whether the
// event triggered (true) or the wait timed out (false).
func (p *Proc) WaitTimeout(ev *Event, d Time) bool {
	p.unwindIfKilled()
	if ev.triggered {
		return true
	}
	return d > 0 && p.park(&ev.waiters, d) == wakeEvent
}

// Kill marks the process for termination. A blocked or runnable process is
// unwound the next time it would run; a process killing itself unwinds at
// its next blocking call. Killing a dead process is a no-op.
func (p *Proc) Kill() {
	if p.state == stateDead {
		return
	}
	p.killed = true
	if p.state == stateBlocked {
		// Its wait record stays armed: a later trigger still finds and
		// removes the timeout, an unremoved timeout still comes due.
		p.state = stateQueued
		p.env.runq.push(p)
	}
}

// Trigger fires the event, waking all current waiters in registration order.
// Triggering an already-triggered event is a no-op.
func (ev *Event) Trigger() {
	if ev.triggered {
		return
	}
	ev.triggered = true
	ev.env.stats.Triggers++
	ev.waiters.wake(ev.env, -1)
}

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.triggered }
