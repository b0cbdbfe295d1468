package intercept

import (
	"errors"

	"jitckpt/internal/cuda"
	"jitckpt/internal/proxy"
	"jitckpt/internal/vclock"
)

// noteEventRecord tracks which events were last recorded on an identified
// NCCL stream. Only those events become watch-list candidates: they
// trigger exactly when the collectives ahead of them complete (§3.1).
func (l *Layer) noteEventRecord(ev cuda.Event, s cuda.Stream) {
	l.eventsOnNCCL[ev] = l.ncclStreams[s]
}

// noteStreamWaitEvent adds an NCCL-recorded event to the watch-list when a
// StreamWaitEvent starts waiting on it, and starts the watchdog on the
// first such call (§3.1: "we start a watchdog thread at the first
// intercepted cudaStreamWaitEvent").
func (l *Layer) noteStreamWaitEvent(ev cuda.Event) {
	l.startWatchdog()
	if !l.eventsOnNCCL[ev] {
		return
	}
	l.settleWatch()
	if _, ok := l.watch.At(int(ev)); ok {
		return
	}
	e := watchEntry{since: l.env.Now(), done: -1}
	if pe, ok := cuda.Lookup(l.handles, cuda.EventHandle, ev); ok {
		if done, _ := l.inner.(stepper).EventState(pe); done {
			e.done = e.since
		}
	}
	l.watch.Set(int(ev), e)
	l.reschedule(int(ev), e)
}

// watchEntry is one watched event: when it joined the watch-list, and when
// the record EventQuery reads completed, -1 while that record is pending.
type watchEntry struct{ since, done vclock.Time }

// settleWatch drops each watched event that a poll the watchdog slept
// through dropped: one whose record had completed at a tick that has passed
// and at which the layer was not idling. The watchdog wakes for no such
// poll; the watch-list is settled wherever it is read or its entries'
// since matter.
func (l *Layer) settleWatch() {
	w := l.dog
	if w == nil {
		return
	}
	now := l.env.Now()
	for ev, e, ok := l.watch.Next(0); ok; ev, e, ok = l.watch.Next(ev + 1) {
		if e.done < 0 {
			continue
		}
		if t := w.tickAt(max(e.done, e.since)); t < now && (!l.idling() || t < l.idleAt) {
			l.watch.Delete(ev)
		}
	}
}

// idle notes that the layer begins to idle, unless it already does.
func (l *Layer) idle() {
	if !l.idling() {
		l.idleAt = l.env.Now()
	}
}

// idling reports whether polls idle: a fault is raised or a recovery runs.
func (l *Layer) idling() bool { return l.faultRaised || l.inRecovery }

// watchedAs returns the watched event whose physical handle is pe.
func (l *Layer) watchedAs(pe cuda.Event) (int, watchEntry, bool) {
	for ev, e, ok := l.watch.Next(0); ok; ev, e, ok = l.watch.Next(ev + 1) {
		if p, mapped := cuda.Lookup(l.handles, cuda.EventHandle, cuda.Event(ev)); mapped && p == pe {
			return ev, e, true
		}
	}
	return 0, watchEntry{}, false
}

// layerWatcher is the layer as its inner API's cuda.Watcher: what moves an
// EventQuery's answer moves the watchdog's next poll.
type layerWatcher Layer

func (l *Layer) watcher() cuda.Watcher { return (*layerWatcher)(l) }

// EventDone notes when a watched event's record completed: a poll drops the
// event without waking for it, unless the record carries an infrastructure
// error, which a poll must raise.
func (lw *layerWatcher) EventDone(pe cuda.Event) {
	l := (*Layer)(lw)
	if ev, e, ok := l.watchedAs(pe); ok {
		e.done = l.env.Now()
		l.watch.Set(ev, e)
		l.reschedule(ev, e)
	}
}

// EventRecorded notes that a watched event's record is pending again,
// after settling what a poll the watchdog slept through did with the old
// one.
func (lw *layerWatcher) EventRecorded(pe cuda.Event) {
	l := (*Layer)(lw)
	if _, _, ok := l.watchedAs(pe); !ok {
		return
	}
	l.settleWatch()
	if ev, e, ok := l.watchedAs(pe); ok {
		e.done = -1
		l.watch.Set(ev, e)
		l.reschedule(ev, e)
	}
}

// HealthChanged moves the next poll to where the device's new health, or
// the proxy's stop, is seen.
func (lw *layerWatcher) HealthChanged() {
	if w := lw.dog; w != nil {
		if t, ok := w.nextPoll(); ok {
			w.schedule(t)
		}
	}
}

// reschedule brings the next poll forward to where watched event ev must be
// read.
func (l *Layer) reschedule(ev int, e watchEntry) {
	if l.dog != nil {
		if t, due := l.dog.entryTick(ev, e); due {
			l.dog.schedule(t)
		}
	}
}

// startWatchdog launches the watchdog process once. Its polls fall on the
// ticks of its start, and over a device proxy its thread is a standing one
// (proxy.Client.Pin).
func (l *Layer) startWatchdog() {
	if l.watchdogProc != nil {
		return
	}
	w := &watchdog{l: l, start: l.env.Now(), handled: l.env.Now(), call: cuda.Call{Op: cuda.OpEventQuery}}
	l.dog = w
	l.watchdogProc = l.env.GoFunc(l.name+".watchdog", w.next)
	l.watchdogProc.RunLast()
	l.pinWatchdog()
}

// pinWatchdog makes the watchdog a standing thread of a proxied inner API.
func (l *Layer) pinWatchdog() {
	if pn, ok := l.inner.(interface{ Pin(*vclock.Proc) }); ok && l.watchdogProc != nil {
		pn.Pin(l.watchdogProc)
	}
}

// StopWatchdog kills the watchdog process, leaving no timer of its behind.
// The job-restart path uses it when an incarnation's processes are torn
// down.
func (l *Layer) StopWatchdog() {
	l.settleWatch()
	l.dog = nil
	if l.watchdogProc != nil {
		l.watchdogProc.Disarm()
		l.watchdogProc.Kill()
		l.watchdogProc = nil
	}
}

// WatchedEvents returns the virtual events currently on the watch-list, in
// ascending order, in a slice of the layer's that the next call reuses.
func (l *Layer) WatchedEvents() []cuda.Event {
	l.settleWatch()
	l.watched = l.watched[:0]
	for ev, _, ok := l.watch.Next(0); ok; ev, _, ok = l.watch.Next(ev + 1) {
		l.watched = append(l.watched, cuda.Event(ev))
	}
	return l.watched
}

// watchdogPoll is the watchdog's EventQuery polling period: its polls fall
// on the ticks start + k·watchdogPoll (k ≥ 1) of the watchdog's start.
const watchdogPoll = 50 * vclock.Millisecond

// stepper is an inner API that runs a call in steps for a process with no
// stack to block on: cuda.Driver and proxy.Client. Step runs step n (from
// 0) of p's call *c and reports the wait before the step after it or, when
// there is none, the call's outputs. The watchdog's EventQuery goes
// through it. EventState is the EventQuery answer now, in zero time: what
// the watchdog reads at its ticks.
type stepper interface {
	Step(p *vclock.Proc, c *cuda.Call, n int) (vclock.Until, bool, cuda.Result, error)
	EventState(ev cuda.Event) (bool, error)
	Watch(w cuda.Watcher)
}

// watchdog polls the watched events with EventQuery and checks the ages of
// in-flight blocking calls. Completed events leave the watch-list; an
// event or blocking call pending longer than HangTimeout raises a hang
// fault (§3.1, §4.2).
//
// A poll is a function of the layer's and device's state at its tick (DESIGN.md
// "The watchdog's poll grid"). The watchdog runs last at its instants
// (vclock.Proc.RunLast), so at a tick it sees everything else that happened
// then, and reads there, in zero time, what each watched event's EventQuery
// answers (stepper.EventState): a finished event leaves the watch-list at
// once, and the first event that raises, if any, is noted. Then it pays for
// the queries, in watch-list order, as real EventQuery calls, up to the one
// that raises, and raises its fault when that query returns. An answer lost
// to a proxy stop (proxy.ErrProxyDown) ends the poll. With no event raising,
// a blocking call older than HangTimeout at the tick raises a hang after the
// last query.
//
// The poll is written as steps (step), and the process is a callback
// (next) that parks at each wait with AwaitNext. A transparent-mode
// OnFault only signals the recovery controller and runs inside the step;
// the watchdog idles during recovery and polls on after it. In user-level
// mode the watchdog ends at its layer's fault, as §3.2's "exits the
// process immediately after the checkpoint": the OnFault it raises takes
// the save on the watchdog's own thread and blocks, so the callback hands
// the process to a coroutine that only raises the fault (Proc.Become), and
// the process retires when OnFault returns. A fault a worker's call raised
// ends it at its next tick.
type watchdog struct {
	l       *Layer
	at      dogAt
	start   vclock.Time  // the tick grid's origin
	handled vclock.Time  // the last tick it woke at, at first start
	due     vclock.Time  // the tick its timer is set for, while at dogPoll
	wake    vclock.Event // what it waits for at dogWake

	now  vclock.Time  // the poll's tick
	evs  []cuda.Event // the poll's snapshot of the watch-list
	i    int          // the next event of evs to query
	stop int          // the event of evs that raises, else len(evs)
	hung bool         // a blocking call was older than HangTimeout at the tick

	// The query in progress: the inner API it started on (a SetInner
	// meanwhile does not redirect it), the EventQuery (each query sets its
	// Event), and its next step.
	api  stepper
	call cuda.Call
	n    int

	kind FaultKind // the fault to raise
	err  error
}

type dogAt uint8

const (
	dogSleep    dogAt = iota // sleep to the next poll
	dogWake                  // no poll is due: a change woke it
	dogPoll                  // a tick: look
	dogEvent                 // query the next event
	dogQuery                 // the query's next step
	dogRaise                 // raise the fault
	dogInflight              // the queries are done: an in-flight hang?
)

// next is the watchdog's step as a callback process.
func (w *watchdog) next(p *vclock.Proc) {
	for {
		u, ok := w.step(p)
		if !ok || p.AwaitNext(u) {
			return
		}
	}
}

// raise is the user-level watchdog's last step, as a coroutine: the fault
// and its OnFault.
func (w *watchdog) raise(p *vclock.Proc) { w.l.raiseFault(p, w.kind, w.err) }

// tickAt returns the first tick at or after t that the watchdog has not
// yet woken at.
func (w *watchdog) tickAt(t vclock.Time) vclock.Time {
	t = max(t, w.handled+1)
	return w.start + (t-w.start+watchdogPoll-1)/watchdogPoll*watchdogPoll
}

// tick returns the first tick at or after t still to come.
func (w *watchdog) tick(t vclock.Time) vclock.Time { return w.tickAt(max(t, w.l.env.Now())) }

// nextPoll returns the first tick at which a poll could change something,
// false when none could until something changes: a user-level watchdog's
// end after its layer's fault; a watched event that raises (an
// infrastructure error: the device's health, the proxy down, a record's
// network error) or that could be older than HangTimeout; an event a poll
// must drop for another reason than a completed record; a blocking call
// that could be older than HangTimeout. An idling layer needs none.
func (w *watchdog) nextPoll() (t vclock.Time, ok bool) {
	l := w.l
	if l.cfg.Mode == ModeUserLevel && l.faultRaised {
		return w.tick(0), true
	}
	if l.idling() {
		return 0, false
	}
	l.settleWatch()
	for ev, e, more := l.watch.Next(0); more; ev, e, more = l.watch.Next(ev + 1) {
		if u, due := w.entryTick(ev, e); due && (!ok || u < t) {
			t, ok = u, true
		}
	}
	for _, started := range l.inflight {
		if u := w.tick(started + l.cfg.HangTimeout + 1); !ok || u < t {
			t, ok = u, true
		}
	}
	return t, ok
}

// entryTick is the first tick at which a poll must read watched event ev,
// false when none need: its record completed, and a poll drops it whenever
// one looks (settleWatch).
func (w *watchdog) entryTick(ev int, e watchEntry) (vclock.Time, bool) {
	l := w.l
	pe, ok := cuda.Lookup(l.handles, cuda.EventHandle, cuda.Event(ev))
	if !ok {
		return w.tick(e.since), true
	}
	done, err := l.inner.(stepper).EventState(pe)
	switch {
	case err != nil && isInfraFault(err), (err != nil || done) && e.done < 0:
		return w.tick(e.since), true
	case err != nil || done:
		return 0, false
	}
	return w.tick(e.since + l.cfg.HangTimeout + 1), true
}

// schedule brings the next poll forward to tick t, when t is earlier: the
// timer of a watchdog parked for a tick moves (vclock.Proc.Rewake), and one
// parked with no poll due is woken to reschedule. A poll in progress
// reschedules when it ends.
func (w *watchdog) schedule(t vclock.Time) {
	switch w.at {
	case dogPoll:
		if t < w.due {
			w.due = t
			w.l.watchdogProc.Rewake(t)
		}
	case dogWake:
		w.wake.Trigger()
	}
}

// look reads the watch-list and the in-flight calls at the tick: finished
// events leave the list, and the first event that raises stops the poll's
// queries there.
func (w *watchdog) look() {
	l := w.l
	w.now, w.evs, w.i, w.hung = l.env.Now(), l.WatchedEvents(), 0, false
	w.stop = len(w.evs)
	for j, ev := range w.evs {
		del, raise, kind, err := l.verdict(ev, w.now)
		if del {
			l.watch.Delete(int(ev))
		}
		if raise && w.stop == len(w.evs) {
			w.stop, w.kind, w.err = j, kind, err
		}
	}
	for _, started := range l.inflight {
		if w.now-started > l.cfg.HangTimeout {
			w.hung = true
		}
	}
}

// verdict is what a poll at tick now decides for watched event ev: leave
// the watch-list (del), or raise a fault of kind with err.
func (l *Layer) verdict(ev cuda.Event, now vclock.Time) (del, raise bool, kind FaultKind, err error) {
	e, _ := l.watch.At(int(ev))
	pe, ok := cuda.Lookup(l.handles, cuda.EventHandle, ev)
	if !ok {
		return true, false, 0, nil // event destroyed or remapped away
	}
	done, err := l.inner.(stepper).EventState(pe)
	switch {
	case err != nil && isInfraFault(err):
		return false, true, FaultError, err
	case err != nil || done:
		return true, false, 0, nil
	case now-e.since > l.cfg.HangTimeout:
		return false, true, FaultHang, nil
	}
	return false, false, 0, nil
}

// step runs the poll on from where its last wait left it to its next wait.
// It reports false instead when a user-level watchdog is over: its layer's
// fault is raised, or the process has become raise.
func (w *watchdog) step(p *vclock.Proc) (vclock.Until, bool) {
	l := w.l
	userLevel := l.cfg.Mode == ModeUserLevel
	for {
		switch w.at {
		case dogSleep:
			t, ok := w.nextPoll()
			if !ok {
				w.at = dogWake
				l.env.InitEvent(&w.wake, "watchdog.wake")
				return vclock.Until{Ev: &w.wake}, true
			}
			w.at, w.due = dogPoll, t
			return vclock.Until{D: t - p.Now()}, true
		case dogWake:
			w.at = dogSleep
		case dogPoll:
			l.settleWatch() // what the ticks slept through dropped
			w.handled = p.Now()
			if userLevel && l.faultRaised {
				return vclock.Until{}, false
			}
			w.at = dogSleep
			if !l.idling() {
				w.look()
				w.at = dogEvent
			}
		case dogEvent:
			switch {
			case w.i > w.stop, w.i == w.stop && errors.Is(w.err, proxy.ErrProxyDown):
				w.at = dogRaise // past the raising query; to a down server none goes
				continue
			case w.i == len(w.evs):
				w.at = dogInflight
				continue
			}
			pe, ok := cuda.Lookup(l.handles, cuda.EventHandle, w.evs[w.i])
			if w.i++; !ok {
				continue // no handle left to query
			}
			w.api, w.call.Event, w.n, w.at = l.inner.(stepper), pe, 0, dogQuery
		case dogQuery:
			u, waits, _, err := w.api.Step(p, &w.call, w.n)
			if w.n++; waits {
				return u, true
			}
			w.at = dogEvent
			if errors.Is(err, proxy.ErrProxyDown) {
				w.at = dogSleep // the answer was lost to a proxy stop
			}
		case dogRaise:
			if userLevel && !l.faultRaised {
				p.Become(w.raise)
				return vclock.Until{}, false
			}
			l.raiseFault(p, w.kind, w.err)
			w.err, w.at = nil, dogSleep
		case dogInflight:
			// Blocking device calls that never return are the other hang
			// signal (§4.2: "detect hangs when device APIs never return").
			w.at = dogSleep
			if w.hung && !l.faultRaised {
				w.kind, w.at = FaultHang, dogRaise
			}
		}
	}
}
