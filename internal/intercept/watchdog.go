package intercept

import (
	"jitckpt/internal/cuda"
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
	if _, ok := l.watch.At(int(ev)); !ok {
		l.watch.Set(int(ev), l.env.Now())
	}
}

// startWatchdog launches the watchdog process once.
func (l *Layer) startWatchdog() {
	if l.watchdogProc != nil {
		return
	}
	w := &watchdog{l: l, call: cuda.Call{Op: cuda.OpEventQuery}}
	l.watchdogProc = l.env.GoFunc(l.name+".watchdog", w.next)
}

// StopWatchdog kills the watchdog process. The job-restart path uses it
// when an incarnation's processes are torn down.
func (l *Layer) StopWatchdog() {
	if l.watchdogProc != nil {
		l.watchdogProc.Kill()
		l.watchdogProc = nil
	}
}

// WatchedEvents returns the virtual events currently on the watch-list, in
// ascending order, in a slice of the layer's that the next call reuses.
func (l *Layer) WatchedEvents() []cuda.Event {
	l.watched = l.watched[:0]
	l.watch.Each(func(ev int, _ vclock.Time) { l.watched = append(l.watched, cuda.Event(ev)) })
	return l.watched
}

// watchdogPoll is the watchdog's EventQuery polling period.
const watchdogPoll = 50 * vclock.Millisecond

// stepper is an inner API that runs a call in steps for a process with no
// stack to block on: cuda.Driver and proxy.Client. Step runs step n (from
// 0) of p's call *c and reports the wait before the step after it or, when
// there is none, the call's outputs. The watchdog's EventQuery goes
// through it.
type stepper interface {
	Step(p *vclock.Proc, c *cuda.Call, n int) (vclock.Until, bool, cuda.Result, error)
}

// watchdog polls the watched events with EventQuery and checks the ages of
// in-flight blocking calls. Completed events leave the watch-list; an
// event or blocking call pending longer than HangTimeout raises a hang
// fault (§3.1, §4.2).
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
// ends it at its next poll.
type watchdog struct {
	l  *Layer
	at dogAt

	now   vclock.Time  // the poll's time
	evs   []cuda.Event // the poll's snapshot of the watch-list
	i     int          // the next event of evs to poll
	ev    cuda.Event   // the event being queried, since added
	since vclock.Time

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
	dogSleep    dogAt = iota // the poll period starts
	dogPoll                  // it is over: poll
	dogEvent                 // poll the next event
	dogQuery                 // the query's next step
	dogRaise                 // raise the fault
	dogInflight              // check the in-flight blocking calls
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

// step runs the poll on from where its last wait left it to its next wait.
// It reports false instead when a user-level watchdog is over: its layer's
// fault is raised, or the process has become raise.
func (w *watchdog) step(p *vclock.Proc) (vclock.Until, bool) {
	l := w.l
	userLevel := l.cfg.Mode == ModeUserLevel
	for {
		switch w.at {
		case dogSleep:
			w.at = dogPoll
			return vclock.Until{D: watchdogPoll}, true
		case dogPoll:
			if userLevel && l.faultRaised {
				return vclock.Until{}, false
			}
			if l.inRecovery || l.faultRaised {
				return vclock.Until{D: watchdogPoll}, true
			}
			w.now, w.evs, w.i, w.at = p.Now(), l.WatchedEvents(), 0, dogEvent
		case dogEvent:
			if w.i == len(w.evs) {
				w.at = dogInflight
				continue
			}
			ev := w.evs[w.i]
			w.i++
			since, ok := l.watch.At(int(ev))
			if !ok {
				continue
			}
			pe, ok := cuda.Lookup(l.handles, cuda.EventHandle, ev)
			if !ok {
				l.watch.Delete(int(ev)) // event destroyed or remapped away
				continue
			}
			w.ev, w.since = ev, since
			w.api, w.call.Event, w.n, w.at = l.inner.(stepper), pe, 0, dogQuery
		case dogQuery:
			u, waits, res, err := w.api.Step(p, &w.call, w.n)
			if w.n++; waits {
				return u, true
			}
			w.at = dogEvent
			switch {
			case err != nil && isInfraFault(err):
				w.kind, w.err, w.at = FaultError, err, dogRaise
			case err != nil || res.Bool:
				l.watch.Delete(int(w.ev))
			case w.now-w.since > l.cfg.HangTimeout:
				w.kind, w.at = FaultHang, dogRaise
			}
		case dogRaise:
			if userLevel && !l.faultRaised {
				p.Become(w.raise)
				return vclock.Until{}, false
			}
			l.raiseFault(p, w.kind, w.err)
			w.err, w.at = nil, dogInflight
		case dogInflight:
			// Blocking device calls that never return are the other hang
			// signal (§4.2: "detect hangs when device APIs never return").
			w.at = dogSleep
			if l.faultRaised {
				continue
			}
			for _, started := range l.inflight {
				if w.now-started > l.cfg.HangTimeout {
					w.kind, w.at = FaultHang, dogRaise
					break
				}
			}
		}
	}
}
