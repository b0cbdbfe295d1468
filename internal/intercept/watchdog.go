package intercept

import (
	"slices"

	"jitckpt/internal/cuda"
	"jitckpt/internal/vclock"
)

// noteEventRecord tracks which events were last recorded on an identified
// NCCL stream. Only those events become watch-list candidates: they
// trigger exactly when the collectives ahead of them complete (§3.1).
func (l *Layer) noteEventRecord(ev cuda.Event, s cuda.Stream) {
	if l.eventsOnNCCL == nil {
		l.eventsOnNCCL = make(map[cuda.Event]bool)
	}
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
	if _, ok := l.watch[ev]; !ok {
		l.watch[ev] = l.env.Now()
	}
}

// startWatchdog launches the watchdog process once.
func (l *Layer) startWatchdog() {
	if l.watchdogOn {
		return
	}
	l.watchdogOn = true
	l.watchdogProc = l.env.Go(l.name+".watchdog", l.watchdogLoop)
}

// StopWatchdog kills the watchdog process. The job-restart path uses it
// when an incarnation's processes are torn down.
func (l *Layer) StopWatchdog() {
	if l.watchdogProc != nil {
		l.watchdogProc.Kill()
		l.watchdogProc = nil
		l.watchdogOn = false
	}
}

// WatchedEvents returns the virtual events currently on the watch-list, in
// ascending order, in a slice of the layer's that the next call reuses.
func (l *Layer) WatchedEvents() []cuda.Event {
	l.watched = l.watched[:0]
	for ev := range l.watch {
		l.watched = append(l.watched, ev)
	}
	slices.Sort(l.watched)
	return l.watched
}

// watchdogPoll is the watchdog's EventQuery polling period.
const watchdogPoll = 50 * vclock.Millisecond

// watchdogLoop polls watched events with EventQuery and checks the ages of
// in-flight blocking calls. Completed events leave the watch-list; an
// event or blocking call pending longer than HangTimeout raises a hang
// fault (§3.1, §4.2). The watchdog idles during recovery.
func (l *Layer) watchdogLoop(p *vclock.Proc) {
	for {
		p.Sleep(watchdogPoll)
		if l.inRecovery || l.faultRaised {
			continue
		}
		now := p.Now()

		for _, ev := range l.WatchedEvents() {
			addedAt, ok := l.watch[ev]
			if !ok {
				continue
			}
			pe, ok := cuda.Lookup(l.handles, cuda.EventHandle, ev)
			if !ok {
				delete(l.watch, ev) // event destroyed or remapped away
				continue
			}
			done, err := l.inner.EventQuery(p, pe)
			if err != nil {
				if isInfraFault(err) {
					l.raiseFault(p, FaultError, err)
					break
				}
				delete(l.watch, ev)
				continue
			}
			if done {
				delete(l.watch, ev)
				continue
			}
			if now-addedAt > l.cfg.HangTimeout {
				l.raiseFault(p, FaultHang, nil)
				break
			}
		}
		if l.faultRaised {
			continue
		}

		// Blocking device calls that never return are the other hang
		// signal (§4.2: "detect hangs when device APIs never return").
		for _, started := range l.inflight {
			if now-started > l.cfg.HangTimeout {
				l.raiseFault(p, FaultHang, nil)
				break
			}
		}
	}
}
