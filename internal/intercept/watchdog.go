package intercept

import (
	"sort"

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
		l.watch[ev] = &watchEntry{event: ev, addedAt: l.env.Now()}
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

// WatchdogRunning reports whether the watchdog process has been started.
func (l *Layer) WatchdogRunning() bool { return l.watchdogOn }

// StopWatchdog kills the watchdog process. The job-restart path uses it
// when an incarnation's processes are torn down.
func (l *Layer) StopWatchdog() {
	if l.watchdogProc != nil {
		l.watchdogProc.Kill()
		l.watchdogProc = nil
		l.watchdogOn = false
	}
}

// WatchedEvents returns the virtual events currently on the watch-list.
func (l *Layer) WatchedEvents() []cuda.Event {
	out := make([]cuda.Event, 0, len(l.watch))
	for ev := range l.watch {
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WatchdogStats reports the adaptive watchdog's learning state.
type WatchdogStats struct {
	// EffectiveTimeout is the current escalated base timeout (equals the
	// configured HangTimeout until a false positive occurs).
	EffectiveTimeout vclock.Time
	// Suspects counts entries whose deadline was extended at least once.
	Suspects int
	// FalsePositives counts suspects that completed before their extended
	// deadline — stragglers, not hangs.
	FalsePositives int
}

// Watchdog returns the adaptive watchdog's statistics.
func (l *Layer) Watchdog() WatchdogStats {
	return WatchdogStats{
		EffectiveTimeout: l.effTimeout,
		Suspects:         l.suspects,
		FalsePositives:   l.falsePositives,
	}
}

// noteFalsePositive records that a suspected hang completed: the workload
// has stragglers slower than the current threshold, so the effective base
// timeout doubles (capped at HangTimeoutMax) to stop tripping on them.
func (l *Layer) noteFalsePositive() {
	l.falsePositives++
	if next := 2 * l.effTimeout; next <= l.cfg.HangTimeoutMax {
		l.effTimeout = next
	} else {
		l.effTimeout = l.cfg.HangTimeoutMax
	}
	l.env.Tracef("%s: watchdog false positive #%d, base timeout now %v",
		l.name, l.falsePositives, l.effTimeout)
}

// finishInflight removes p's in-flight record when its blocking call
// returns, counting a completed suspect as a false positive.
func (l *Layer) finishInflight(p *vclock.Proc) {
	if c, ok := l.inflight[p]; ok {
		if c.suspected {
			l.noteFalsePositive()
		}
		delete(l.inflight, p)
	}
}

// overdue implements the escalation shared by watched events and in-flight
// calls. Fixed mode: hung once age exceeds HangTimeout. Adaptive mode: the
// first missed deadline marks the entry suspect and doubles its window
// (capped at HangTimeoutMax); only a suspect that misses the extended
// deadline is a true hang. It returns the updated deadline/suspected state
// and whether to raise a hang now.
func (l *Layer) overdue(now, started, deadline vclock.Time, suspected bool) (vclock.Time, bool, bool) {
	if !l.cfg.Adaptive {
		return deadline, suspected, now-started > l.cfg.HangTimeout
	}
	if deadline == 0 {
		deadline = started + l.effTimeout
	}
	if now <= deadline {
		return deadline, suspected, false
	}
	if !suspected {
		span := 2 * (deadline - started)
		if span > l.cfg.HangTimeoutMax {
			span = l.cfg.HangTimeoutMax
		}
		deadline = started + span
		l.suspects++
		if now <= deadline {
			l.env.Tracef("%s: watchdog suspects a hang, extending deadline to %v", l.name, deadline)
			return deadline, true, false
		}
		// Even the maximal window has already passed: a true hang.
		return deadline, true, true
	}
	return deadline, suspected, true
}

// watchdogLoop polls watched events with EventQuery and checks the ages of
// in-flight blocking calls. Completed events leave the watch-list; an
// event or blocking call pending longer than the hang timeout — escalated
// per overdue when adaptive mode is on — raises a hang fault (§3.1, §4.2).
// The watchdog idles during recovery.
func (l *Layer) watchdogLoop(p *vclock.Proc) {
	for {
		p.Sleep(l.cfg.WatchdogPoll)
		if l.inRecovery || l.faultRaised {
			continue
		}
		now := p.Now()

		for _, ev := range l.WatchedEvents() {
			we, ok := l.watch[ev]
			if !ok {
				continue
			}
			pe, ok := l.handles.Events[ev]
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
				if we.suspected {
					l.noteFalsePositive()
				}
				delete(l.watch, ev)
				continue
			}
			var hung bool
			we.deadline, we.suspected, hung = l.overdue(now, we.addedAt, we.deadline, we.suspected)
			if hung {
				l.raiseFault(p, FaultHang, nil)
				break
			}
		}
		if l.faultRaised {
			continue
		}

		// Blocking device calls that never return are the other hang
		// signal (§4.2: "detect hangs when device APIs never return").
		procs := make([]*vclock.Proc, 0, len(l.inflight))
		for proc := range l.inflight {
			procs = append(procs, proc)
		}
		sort.Slice(procs, func(i, j int) bool {
			return l.inflight[procs[i]].started < l.inflight[procs[j]].started
		})
		for _, proc := range procs {
			c := l.inflight[proc]
			var hung bool
			c.deadline, c.suspected, hung = l.overdue(now, c.started, c.deadline, c.suspected)
			if hung {
				l.raiseFault(p, FaultHang, nil)
				break
			}
		}
	}
}
