package vclock

import (
	"container/heap"
	"sort"
	"testing"
)

// refEntry mirrors a timerQueue entry in the reference model.
type refEntry struct {
	deadline Time
	seq      uint64
	p        *Proc
}

// refModel is the obviously-correct reference the fuzzer compares the heap
// against: a plain slice re-sorted by (deadline, seq) before every pop.
type refModel struct {
	entries []refEntry
}

func (m *refModel) push(deadline Time, seq uint64, p *Proc) {
	m.entries = append(m.entries, refEntry{deadline, seq, p})
}

func (m *refModel) popMin() refEntry {
	sort.Slice(m.entries, func(i, j int) bool {
		if m.entries[i].deadline != m.entries[j].deadline {
			return m.entries[i].deadline < m.entries[j].deadline
		}
		return m.entries[i].seq < m.entries[j].seq
	})
	e := m.entries[0]
	m.entries = m.entries[1:]
	return e
}

func (m *refModel) remove(p *Proc) bool {
	for i, e := range m.entries {
		if e.p == p {
			m.entries = append(m.entries[:i], m.entries[i+1:]...)
			return true
		}
	}
	return false
}

// checkIndexed verifies that every timer owner's heapIdx points back at its
// own entry — the invariant remove() depends on for O(log n) deletion.
func checkIndexed(t interface{ Errorf(string, ...interface{}) }, q *timerQueue) {
	for i := range q.a {
		if got := int(q.a[i].p.heapIdx); got != i {
			t.Errorf("heapIdx broken: entry %d (seq %d) has heapIdx %d", i, q.a[i].seq, got)
		}
	}
}

// FuzzQueue drives timerQueue with a random push/pop/remove program and
// checks every observable against the sorted-slice reference model.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 10, 1, 5, 0, 3, 2, 0, 1, 1, 1, 9})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 2, 1, 2, 0, 1, 1})
	f.Add([]byte{0, 200, 0, 200, 0, 200, 1, 1, 1})
	f.Fuzz(func(t *testing.T, program []byte) {
		var q timerQueue
		var ref refModel
		var live []*Proc
		var seq uint64
		for i := 0; i+1 < len(program); i += 2 {
			op, arg := program[i]%3, program[i+1]
			switch op {
			case 0: // push
				seq++
				// Few distinct deadlines on purpose: ties are where the
				// (deadline, seq) order can silently break.
				deadline := Time(arg % 8)
				p := &Proc{heapIdx: -1}
				q.push(deadline, seq, p)
				ref.push(deadline, seq, p)
				live = append(live, p)
			case 1: // popMin
				if q.len() == 0 {
					continue
				}
				got, want := q.popMin(), ref.popMin()
				if got.deadline != want.deadline || got.seq != want.seq || got.p != want.p {
					t.Fatalf("popMin mismatch: got (%v, %d), want (%v, %d)",
						got.deadline, got.seq, want.deadline, want.seq)
				}
				if got.p.heapIdx != -1 {
					t.Fatalf("popped timer's owner still has heapIdx %d", got.p.heapIdx)
				}
			case 2: // remove an arbitrary owner's timer (popped ones have none)
				if len(live) == 0 {
					continue
				}
				j := int(arg) % len(live)
				p := live[j]
				live = append(live[:j], live[j+1:]...)
				if got, want := q.remove(p), ref.remove(p); got != want {
					t.Fatalf("remove reported %v, reference says %v", got, want)
				}
				if p.heapIdx != -1 {
					t.Fatalf("removed timer's owner still has heapIdx %d", p.heapIdx)
				}
			}
			if q.len() != len(ref.entries) {
				t.Fatalf("len mismatch: heap %d, reference %d", q.len(), len(ref.entries))
			}
			checkIndexed(t, &q)
		}
		// Drain: the remaining pop order must equal the reference's.
		for q.len() > 0 {
			got, want := q.popMin(), ref.popMin()
			if got.deadline != want.deadline || got.seq != want.seq {
				t.Fatalf("drain mismatch: got (%v, %d), want (%v, %d)",
					got.deadline, got.seq, want.deadline, want.seq)
			}
		}
	})
}

// TestStaleTimerRemovedEagerly pins the fix for the dead-entry leak: when an
// event wins the race against a WaitTimeout timer, the loser's heap entry is
// removed immediately instead of lingering until its deadline. Before the
// fix, each event-win cycle left one dead entry behind, so a hot
// signal-before-deadline loop grew the heap without bound.
func TestStaleTimerRemovedEagerly(t *testing.T) {
	env := NewEnv(1)
	const cycles = 1000
	evs := make([]*Event, cycles)
	for i := range evs {
		evs[i] = env.NewEvent("ping")
	}
	maxTimers := 0
	env.Go("waiter", func(p *Proc) {
		for i := 0; i < cycles; i++ {
			if !p.WaitTimeout(evs[i], Second) {
				t.Errorf("cycle %d: timer fired before the trigger", i)
				return
			}
			// At most the pinger's own sleep timer may be live here; the
			// waiter's timeout must have left the heap when the event won.
			if n := env.timers.len(); n > maxTimers {
				maxTimers = n
			}
		}
	})
	env.Go("pinger", func(p *Proc) {
		for i := 0; i < cycles; i++ {
			p.Sleep(Microsecond)
			evs[i].Trigger()
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if maxTimers > 2 {
		t.Errorf("timer heap grew to %d entries over %d event-win cycles; stale timers are leaking", maxTimers, cycles)
	}
	if n := env.timers.len(); n != 0 {
		t.Errorf("%d timer entries left after the simulation drained", n)
	}
}

// legacyTimer and legacyHeap reconstruct the previous container/heap
// implementation — pointer entries, one allocation per push — as the
// baseline the benchmark below compares the indexed value heap against.
type legacyTimer struct {
	deadline Time
	seq      uint64
}

type legacyHeap []*legacyTimer

func (h legacyHeap) Len() int { return len(h) }
func (h legacyHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h legacyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *legacyHeap) Push(x interface{}) { *h = append(*h, x.(*legacyTimer)) }
func (h *legacyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// benchDeadline spreads deadlines so pushes interleave with pops the way
// simulation timers do, rather than degenerate FIFO order.
func benchDeadline(i int) Time { return Time((i * 2654435761) % 4096) }

func BenchmarkTimerQueuePushPop(b *testing.B) {
	b.Run("indexed", func(b *testing.B) {
		var q timerQueue
		// A process owns at most one timer: owners come from a free list
		// that each pop refills.
		free := make([]*Proc, 64)
		for i := range free {
			free[i] = &Proc{heapIdx: -1}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := free[len(free)-1]
			free = free[:len(free)-1]
			q.push(benchDeadline(i), uint64(i), p)
			if len(free) == 0 {
				free = append(free, q.popMin().p)
			}
		}
	})
	b.Run("legacy", func(b *testing.B) {
		var h legacyHeap
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			heap.Push(&h, &legacyTimer{deadline: benchDeadline(i), seq: uint64(i)})
			if h.Len() >= 64 {
				heap.Pop(&h)
			}
		}
	})
}

// BenchmarkSleepCycle measures one full kernel scheduling cycle: timer
// push, heap pop, clock advance, process dispatch.
func BenchmarkSleepCycle(b *testing.B) {
	b.ReportAllocs()
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

// TestSleepCycleAllocFree pins the steady-state allocation budget of the
// kernel's hottest path. A finished Env cannot be resumed (RunUntil kills
// the remaining processes at its horizon), so the marginal cost per cycle
// is taken as the difference between a long and a short complete run: the
// fixed setup cost (Env, Proc, goroutine) cancels, and what remains is the
// per-cycle cost — which must be zero, because a sleep cycle's wait record
// is part of the Proc and its heap slot is reused.
func TestSleepCycleAllocFree(t *testing.T) {
	measure := func(cycles int) float64 {
		return testing.AllocsPerRun(10, func() {
			env := NewEnv(1)
			env.Go("sleeper", func(p *Proc) {
				for i := 0; i < cycles; i++ {
					p.Sleep(Microsecond)
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const short, long = 200, 1200
	perCycle := (measure(long) - measure(short)) / (long - short)
	t.Logf("%.4f allocs per sleep cycle", perCycle)
	if perCycle > 0.01 {
		t.Errorf("one sleep cycle allocates %.4f objects, want ~0", perCycle)
	}
}
