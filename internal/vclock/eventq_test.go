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

// popMin removes the earliest entry, unless there is none or it is due
// after limit (limit < 0: no limit).
func (m *refModel) popMin(limit Time) (refEntry, bool) {
	sort.Slice(m.entries, func(i, j int) bool {
		if m.entries[i].deadline != m.entries[j].deadline {
			return m.entries[i].deadline < m.entries[j].deadline
		}
		return m.entries[i].seq < m.entries[j].seq
	})
	if len(m.entries) == 0 || (limit >= 0 && m.entries[0].deadline > limit) {
		return refEntry{}, false
	}
	e := m.entries[0]
	m.entries = m.entries[1:]
	return e, true
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

// checkIndexed verifies that every timer owner's timerIdx and timerLane point
// back at its own entry — the invariant remove() depends on — that a lane in
// use starts with a live timer, that the live entries of a lane are in
// (deadline, seq) order, and that a lane's holes are counted and never
// outnumber its live timers. It returns how many live timers it saw.
func checkIndexed(t interface{ Errorf(string, ...interface{}) }, q *timerQueue) int {
	for i := range q.a {
		if p := q.a[i].p; int(p.timerIdx) != i || p.timerLane != 0 {
			t.Errorf("heap entry %d (seq %d) says it is at %d in lane %d", i, q.a[i].seq, p.timerIdx, p.timerLane)
		}
	}
	n := len(q.a)
	for k := range q.lanes {
		l := &q.lanes[k]
		if l.n > 0 && l.ring[l.head].p == nil {
			t.Errorf("lane %d (delay %d) starts with a hole", k, l.delay)
		}
		var prev *timerEntry
		holes := 0
		for j := 0; j < l.n; j++ {
			i := (l.head + j) & (len(l.ring) - 1)
			e := &l.ring[i]
			if e.p == nil {
				holes++
				continue
			}
			n++
			if int(e.p.timerIdx) != i || int(e.p.timerLane) != k+1 {
				t.Errorf("lane %d slot %d (seq %d) says it is at %d in lane %d", k, i, e.seq, e.p.timerIdx, e.p.timerLane)
			}
			if prev != nil && !prev.before(e) {
				t.Errorf("lane %d (delay %d) out of order: seq %d at %d after seq %d at %d", k, l.delay, e.seq, e.deadline, prev.seq, prev.deadline)
			}
			prev = e
		}
		if holes != l.holes || 2*holes > l.n {
			t.Errorf("lane %d (delay %d) holds %d holes in %d slots, counts %d", k, l.delay, holes, l.n, l.holes)
		}
	}
	return n
}

// stored counts the slots the queue keeps: heap entries and every lane's
// slots in use, holes included.
func stored(q *timerQueue) int {
	n := len(q.a)
	for k := range q.lanes {
		n += q.lanes[k].n
	}
	return n
}

// FuzzQueue drives timerQueue the way the kernel does — a clock that moves
// to each popped deadline, a push due a delay after it — with a random
// program of pushes, pops up to a horizon, removals of heap and lane timers,
// and kills, whose owners' timers are left behind to come due, and checks
// every observable against the sorted-slice reference model. Twelve delays
// for eight lanes: lanes fill, empty and pass to other delays, and the
// overflow shares the heap with them.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 10, 1, 5, 0, 3, 2, 0, 1, 1, 1, 9})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 2, 1, 2, 0, 1, 1})
	f.Add([]byte{0, 200, 0, 200, 0, 200, 1, 1, 1})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0, 0, 0, 8, 3, 1, 4, 0, 2, 5, 1, 0, 1, 3, 0, 1, 1, 0})
	// A killed owner's timer lingers at a lane's head while the timers
	// pushed behind it are removed: holes the lane must compact.
	f.Add([]byte{0, 11, 4, 0, 0, 11, 0, 11, 2, 0, 0, 11, 2, 1, 0, 11, 2, 0, 0, 11, 2, 1, 0, 11, 2, 0, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		var q timerQueue
		var ref refModel
		var now Time
		var pending, idle []*Proc // owners with a timer to remove, and without one
		var seq uint64
		take := func(from *[]*Proc, j int) *Proc {
			j %= len(*from)
			p := (*from)[j]
			*from = append((*from)[:j], (*from)[j+1:]...)
			return p
		}
		for i := 0; i+1 < len(program); i += 2 {
			op, arg := program[i]%5, program[i+1]
			switch op {
			case 0: // push, by an idle owner or a new one
				seq++
				p := &Proc{timerIdx: -1}
				if len(idle) > 0 {
					p = take(&idle, int(arg/16))
				}
				d := Time(1 + arg%12)
				q.push(now, d, seq, p)
				ref.push(now+d, seq, p)
				pending = append(pending, p)
			case 1: // popMin, every third one up to a horizon
				limit := Time(-1)
				if arg%3 == 0 {
					limit = now + Time(arg%5)
				}
				got, gok := q.popMin(limit)
				want, wok := ref.popMin(limit)
				if gok != wok || got.deadline != want.deadline || got.seq != want.seq || got.p != want.p {
					t.Fatalf("popMin(%d) at %d: got (%d, %d, %v), want (%d, %d, %v)",
						limit, now, got.deadline, got.seq, gok, want.deadline, want.seq, wok)
				}
				if !gok {
					continue
				}
				if got.p.timerIdx != -1 {
					t.Fatalf("popped timer's owner still has timerIdx %d", got.p.timerIdx)
				}
				now = got.deadline
				for j, p := range pending {
					if p == got.p { // a killed owner's timer is in no list
						idle = append(idle, take(&pending, j))
						break
					}
				}
			case 2, 3: // remove an arbitrary timer; 3: one in the heap
				from := pending
				if op == 3 {
					from = nil
					for _, p := range pending {
						if p.timerLane == 0 {
							from = append(from, p)
						}
					}
				}
				if len(from) == 0 {
					continue
				}
				p := from[int(arg)%len(from)]
				for j := range pending {
					if pending[j] == p {
						take(&pending, j)
						break
					}
				}
				if got, want := q.remove(p), ref.remove(p); got != want {
					t.Fatalf("remove reported %v, reference says %v", got, want)
				}
				if p.timerIdx != -1 {
					t.Fatalf("removed timer's owner still has timerIdx %d", p.timerIdx)
				}
				idle = append(idle, p)
			case 4: // kill: the owner never removes its timer, nor pushes again
				if len(pending) > 0 {
					take(&pending, int(arg))
				}
			}
			if q.n != len(ref.entries) {
				t.Fatalf("len mismatch: queue %d, reference %d", q.n, len(ref.entries))
			}
			if n := checkIndexed(t, &q); n != q.n {
				t.Fatalf("%d live entries in the heap and lanes, len says %d", n, q.n)
			}
		}
		// Drain: the remaining pop order must equal the reference's.
		for q.n > 0 {
			got, _ := q.popMin(-1)
			want, _ := ref.popMin(-1)
			if got.deadline != want.deadline || got.seq != want.seq {
				t.Fatalf("drain mismatch: got (%d, %d), want (%d, %d)",
					got.deadline, got.seq, want.deadline, want.seq)
			}
		}
		if _, ok := q.popMin(-1); ok {
			t.Fatal("popMin found a timer in an empty queue")
		}
	})
}

// TestStaleTimerRemovedEagerly pins the fix for the dead-entry leak: when an
// event wins the race against a WaitTimeout timer, the loser's entry is
// removed immediately instead of lingering until its deadline. Before the
// fix, each event-win cycle left one dead entry behind, so a hot
// signal-before-deadline loop grew the queue without bound. It counts the
// slots the queue stores, holes included, not its live timers. In the
// second case a timer of the waiter's own delay stays live at the head of
// that delay's lane for the whole loop, so every removal behind it leaves a
// hole until the lane compacts.
func TestStaleTimerRemovedEagerly(t *testing.T) {
	for _, tc := range []struct {
		name     string
		lingerer bool
		max      int
	}{
		// The waiter's timeout and the pinger's sleep.
		{"alone", false, 2},
		// The pinger's sleep, the lingering timer and, in its lane, at
		// most as many holes as live timers: one. Without compaction a
		// hole per cycle piles up behind the lingering timer.
		{"behind a lingering timer", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv(1)
			const cycles = 1000
			evs := make([]*Event, cycles)
			for i := range evs {
				evs[i] = env.NewEvent("ping")
			}
			if tc.lingerer {
				env.Go("lingerer", func(p *Proc) { p.WaitTimeout(env.NewEvent("never"), Second) })
			}
			maxStored := 0
			env.Go("waiter", func(p *Proc) {
				for i := 0; i < cycles; i++ {
					if !p.WaitTimeout(evs[i], Second) {
						t.Errorf("cycle %d: timer fired before the trigger", i)
						return
					}
					maxStored = max(maxStored, stored(&env.timers))
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
			if maxStored > tc.max {
				t.Errorf("timer queue grew to %d stored entries over %d event-win cycles, want at most %d; stale timers are leaking", maxStored, cycles, tc.max)
			}
			if n := stored(&env.timers); n != 0 {
				t.Errorf("%d timer entries left after the simulation drained", n)
			}
		})
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
			free[i] = &Proc{timerIdx: -1}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := free[len(free)-1]
			free = free[:len(free)-1]
			q.push(0, benchDeadline(i), uint64(i), p)
			if len(free) == 0 {
				ent, _ := q.popMin(-1)
				free = append(free, ent.p)
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
