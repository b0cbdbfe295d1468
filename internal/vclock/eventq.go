package vclock

// This file implements the kernel's two scheduling containers:
//
//   - timerQueue, the pending virtual-time wakeups in (deadline, seq) order.
//     Most timers come from a handful of recurring delays (a device call's
//     host latency, a kernel's duration, a watchdog's poll), and timers that
//     share a delay arrive already in order: they are pushed at a
//     nondecreasing now with an increasing seq. Each such delay gets a FIFO
//     lane, and the rest go to an indexed 4-ary min-heap beside the lanes. A
//     pop takes the least of the heap top and the lane heads. Entries are
//     stored by value, so pushing a timer allocates nothing beyond amortized
//     slice growth, and each entry's process records where the entry is (a
//     process has at most one timer), so a timer whose event won the race is
//     removed eagerly: from the heap in O(log n), from a lane by leaving a
//     hole that is skipped once it reaches the head. A lane whose holes
//     outnumber its live timers (a long-lived timer at its head, removals
//     behind it) is compacted, so a lane never stores more than twice its
//     live timers.
//
//   - procRing, a power-of-two ring buffer holding runnable processes in
//     FIFO order. The previous []*Proc with head slicing re-allocated the
//     backing array on nearly every wake; the ring reuses it indefinitely.
//
// Both containers preserve the exact scheduling order of the original
// container/heap + slice implementation: (deadline, seq) is a strict total
// order (seq is unique), so the earliest entry is fully determined by the
// comparator regardless of heap shape or of which lane holds it, and the
// ring is FIFO by construction. Golden traces are therefore byte-identical
// across the swap.

// timerEntry is one pending wakeup, stored by value in the heap or a lane.
// A lane entry whose p is nil is a hole left by a removal.
type timerEntry struct {
	deadline Time
	seq      uint64
	p        *Proc
}

func (a *timerEntry) before(b *timerEntry) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.seq < b.seq
}

// timerArity is the heap fan-out. A 4-ary heap halves the tree depth of a
// binary heap, which wins on the push-heavy workload here (most timers are
// removed eagerly or popped in near-FIFO order).
const timerArity = 4

// timerLanes is the number of delays that get a lane at once. With eight,
// every timer the repository benchmark's four workloads push lands in a lane
// (the fleet pushes 18 distinct delays, but each push found its delay's
// lane or an empty one); with four, 89 % of the fleet's do.
const timerLanes = 8

type timerQueue struct {
	a     []timerEntry // the heap
	lanes [timerLanes]timerLane
	n     int // live timers, heap and lanes together
}

// timerLane is a FIFO ring of the timers of one delay. A lane that has
// emptied is free to take the next delay that finds no lane of its own.
type timerLane struct {
	delay          Time
	ring           []timerEntry // a power of two long
	head, n, holes int          // n counts the slots in use from head, holes included
}

// push adds p's timer, due d after now.
func (q *timerQueue) push(now, d Time, seq uint64, p *Proc) {
	q.n++
	ent := timerEntry{deadline: now + d, seq: seq, p: p}
	k := -1 // d's lane, else the first free one
	for i := range q.lanes {
		if l := &q.lanes[i]; l.delay == d || (k < 0 && l.n == 0) {
			if k = i; l.delay == d {
				break
			}
		}
	}
	if k >= 0 {
		q.lanes[k].delay = d
		q.lanes[k].push(ent)
		p.timerLane = int8(k + 1)
		return
	}
	q.a = append(q.a, ent)
	p.timerIdx, p.timerLane = int32(len(q.a)-1), 0
	q.siftUp(len(q.a) - 1)
}

// popMin removes and returns the earliest timer, unless there is none or it
// is due after limit (limit < 0: no limit).
func (q *timerQueue) popMin(limit Time) (timerEntry, bool) {
	var min *timerEntry
	if len(q.a) > 0 {
		min = &q.a[0]
	}
	for i := range q.lanes {
		if l := &q.lanes[i]; l.n > 0 && (min == nil || l.ring[l.head].before(min)) {
			min = &l.ring[l.head]
		}
	}
	if min == nil || (limit >= 0 && min.deadline > limit) {
		return timerEntry{}, false
	}
	e := *min
	q.remove(e.p)
	return e, true
}

// remove deletes p's entry, if it has one, without disturbing the relative
// order of the remaining entries. It reports whether an entry was removed.
func (q *timerQueue) remove(p *Proc) bool {
	i := int(p.timerIdx)
	if i < 0 {
		return false
	}
	p.timerIdx = -1
	q.n--
	if p.timerLane > 0 {
		q.lanes[p.timerLane-1].clear(i)
		return true
	}
	last := len(q.a) - 1
	if i != last {
		q.a[i] = q.a[last]
		q.a[i].p.timerIdx = int32(i)
	}
	q.a[last] = timerEntry{}
	q.a = q.a[:last]
	if i < last {
		if !q.siftDown(i) {
			q.siftUp(i)
		}
	}
	return true
}

func (l *timerLane) push(e timerEntry) {
	if l.n == len(l.ring) {
		l.grow()
	}
	i := (l.head + l.n) & (len(l.ring) - 1)
	l.ring[i] = e
	e.p.timerIdx = int32(i)
	l.n++
}

// clear empties slot i and, when that leaves a hole at the head, moves the
// head past every hole: a lane in use always starts with a live timer. When
// holes then outnumber live timers, the lane is compacted in place.
func (l *timerLane) clear(i int) {
	l.ring[i] = timerEntry{}
	l.holes++
	for l.n > 0 && l.ring[l.head].p == nil {
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
		l.holes--
	}
	if 2*l.holes > l.n {
		l.repack(l.ring, l.head)
	}
}

func (l *timerLane) grow() {
	l.repack(make([]timerEntry, max(16, 2*len(l.ring))), 0)
}

// repack moves the live timers, in order, to the slots of ring from head
// on, leaving no holes. ring may be the lane's own: a timer only moves
// towards the head, onto a slot already read.
func (l *timerLane) repack(ring []timerEntry, head int) {
	live := 0
	for j := 0; j < l.n; j++ {
		e := l.ring[(l.head+j)&(len(l.ring)-1)]
		if e.p == nil {
			continue
		}
		i := (head + live) & (len(ring) - 1)
		ring[i], e.p.timerIdx = e, int32(i)
		live++
	}
	for j := live; j < l.n; j++ {
		ring[(head+j)&(len(ring)-1)] = timerEntry{}
	}
	l.ring, l.head, l.n, l.holes = ring, head, live, 0
}

func (q *timerQueue) less(i, j int) bool { return q.a[i].before(&q.a[j]) }

func (q *timerQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / timerArity
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// siftDown restores heap order below i, reporting whether anything moved
// (remove uses this to decide whether to sift up instead).
func (q *timerQueue) siftDown(i int) bool {
	moved := false
	n := len(q.a)
	for {
		first := timerArity*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + timerArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q.less(c, best) {
				best = c
			}
		}
		if !q.less(best, i) {
			break
		}
		q.swap(i, best)
		i = best
		moved = true
	}
	return moved
}

func (q *timerQueue) swap(i, j int) {
	q.a[i], q.a[j] = q.a[j], q.a[i]
	q.a[i].p.timerIdx = int32(i)
	q.a[j].p.timerIdx = int32(j)
}

// procRing is a FIFO ring buffer of runnable processes. Capacity is always
// a power of two so indexing is a mask.
type procRing struct {
	buf  []*Proc
	head int
	n    int
}

func (r *procRing) len() int { return r.n }

func (r *procRing) push(p *Proc) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *procRing) pop() *Proc {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

func (r *procRing) clear() {
	for i := range r.buf {
		r.buf[i] = nil
	}
	r.head, r.n = 0, 0
}

func (r *procRing) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 16
	}
	nb := make([]*Proc, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}
