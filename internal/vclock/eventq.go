package vclock

// This file implements the kernel's two scheduling containers:
//
//   - timerQueue, an indexed 4-ary min-heap of pending virtual-time wakeups
//     ordered by (deadline, seq). Entries are stored by value, so pushing a
//     timer allocates nothing beyond amortized slice growth, and each entry's
//     process records the entry's heap index (a process has at most one
//     timer) so a timer whose event won the race can be removed eagerly in
//     O(log n) instead of lingering as a dead entry.
//
//   - procRing, a power-of-two ring buffer holding runnable processes in
//     FIFO order. The previous []*Proc with head slicing re-allocated the
//     backing array on nearly every wake; the ring reuses it indefinitely.
//
// Both containers preserve the exact scheduling order of the original
// container/heap + slice implementation: (deadline, seq) is a strict total
// order (seq is unique), so min extraction is fully determined by the
// comparator regardless of heap shape, and the ring is FIFO by
// construction. Golden traces are therefore byte-identical across the
// swap.

// timerEntry is one pending wakeup, stored by value in the heap.
type timerEntry struct {
	deadline Time
	seq      uint64
	p        *Proc
}

// timerArity is the heap fan-out. A 4-ary heap halves the tree depth of a
// binary heap, which wins on the push-heavy workload here (most timers are
// removed eagerly or popped in near-FIFO order).
const timerArity = 4

type timerQueue struct {
	a []timerEntry
}

func (q *timerQueue) len() int { return len(q.a) }

func (q *timerQueue) push(deadline Time, seq uint64, p *Proc) {
	q.a = append(q.a, timerEntry{deadline: deadline, seq: seq, p: p})
	p.heapIdx = int32(len(q.a) - 1)
	q.siftUp(len(q.a) - 1)
}

// min returns the earliest entry without removing it. Call only when
// len() > 0.
func (q *timerQueue) min() *timerEntry { return &q.a[0] }

// popMin removes and returns the earliest entry. Call only when len() > 0.
func (q *timerQueue) popMin() timerEntry {
	e := q.a[0]
	e.p.heapIdx = -1
	last := len(q.a) - 1
	if last > 0 {
		q.a[0] = q.a[last]
		q.a[0].p.heapIdx = 0
	}
	q.a[last] = timerEntry{}
	q.a = q.a[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return e
}

// remove deletes p's entry, if it has one, without disturbing the relative
// order of the remaining entries. It reports whether an entry was removed.
func (q *timerQueue) remove(p *Proc) bool {
	i := int(p.heapIdx)
	if i < 0 {
		return false
	}
	p.heapIdx = -1
	last := len(q.a) - 1
	if i != last {
		q.a[i] = q.a[last]
		q.a[i].p.heapIdx = int32(i)
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

func (q *timerQueue) less(i, j int) bool {
	if q.a[i].deadline != q.a[j].deadline {
		return q.a[i].deadline < q.a[j].deadline
	}
	return q.a[i].seq < q.a[j].seq
}

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
	q.a[i].p.heapIdx = int32(i)
	q.a[j].p.heapIdx = int32(j)
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
