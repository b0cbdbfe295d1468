package vclock

// Queue is an unbounded FIFO queue usable from simulation processes. Pop
// blocks the calling process until an item is available. Queues are the
// building block for stream work queues and proxy IPC channels.
//
// Blocked consumers park directly on the queue's waiter list (no
// intermediate Event), and the item slice is head-compacted rather than
// re-sliced, so a steady-state push/pop cycle allocates nothing.
type Queue[T any] struct {
	env   *Env
	items []T
	head  int
	name  string

	waiters waitList
}

// NewQueue creates an empty queue bound to env.
func NewQueue[T any](env *Env, name string) *Queue[T] {
	return &Queue[T]{env: env, name: name}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v and wakes every process blocked in Pop, in registration
// order; each re-checks the queue when it runs.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	q.waiters.wake(q.env, -1)
}

// At returns the item i places behind the head, without removing it. Call
// only when i < Len().
func (q *Queue[T]) At(i int) T { return q.items[q.head+i] }

// popHead removes and returns the head item. Call only when Len() > 0.
func (q *Queue[T]) popHead() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// Pop removes and returns the head item, blocking p while the queue is
// empty.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.Len() == 0 {
		p.park(&q.waiters, 0)
	}
	return q.popHead()
}

// PopNext is the callback form of Pop: the head item, or ok false with p
// parked on the queue, to be called again at p's next dispatch.
func (q *Queue[T]) PopNext(p *Proc) (v T, ok bool) {
	if q.Len() > 0 {
		return q.popHead(), true
	}
	if p.parks() {
		p.arm(&q.waiters, 0)
	}
	return v, false
}

// TryPop removes the head item without blocking; ok reports success.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	return q.popHead(), true
}

// Drain removes and returns all queued items.
func (q *Queue[T]) Drain() []T {
	out := q.items[q.head:]
	q.items = nil
	q.head = 0
	return out
}

// Mutex is a virtual-time mutual-exclusion lock with owner tracking. It
// models locks whose holder can block inside the lock (such as the Python
// GIL in the paper's §3.2), which is why it exposes the owner and a forced
// release: a watchdog can steal the lock from a process that is hung in a
// device call and will never release it.
type Mutex struct {
	env     *Env
	owner   *Proc
	waiters waitList
	name    string
}

// NewMutex creates an unlocked mutex.
func NewMutex(env *Env, name string) *Mutex {
	return &Mutex{env: env, name: name}
}

// Lock acquires the mutex, blocking p until it is free. Lock panics if p
// already owns the mutex (the lock is not reentrant).
func (m *Mutex) Lock(p *Proc) {
	if m.owner == p {
		panic("vclock: recursive Mutex.Lock by " + p.name)
	}
	for m.owner != nil {
		p.park(&m.waiters, 0)
	}
	m.owner = p
}

// Unlock releases the mutex. It panics if p is not the owner.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("vclock: Mutex.Unlock by non-owner " + p.name)
	}
	m.release()
}

// ForceRelease releases the mutex regardless of owner, waking the next
// waiter. It models the paper's SIGUSR1 handler that releases the GIL held
// by a thread hung in a synchronization API. It returns the process that
// owned the lock, or nil if it was free.
func (m *Mutex) ForceRelease() *Proc {
	prev := m.owner
	if prev != nil {
		m.release()
	}
	return prev
}

// Owner returns the current owner, or nil if the mutex is free.
func (m *Mutex) Owner() *Proc { return m.owner }

// release frees the mutex and wakes the first process still waiting for it.
func (m *Mutex) release() {
	m.owner = nil
	m.waiters.wake(m.env, 1)
}
