package cluster

import (
	"fmt"
	"sort"

	"jitckpt/internal/core"
	"jitckpt/internal/gpu"
	"jitckpt/internal/scheduler"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// node accounting states. Every cluster node is in exactly one state at
// every instant; the arbiter integrates node-time per state at each
// transition, which is what makes the fleet reconciliation
// (used + idle + down == nodes × wall) exact rather than sampled.
const (
	stIdle uint8 = iota // free and healthy (or awaiting lazy discovery)
	stUsed              // leased to a job
	stDown              // failed and not yet repaired, not leased
)

// UtilPoint is one step of the spare-pool utilization timeline: the node
// counts per state immediately after a transition at At.
type UtilPoint struct {
	At   vclock.Time
	Used int
	Idle int
	Down int
}

// arbiter owns the cluster's node pool and arbitrates it across tenant
// leases: priority reservations starve lower-priority demand, preemption
// asks elastic victims to yield, and every ownership transition feeds the
// exact node-time accounting.
type arbiter struct {
	env  *vclock.Env
	pool *scheduler.Pool
	hw   *gpu.Cluster

	entries []*lease       // admission order (seq = index)
	owner   map[int]*lease // nodeID -> owning lease
	state   []uint8        // nodeID -> accounting state

	capEv *vclock.Event // re-created after every trigger (broadcast)

	// Node-time integrals, advanced at every transition.
	lastAt   vclock.Time
	usedNow  int
	idleNow  int
	downNow  int
	used     vclock.Time
	idle     vclock.Time
	down     vclock.Time
	timeline []UtilPoint

	preemptions int // yields honored fleet-wide
}

func newArbiter(env *vclock.Env, pool *scheduler.Pool, hw *gpu.Cluster) *arbiter {
	n := len(hw.Nodes)
	a := &arbiter{
		env:     env,
		pool:    pool,
		hw:      hw,
		owner:   make(map[int]*lease),
		state:   make([]uint8, n),
		capEv:   env.NewEvent("cluster.capacity"),
		idleNow: n,
	}
	a.timeline = append(a.timeline, UtilPoint{At: 0, Idle: n})
	return a
}

// lease is one job's view of the cluster allocator. It satisfies
// core.Capacity: the harness and the transparent coordinator drive it
// exactly like a private scheduler.Pool, but every call is filtered
// through the arbiter's priority reservations and feeds fleet accounting.
type lease struct {
	a    *arbiter
	name string
	pri  int // higher wins
	seq  int // admission order; earlier wins among equals

	handle *core.JobHandle
	done   bool

	demand     int // outstanding denied want (0 = satisfied)
	ownedCount int
	lastAt     vclock.Time
	nodeTime   vclock.Time // integral of ownedCount — sums to arbiter.used
}

var _ core.Capacity = (*lease)(nil)

func (a *arbiter) addJob(name string, pri int) *lease {
	e := &lease{a: a, name: name, pri: pri, seq: len(a.entries)}
	a.entries = append(a.entries, e)
	return e
}

// advance integrates node-time up to now. Called before every state
// transition and at close.
func (a *arbiter) advance(now vclock.Time) {
	dt := now - a.lastAt
	if dt <= 0 {
		return
	}
	a.used += vclock.Time(a.usedNow) * dt
	a.idle += vclock.Time(a.idleNow) * dt
	a.down += vclock.Time(a.downNow) * dt
	a.lastAt = now
}

func (e *lease) advance(now vclock.Time) {
	if dt := now - e.lastAt; dt > 0 {
		e.nodeTime += vclock.Time(e.ownedCount) * dt
		e.lastAt = now
	}
}

// transition moves one node between accounting states.
func (a *arbiter) transition(id int, to uint8) {
	from := a.state[id]
	if from == to {
		return
	}
	switch from {
	case stIdle:
		a.idleNow--
	case stUsed:
		a.usedNow--
	default:
		a.downNow--
	}
	switch to {
	case stIdle:
		a.idleNow++
	case stUsed:
		a.usedNow++
	default:
		a.downNow++
	}
	a.state[id] = to
}

// notePoint appends (or overwrites, at equal times) a utilization
// timeline step with the current counts. When the fleet is traced it
// also emits the cluster/pool instant the streaming aggregator's
// spare-pool level reads from; repeated same-time emissions are fine —
// the stream keeps the last, mirroring the overwrite here.
func (a *arbiter) notePoint(now vclock.Time) {
	pt := UtilPoint{At: now, Used: a.usedNow, Idle: a.idleNow, Down: a.downNow}
	if rec := trace.Of(a.env); rec != nil {
		rec.Instant(now, "cluster", trace.LaneSim, "pool",
			"used", a.usedNow, "idle", a.idleNow, "down", a.downNow)
	}
	if n := len(a.timeline); n > 0 && a.timeline[n-1].At == now {
		a.timeline[n-1] = pt
		return
	}
	a.timeline = append(a.timeline, pt)
}

// bump wakes every AwaitCapacity waiter: capacity or reservations may
// have changed, so denied allocators should retry. The event is replaced
// before triggering so waiters that wake re-arm on the fresh one.
func (a *arbiter) bump() {
	ev := a.capEv
	a.capEv = a.env.NewEvent("cluster.capacity")
	ev.Trigger()
}

// await blocks until the next capacity change or the timeout; reports
// whether a change arrived.
func (a *arbiter) await(p *vclock.Proc, timeout vclock.Time) bool {
	return p.WaitTimeout(a.capEv, timeout)
}

// reservedAbove sums outstanding demand from running tenants that outrank
// e: strictly higher priority, or equal priority admitted earlier. Those
// tenants get first claim on freed capacity, which is what turns a yield
// into a transfer instead of a race.
func (a *arbiter) reservedAbove(e *lease) int {
	r := 0
	for _, o := range a.entries {
		if o == e || o.done || o.demand == 0 {
			continue
		}
		if o.pri > e.pri || (o.pri == e.pri && o.seq < e.seq) {
			r += o.demand
		}
	}
	return r
}

// preempt asks elastic lower-priority tenants to yield until the
// demander's deficit is plausibly covered. Victims are asked cheapest
// first: lowest priority, then latest admitted. A victim that yields
// releases its full width at the stop iteration and re-allocates under
// the demander's reservation, so its whole holding counts toward the
// deficit.
func (a *arbiter) preempt(demander *lease) {
	need := demander.demand - a.freeFor(demander)
	if need <= 0 {
		return
	}
	victims := make([]*lease, 0, len(a.entries))
	for _, o := range a.entries {
		if o == demander || o.done || o.handle == nil || o.pri >= demander.pri || o.ownedCount == 0 {
			continue
		}
		victims = append(victims, o)
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].pri != victims[j].pri {
			return victims[i].pri < victims[j].pri
		}
		return victims[i].seq > victims[j].seq
	})
	for _, v := range victims {
		if need <= 0 {
			return
		}
		if v.handle.RequestYield() {
			a.preemptions++
			need -= v.ownedCount
		}
	}
}

func (a *arbiter) freeFor(e *lease) int {
	free := a.pool.FreeHealthy() - a.reservedAbove(e)
	if free < 0 {
		free = 0
	}
	return free
}

// ---------------------------------------------------------------------
// core.Capacity implementation
// ---------------------------------------------------------------------

func (e *lease) Allocate(n int, exclude map[int]bool) ([]*gpu.Node, error) {
	a := e.a
	if avail := a.freeFor(e); avail < n {
		e.setDemand(n)
		return nil, fmt.Errorf("cluster: %s wants %d nodes, %d free under reservations: %w",
			e.name, n, avail, scheduler.ErrNoCapacity)
	}
	nodes, err := a.pool.Allocate(n, exclude)
	if err != nil {
		e.setDemand(n)
		return nil, err
	}
	now := a.env.Now()
	a.advance(now)
	e.advance(now)
	for _, node := range nodes {
		a.owner[node.ID] = e
		a.transition(node.ID, stUsed)
	}
	e.ownedCount += len(nodes)
	a.notePoint(now)
	if e.demand != 0 {
		e.demand = 0
		a.bump() // reservations relaxed: lower-priority waiters may fit now
	}
	return nodes, nil
}

func (e *lease) setDemand(n int) {
	prev := e.demand
	e.demand = n
	e.a.preempt(e)
	if n < prev {
		// Shrinking demand relaxes reservations: lower-priority waiters
		// may fit now.
		e.a.bump()
	}
}

func (e *lease) Release(nodes []*gpu.Node) {
	ids := make([]int, 0, len(nodes))
	for _, n := range nodes {
		ids = append(ids, n.ID)
	}
	e.release(ids)
	e.a.pool.Release(nodes)
	e.a.bump()
}

func (e *lease) ReleaseByID(ids ...int) {
	e.release(ids)
	e.a.pool.ReleaseByID(ids...)
	e.a.bump()
}

// release runs the accounting side of a return: only nodes this lease
// still owns transition (a node already MarkFailed went used->down then;
// the pool-level release of it is a guarded no-op).
func (e *lease) release(ids []int) {
	a := e.a
	now := a.env.Now()
	a.advance(now)
	e.advance(now)
	for _, id := range ids {
		if a.owner[id] != e {
			continue
		}
		delete(a.owner, id)
		e.ownedCount--
		if a.hw.Nodes[id].Broken() {
			// Returned broken (a failure the job detected but did not
			// attribute to this node, or a cluster fault on a leased
			// node): account it down, not idle, and mark it out eagerly so
			// the pool's free count and the accounting agree from this
			// instant, not from the pool's next lazy discovery of a dead
			// board.
			a.pool.MarkFailed(id)
			a.transition(id, stDown)
		} else {
			a.transition(id, stIdle)
		}
	}
	a.notePoint(now)
}

func (e *lease) MarkFailed(nodeID int) {
	a := e.a
	now := a.env.Now()
	a.advance(now)
	e.advance(now)
	if own := a.owner[nodeID]; own == e {
		delete(a.owner, nodeID)
		e.ownedCount--
		a.transition(nodeID, stDown)
	} else if own == nil {
		a.transition(nodeID, stDown)
	}
	// A node owned by another tenant keeps counting as theirs until they
	// fail or release it.
	a.pool.MarkFailed(nodeID)
	a.notePoint(now)
}

func (e *lease) MarkRepaired(nodeID int) { e.a.markRepaired(nodeID) }

// markRepaired re-admits a node: shared by tenant repair events (a job's
// own NodeRepaired plan entries act on cluster hardware) and the
// cluster-scoped injector.
func (a *arbiter) markRepaired(nodeID int) {
	now := a.env.Now()
	a.advance(now)
	if a.owner[nodeID] == nil && a.state[nodeID] == stDown {
		a.transition(nodeID, stIdle)
	}
	a.pool.MarkRepaired(nodeID)
	a.notePoint(now)
	a.bump()
	a.notifyRepair()
}

// notifyRepair tells running degraded tenants capacity came back, highest
// priority first — the re-expand ordering of the fleet's elastic
// arbitration.
func (a *arbiter) notifyRepair() {
	order := make([]*lease, 0, len(a.entries))
	for _, e := range a.entries {
		if !e.done && e.handle != nil {
			order = append(order, e)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].pri != order[j].pri {
			return order[i].pri > order[j].pri
		}
		return order[i].seq < order[j].seq
	})
	for _, e := range order {
		e.handle.NoteRepairCapacity()
	}
}

func (e *lease) FreeHealthy() int { return e.a.freeFor(e) }

// finish closes the lease when its job is done: outstanding demand stops
// reserving capacity and waiters re-evaluate.
func (e *lease) finish() {
	if e.done {
		return
	}
	e.done = true
	if e.demand != 0 {
		e.demand = 0
	}
	e.a.bump()
}

// close advances every integral to the horizon and seals the timeline.
func (a *arbiter) close(now vclock.Time) {
	a.advance(now)
	for _, e := range a.entries {
		e.advance(now)
	}
	a.notePoint(now)
}
