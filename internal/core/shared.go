package core

import (
	"errors"

	"jitckpt/internal/gpu"
	"jitckpt/internal/scheduler"
	"jitckpt/internal/vclock"
)

// Capacity is the node-allocation surface a job runs against. A
// single-job run owns a whole scheduler.Pool; a fleet job holds a lease
// from the cluster arbiter, which satisfies the same interface but
// arbitrates the shared pool across tenants (priority reservations,
// preemption pressure, fleet accounting). The harness and the transparent
// coordinator are indifferent to which one they get.
type Capacity interface {
	// Allocate reserves n healthy free nodes, skipping excluded IDs.
	Allocate(n int, exclude map[int]bool) ([]*gpu.Node, error)
	// Release returns nodes to the free pool.
	Release(nodes []*gpu.Node)
	// MarkFailed permanently excludes a node (until repaired).
	MarkFailed(nodeID int)
	// MarkRepaired re-admits a previously failed node.
	MarkRepaired(nodeID int)
	// FreeHealthy reports how many nodes remain allocatable — for a
	// lease, net of capacity reserved for higher-priority tenants.
	FreeHealthy() int
}

var _ Capacity = (*scheduler.Pool)(nil)

// SharedSim plugs a job into a cluster-owned simulation instead of a
// private one. The ownership inversion of the fleet model lives here:
// the cluster owns the vclock environment, the nodes and the allocator;
// the job merely leases capacity through it. Everything else a job needs
// (collective engine, checkpoint stores, failure injector)
// remains private per job.
type SharedSim struct {
	// Env is the cluster's simulation environment. The job must not call
	// RunUntil on it; the cluster drives time.
	Env *vclock.Env
	// Cluster is the cluster's hardware — nodes and rack geometry; the
	// job's failure-injection and shelter bookkeeping resolve against it.
	Cluster *gpu.Cluster
	// Capacity is the job's lease on the cluster allocator.
	Capacity Capacity
	// AwaitCapacity blocks until cluster capacity may have changed (a
	// release, repair, or demand change) or the timeout elapses. The
	// harness calls it instead of giving up when an allocation is denied.
	AwaitCapacity func(p *vclock.Proc, timeout vclock.Time) bool
	// Label names the job in traces and debug logs.
	Label string
	// OnDone observes the job's final result, once, when it ends: inside
	// the simulation, or after the run for a job the horizon cut.
	OnDone func(res *RunResult)
}

// JobHandle is the cluster's control surface for one running fleet job.
// All methods must be called from inside the shared simulation.
type JobHandle struct {
	h *harness
}

// StartJob launches a job inside a shared cluster simulation and returns
// its handle. The job runs concurrently with every other job in the
// cluster; its result becomes available (and Shared.OnDone fires) when it
// ends, or ForceFinish is called for it at the cluster horizon.
func StartJob(cfg JobConfig) (*JobHandle, error) {
	if cfg.Shared == nil {
		return nil, errors.New("core: StartJob requires JobConfig.Shared (use Run for single-job simulations)")
	}
	s := cfg.Shared
	if s.Env == nil || s.Capacity == nil || s.Cluster == nil || s.AwaitCapacity == nil {
		return nil, errors.New("core: SharedSim needs Env, Cluster, Capacity and AwaitCapacity")
	}
	h, err := start(cfg)
	if err != nil {
		return nil, err
	}
	return &JobHandle{h: h}, nil
}

// RequestYield asks an elastic job to shrink so a higher-priority tenant
// can claim its nodes: the job stops cleanly a couple of iterations ahead
// (persisting state under the elastic namespace) and its next incarnation
// re-allocates under the arbiter's reservations — which deny it the full
// width, taking the normal elastic shrink path. It reports false when the
// job cannot yield: not elastic, already yielding, no narrower viable
// shape, or close enough to completion that finishing frees the nodes
// sooner.
func (hd *JobHandle) RequestYield() bool { return hd.h.requestYield() }

// NoteRepairCapacity tells a degraded job that cluster repairs may have
// restored enough capacity to re-expand; the job schedules a mid-run
// expand if so. The cluster calls it after NodeRepaired events (the
// single-job harness wires the same logic to its own injector).
func (hd *JobHandle) NoteRepairCapacity() { hd.h.noteRepairCapacity() }

// NoteNodesLost tells the job that cluster-scoped failures destroyed
// nodes it leases: peer-sheltered entries on them are gone immediately.
// The workers themselves notice organically (their devices are dead).
func (hd *JobHandle) NoteNodesLost(nodeIDs ...int) { hd.h.noteNodesLost(nodeIDs) }

// ForceFinish ends a job still running when the cluster's run stops at
// its horizon: the job ends at the horizon (EndHorizon). The cluster calls
// it after the run, for each tenant it cut.
func (hd *JobHandle) ForceFinish() { hd.h.end(hd.h.cfg.Horizon, EndHorizon) }
