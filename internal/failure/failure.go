// Package failure injects the fault classes the paper's recovery
// mechanisms handle (§1 "Failure types and frequencies", Table 1): hard
// GPU failures, sticky CUDA errors, driver-state corruption, and transient
// network faults that hang or error collectives.
//
// Failures arrive either on a deterministic schedule (to exercise each
// recovery path at an exact point in a minibatch) or as a Poisson process
// with a per-GPU rate f — the same parameter the §5 analytical model uses,
// e.g. the OPT-175B job's ~2 failures/day across 992 GPUs.
package failure

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// Kind classifies an injected fault.
type Kind int

const (
	// GPUHard is an unrecoverable hardware failure: the device is lost
	// and the worker must migrate (§4.3).
	GPUHard Kind = iota
	// GPUSticky is a CUDA sticky error: the context is corrupt until the
	// device is reset (§4.2 strategy 3).
	GPUSticky
	// DriverCorrupt marks GPU/network driver state as suspect; clearing
	// it requires restarting the device proxy (§4.2 strategy 2).
	DriverCorrupt
	// NetworkHang is a transient interconnect fault that wedges
	// collectives on a communicator until it is re-initialized (§4.2
	// strategy 1).
	NetworkHang
	// NetworkError is a NCCL async error on a communicator.
	NetworkError
	// NodeDown is a whole-host failure: every GPU on the rank's node is
	// lost *and* the node's CPU memory — including any peer-sheltered
	// checkpoint entries it held — is gone. This is the failure class that
	// distinguishes the peer-shelter tier's survival guarantees from plain
	// GPU failures (where host RAM survives).
	NodeDown
	// StorageFault is a transient fault in the checkpoint storage tier
	// (flaky path to the store, throttled requests): the next store writes
	// fail or tear until the fault clears. Training itself is unaffected;
	// only checkpoint durability is at risk.
	StorageFault
	// RackDown is a failure-domain-correlated loss: a rack PDU or ToR
	// switch takes down every node in the target rank's failure domain at
	// once. It is the adversary the peer-shelter placement rule (replicate
	// outside your own failure domain) exists for.
	RackDown
	// NodeRepaired is not a fault but a repair event: a previously failed
	// node (or a node with a hard-failed GPU) has its hardware replaced and
	// rejoins the allocatable pool. It is what the elastic recovery path
	// waits for to re-expand a degraded job.
	NodeRepaired
)

// String renders the fault kind.
func (k Kind) String() string {
	switch k {
	case GPUHard:
		return "gpu-hard"
	case GPUSticky:
		return "gpu-sticky"
	case DriverCorrupt:
		return "driver-corrupt"
	case NetworkHang:
		return "network-hang"
	case NetworkError:
		return "network-error"
	case NodeDown:
		return "node-down"
	case StorageFault:
		return "storage-fault"
	case RackDown:
		return "rack-down"
	case NodeRepaired:
		return "node-repaired"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindByName resolves a fault-kind name as rendered by String. ok is
// false for unknown names.
func KindByName(name string) (Kind, bool) {
	for k := GPUHard; k <= NodeRepaired; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// Injection is one scheduled fault.
type Injection struct {
	At vclock.Time
	// Target is what the fault lands on, read by whoever runs the plan: a
	// job rank in a job's plan (core.JobConfig.Failures, resolved through
	// the job's current placement), a node ID in a cluster's
	// (cluster.Config.Failures), so one plan can hit spares, nodes leased
	// by any tenant, or a failure domain shared across tenants.
	Target int
	Kind   Kind
	// CommKey targets network faults at a specific communicator; empty
	// means the injector picks the rank's gradient communicator via its
	// CommKeyOf hook.
	CommKey string
}

// Plan is a time-ordered set of injections.
type Plan struct {
	Injections []Injection
}

// Sort orders injections by time (stable on equal times).
func (pl *Plan) Sort() {
	sort.SliceStable(pl.Injections, func(i, j int) bool {
		return pl.Injections[i].At < pl.Injections[j].At
	})
}

// Validate rejects plans referencing targets outside [0, n) — n ranks for a
// job's plan, n nodes for a cluster's. Before this check an out-of-range
// rank resolved to no device and the injection silently never fired — a
// misconfigured chaos plan looked like a lucky run. Skips from *legitimate*
// races (target already destroyed by an earlier fault) remain runtime
// skips, counted by Injector.SkippedCount.
func (pl Plan) Validate(n int) error {
	for i, inj := range pl.Injections {
		if inj.Target < 0 || inj.Target >= n {
			return fmt.Errorf("failure: injection %d (%v at %v) targets %d outside [0,%d)",
				i, inj.Kind, inj.At, inj.Target, n)
		}
	}
	return nil
}

// DefaultMix reflects the paper's observed failure mix (Table 1's
// classes): mostly single-GPU or network faults, transient network issues
// the most common, with a small tail of whole-node losses (ECC/host
// crashes) and storage-tier faults. Rack-level correlated failures are rare
// enough that they are opt-in (chaos plans add them explicitly) rather
// than part of the steady mix.
func DefaultMix() map[Kind]float64 {
	return map[Kind]float64{
		GPUHard:       0.16,
		GPUSticky:     0.16,
		DriverCorrupt: 0.11,
		NetworkHang:   0.28,
		NetworkError:  0.09,
		NodeDown:      0.07,
		StorageFault:  0.05,
		// Repairs arrive at roughly the rate nodes are destroyed (hard GPU
		// board swaps plus host replacements): a standalone repair with
		// nothing failed is skipped harmlessly.
		NodeRepaired: 0.08,
	}
}

// DefaultNodeMix is the cluster-scoped analogue of DefaultMix: mostly
// single-board and single-host losses with a thin tail of rack-level
// correlated failures.
func DefaultNodeMix() map[Kind]float64 {
	return map[Kind]float64{
		GPUHard:  0.55,
		NodeDown: 0.35,
		RackDown: 0.10,
	}
}

// ParseMix parses a "kind:weight,kind:weight" specification (e.g.
// "gpu-hard:0.2,network-hang:0.5,node-down:0.3") into a mix map. An empty
// spec returns DefaultMix. Weights must be positive; they need not sum
// to 1 (PoissonPlan normalizes).
func ParseMix(spec string) (map[Kind]float64, error) {
	if spec == "" {
		return DefaultMix(), nil
	}
	mix := make(map[Kind]float64)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("failure: bad mix entry %q (want kind:weight)", part)
		}
		k, ok := KindByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("failure: unknown fault kind %q", name)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(wstr), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("failure: bad weight %q for %s", wstr, name)
		}
		mix[k] = w
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("failure: empty mix %q", spec)
	}
	return mix, nil
}

// PoissonPlan samples failures over horizon for n targets — a job's ranks
// or a cluster's nodes — each failing at rate perDay, mixing kinds by
// weight. The total rate is n×f: the job failure rate of §5.2, or the
// fleet-level quantity an operator provisions spares against.
func PoissonPlan(rng *rand.Rand, n int, perDay float64, horizon vclock.Time, mix map[Kind]float64) Plan {
	var plan Plan
	rate := perDay * float64(n) / float64(vclock.Day) // events per ns
	if rate <= 0 {
		return plan
	}
	kinds, weights := flattenMix(mix)
	t := vclock.Time(0)
	for {
		gap := vclock.Time(rng.ExpFloat64() / rate)
		t += gap
		if t >= horizon {
			break
		}
		plan.Injections = append(plan.Injections, Injection{
			At:     t,
			Target: rng.Intn(n),
			Kind:   pickKind(rng, kinds, weights),
		})
	}
	return plan
}

func flattenMix(mix map[Kind]float64) ([]Kind, []float64) {
	kinds := make([]Kind, 0, len(mix))
	for k := range mix {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	weights := make([]float64, len(kinds))
	total := 0.0
	for i, k := range kinds {
		total += mix[k]
		weights[i] = total
	}
	for i := range weights {
		weights[i] /= total
	}
	return kinds, weights
}

func pickKind(rng *rand.Rand, kinds []Kind, cumWeights []float64) Kind {
	x := rng.Float64()
	for i, w := range cumWeights {
		if x <= w {
			return kinds[i]
		}
	}
	return kinds[len(kinds)-1]
}

// WithRepairs returns a copy of the plan with a NodeRepaired event
// appended after every node-destroying injection (one per node lost:
// GPUHard and NodeDown one, RackDown rackSize, 0 = the default width 2),
// delayed by an exponentially distributed repair time with the given mean.
// This models hardware-replacement turnaround so elastic jobs that shrank
// under the failures can re-expand when capacity returns.
func (pl Plan) WithRepairs(rng *rand.Rand, meanDelay vclock.Time, rackSize int) Plan {
	out := Plan{Injections: append([]Injection(nil), pl.Injections...)}
	if meanDelay <= 0 {
		return out
	}
	if rackSize <= 0 {
		rackSize = 2
	}
	for _, inj := range pl.Injections {
		repairs := 0
		switch inj.Kind {
		case GPUHard, NodeDown:
			repairs = 1
		case RackDown:
			repairs = rackSize
		}
		for i := 0; i < repairs; i++ {
			delay := vclock.Time(rng.ExpFloat64() * float64(meanDelay))
			out.Injections = append(out.Injections, Injection{
				At: inj.At + delay, Target: inj.Target, Kind: NodeRepaired,
			})
		}
	}
	out.Sort()
	return out
}

// MTBF returns the expected time between job failures for n GPUs at
// per-GPU rate f/day (the quantity reported as 3–30 h in the failure
// studies the paper cites).
func MTBF(n int, fPerGPUPerDay float64) vclock.Time {
	if n <= 0 || fPerGPUPerDay <= 0 {
		return vclock.Time(math.MaxInt64)
	}
	return vclock.Time(float64(vclock.Day) / (fPerGPUPerDay * float64(n)))
}

// Injector applies a plan to a running job.
type Injector struct {
	Env *vclock.Env
	// Cluster is the hardware the job runs on: the node of a rank is
	// Cluster.Nodes[DeviceOf(rank).NodeID], RackDown takes that node's rack,
	// and NodeRepaired searches all of it for something broken.
	Cluster *gpu.Cluster
	// DeviceOf resolves the device currently serving a rank.
	DeviceOf func(rank int) *gpu.Device
	// Engine is the collective engine for network faults.
	Engine *nccl.Engine
	// CommKeyOf resolves the communicator key a rank's network fault
	// should target (typically its gradient-allreduce group).
	CommKeyOf func(rank int) string
	// GenOf resolves the current generation of a communicator key.
	GenOf func(key string) int
	// OnStorageFault arms a storage-tier fault (the harness wires it to
	// the checkpoint store's chaos hook). Nil makes StorageFault
	// injections no-ops that are skipped, not applied.
	OnStorageFault func(inj Injection)
	// OnInject observes applied injections (metrics, test assertions).
	OnInject func(inj Injection)
	// OnRepair observes applied NodeRepaired injections with the node that
	// came back (the harness un-excludes it from the scheduler pool).
	OnRepair func(node *gpu.Node)

	skipped        int
	phased         []*phaseState
	failedNodes    []*gpu.Node // FIFO of injection-failed nodes awaiting repair
	pendingRepairs int
	repairWait     *vclock.Event
}

// RepairsPending reports whether any scheduled NodeRepaired events have
// not yet fired — capacity the elastic path may wait for instead of
// giving up.
func (in *Injector) RepairsPending() bool { return in.pendingRepairs > 0 }

// NotePlannedRepairs registers n future NodeRepaired events that arrive
// outside the Start plan (iteration- or phase-anchored repairs).
func (in *Injector) NotePlannedRepairs(n int) { in.pendingRepairs += n }

// AwaitRepair blocks until the next NodeRepaired injection is processed
// or the timeout elapses; it reports whether a repair arrived. Because
// the simulation is cooperative, a caller that checked RepairsPending and
// immediately awaits cannot miss a repair.
func (in *Injector) AwaitRepair(p *vclock.Proc, timeout vclock.Time) bool {
	if in.repairWait == nil {
		in.repairWait = in.Env.NewEvent("repair-wait")
	}
	return p.WaitTimeout(in.repairWait, timeout)
}

// repairable returns a node needing repair: the oldest node this injector
// took down that is still down, else any down node, else any node with a
// dead board, in ID order. Nil means nothing needs repair. (The cluster
// injector picks the oldest casualty of either kind; DESIGN.md "Hardware
// model" has the scenario that separates the two.)
func (in *Injector) repairable() *gpu.Node {
	for _, n := range in.failedNodes {
		if n.Failed {
			return n
		}
	}
	for _, n := range in.Cluster.Nodes {
		if n.Failed {
			return n
		}
	}
	for _, n := range in.Cluster.Nodes {
		if n.DeadBoard() {
			return n
		}
	}
	return nil
}

// noteRepairProcessed accounts one NodeRepaired event (applied or
// skipped) and wakes any AwaitRepair waiter so it re-evaluates capacity.
func (in *Injector) noteRepairProcessed() {
	if in.pendingRepairs > 0 {
		in.pendingRepairs--
	}
	if in.repairWait != nil {
		in.repairWait.Trigger()
		in.repairWait = nil
	}
}

// SkippedCount is the counted SkippedInjections stat: how many planned
// injections never fired because their target was already gone. A
// non-zero count on a supposedly failure-heavy run is the tell that the
// plan and the simulated cluster disagree.
func (in *Injector) SkippedCount() int { return in.skipped }

// targetLost reports whether the injection's target has already been
// destroyed by an earlier fault, in which case re-injecting would
// double-fail a dead device and corrupt the applied accounting.
func (in *Injector) targetLost(inj Injection) bool {
	switch inj.Kind {
	case StorageFault:
		return in.OnStorageFault == nil
	case NetworkHang, NetworkError:
		return false // communicator faults do not target a device
	case NodeRepaired:
		// A repair with nothing failed has no target (skipped, like a
		// fault whose target is already gone).
		return in.repairable() == nil
	}
	dev := in.DeviceOf(inj.Target)
	return dev == nil || !dev.Accessible() || in.Cluster.Nodes[dev.NodeID].Failed
}

// Apply performs one injection immediately. It reports whether the
// injection landed: an injection whose target is already dead (its device
// lost or its node failed by an earlier fault) is skipped — counted in
// SkippedCount, not passed to OnInject — so double-failing cannot corrupt
// accounting.
func (in *Injector) Apply(inj Injection) bool {
	if inj.Kind == NodeRepaired {
		defer in.noteRepairProcessed()
	}
	if in.targetLost(inj) {
		in.skipped++
		trace.Of(in.Env).Instant(in.Env.Now(), "fail", trace.Rank(inj.Target), "inject-skip",
			"kind", inj.Kind)
		return false
	}
	switch inj.Kind {
	case GPUHard:
		in.DeviceOf(inj.Target).InjectHard()
	case NodeDown:
		in.failNode(in.Cluster.Nodes[in.DeviceOf(inj.Target).NodeID])
	case RackDown:
		for _, node := range in.Cluster.Rack(in.DeviceOf(inj.Target).NodeID) {
			in.failNode(node)
		}
	case GPUSticky:
		in.DeviceOf(inj.Target).InjectSticky()
	case DriverCorrupt:
		in.DeviceOf(inj.Target).InjectDriverCorrupt()
	case StorageFault:
		in.OnStorageFault(inj)
	case NodeRepaired:
		node := in.repairable()
		node.Repair()
		if in.OnRepair != nil {
			in.OnRepair(node)
		}
	case NetworkHang, NetworkError:
		key := inj.CommKey
		if key == "" && in.CommKeyOf != nil {
			key = in.CommKeyOf(inj.Target)
		}
		gen := 0
		if in.GenOf != nil {
			gen = in.GenOf(key)
		}
		fk := nccl.FaultHang
		if inj.Kind == NetworkError {
			fk = nccl.FaultError
		}
		in.Engine.InjectFault(key, gen, fk)
	}
	if in.OnInject != nil {
		in.OnInject(inj)
	}
	trace.Of(in.Env).Instant(in.Env.Now(), "fail", trace.Rank(inj.Target), "inject", "kind", inj.Kind)
	return true
}

// failNode takes a host down and queues it for repair; a host that is
// already down is left alone.
func (in *Injector) failNode(node *gpu.Node) {
	if node.FailHost() {
		in.failedNodes = append(in.failedNodes, node)
	}
}

// Start spawns a process that applies the plan on schedule.
func (in *Injector) Start(plan Plan) {
	plan.Sort()
	injections := plan.Injections
	for _, inj := range injections {
		if inj.Kind == NodeRepaired {
			in.pendingRepairs++
		}
	}
	in.Env.Go("failure-injector", func(p *vclock.Proc) {
		for _, inj := range injections {
			if d := inj.At - p.Now(); d > 0 {
				p.Sleep(d)
			}
			in.Apply(inj)
		}
	})
}
