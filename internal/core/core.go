// Package core implements the paper's contribution: just-in-time
// checkpointing and recovery for deep-learning training failures.
//
// It provides the three recovery solutions of Table 1:
//
//  1. User-level JIT checkpointing (§3, UserLevelRank): training scripts
//     that can change code register a save-checkpoint function; on any
//     rank's failure, the healthy data-parallel replicas detect the hang
//     through the interception watchdog, steal the interpreter lock from
//     the wedged main thread and checkpoint their GPU state through a fresh
//     stream; once one replica of every position has saved (the §3.3
//     quorum), the job restarts from the just-written checkpoint — losing
//     at most one minibatch.
//
//  2. Transparent JIT recovery for recoverable errors (§4.2, the
//     coordinator in transparent.go): transient network faults, sticky
//     CUDA errors and driver corruption are repaired underneath the
//     application. GPU state is reset to the start of the minibatch
//     (retaining buffers, or restoring them from the host or a replica),
//     communicators are re-created under a fresh generation, the logged
//     device APIs are replayed, and the application's parked threads
//     resume as if nothing happened.
//
//  3. Transparent JIT recovery for hard errors (§4.3, the same
//     coordinator): healthy ranks JIT-checkpoint their GPU state, every
//     worker's CPU state is CRIU-checkpointed, the job migrates to
//     replacement nodes, and GPU state is rebuilt from the replay log plus
//     the checkpoint files — the failed rank reading its replica's file
//     via the stable tensor naming.
//
// The package also provides the evaluation harness (Run) that executes a
// Table 2 workload under any checkpointing policy with injected failures
// and accounts useful versus wasted GPU time — the machinery behind
// Tables 3–8.
package core

import (
	"fmt"
	"strings"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/vclock"
)

// Policy selects the failure-handling strategy a job runs under.
type Policy int

// The policies, in presentation order. What each one does is its row of
// policyTable; the comments here say why it exists.
const (
	// No checkpointing: a failure loses everything.
	PolicyNone Policy = iota
	// Periodic checkpointing to persistent storage in the critical path.
	PolicyPCDisk
	// Periodic checkpointing to tmpfs with async drain.
	PolicyPCMem
	// Overlapped-snapshot periodic checkpointing.
	PolicyCheckFreq
	// Low-frequency (once-a-day-class) periodic checkpointing, the
	// optional companion to JIT.
	PolicyPCDaily
	// User-level just-in-time checkpointing (§3).
	PolicyUserJIT
	// Transparent just-in-time recovery (§4).
	PolicyTransparentJIT
	// User-level JIT checkpointing combined with low-frequency periodic
	// checkpointing — the paper's recommended companion configuration
	// (§6.3): JIT handles common failures with one-minibatch loss; the rare
	// catastrophic failure that destroys every replica of some position
	// falls back to the most recent periodic checkpoint.
	PolicyJITWithDaily
	// Every iteration's post-optimizer state replicated into peer CPU
	// memory in other failure domains (internal/peerckpt), overlapped with
	// the next minibatch. Failure-time JIT flushes also go to the shelter
	// instead of disk, so recovery never touches remote storage and any
	// failure — including one destroying every replica of a shard — rolls
	// back at most one minibatch.
	PolicyPeerShelter
	// User-level JIT checkpointing to disk (the common-case path) with
	// per-iteration peer-shelter replication replacing the daily-disk
	// catastrophic fallback of UserJIT+PC_1/day: when every replica of a
	// position is lost, the sheltered copy is at most one iteration old,
	// versus up to a day.
	PolicyJITWithPeer
	// UserJIT plus elastic degraded-mode recovery (elastic.go): when
	// spares run out and no full placement exists, the job shrinks to the
	// largest viable topology (dropping only data-parallel replicas,
	// raising gradient accumulation to preserve the global batch), keeps
	// training, and re-expands once the failure plan marks nodes repaired.
	PolicyElasticJIT
	// UserJIT+Peer plus elastic degraded-mode recovery: the peer shelter
	// keeps per-iteration replicas while the job runs degraded, so even a
	// catastrophic loss at reduced width rolls back at most one iteration.
	PolicyElasticPeer
	// Gradient-reconciled multi-step overlapped disk checkpointing
	// (GoCkpt-style): one logical snapshot is split into per-iteration
	// shard slices written concurrently with compute, each stamped with its
	// capture iteration; restore replays retained gradient deltas to
	// advance stale slices to the generation's target iteration.
	PolicyMultiStepDisk
	// User-level JIT checkpointing (the common-case, one-minibatch-loss
	// path) with the multi-step overlapped disk writer as the catastrophic
	// fallback — fresher than PC_1/day at a fraction of PC_disk's
	// critical-path stall.
	PolicyJITWithMultiStep
	// Checkpoint-free pipeline-stage recovery (internal/pipefree): each
	// stage's optimizer redundancy is retained in neighbor stages' host RAM
	// every iteration, and a lost stage is rebuilt from a surviving
	// neighbor with zero checkpoint reads. A double fault that also kills
	// the redundancy neighbor falls back to the multi-step disk tier's
	// newest valid generation.
	PolicyPipeFree
)

// FlushTarget is where a policy's failure-time JIT save (§3, §4.3) lands.
type FlushTarget int

const (
	// FlushNone: the policy does not run the user-level JIT library.
	FlushNone FlushTarget = iota
	// FlushDisk: healthy replicas flush to persistent storage.
	FlushDisk
	// FlushShelter: healthy replicas flush to peer CPU memory, so recovery
	// never touches remote storage.
	FlushShelter
)

// PolicyInfo is one row of the policy table — the only definition of what
// a policy is. The first four columns name it (Policy.String, the
// canonical CLI key, extra accepted spellings); the rest are the tiers it
// stacks, which the harness reads instead of branching on the constant.
// Every front end — jitsim -policy, jitbench -policies, the fleet
// simulator's job specs, and the golden-trace and stream-diff suites —
// resolves names through this one table, so a new recovery family added
// here is immediately runnable everywhere.
type PolicyInfo struct {
	Policy  Policy
	Name    string
	Key     string
	Aliases []string

	// JITFlush is where the healthy replicas' failure-time save lands. In
	// the restart loop anything but FlushNone puts the interception layer,
	// GIL and checkpoint-quorum wait on every rank; the transparent hard
	// path (§4.3) saves there from the proxy side.
	JITFlush FlushTarget
	// Periodic runs the checkpoint.Periodic saver of the given Kind at
	// minibatch boundaries and restores from its namespace.
	Periodic bool
	Kind     checkpoint.PeriodicKind
	// Peer replicates every iteration's state into peer CPU memory
	// (internal/peerckpt); needs at least two nodes.
	Peer bool
	// MultiStep runs the gradient-reconciled overlapped disk writer
	// (checkpoint.MultiStep), as the primary tier or a fallback.
	MultiStep bool
	// PipeFree retains stage-redundancy bundles in neighbor stages' host
	// RAM (internal/pipefree).
	PipeFree bool
	// Elastic lets the job shrink to a degraded topology when spares run
	// out and re-expand after repairs (elastic.go).
	Elastic bool
	// Transparent runs the one-incarnation, coordinator-driven recovery
	// of §4 instead of the restart loop.
	Transparent bool
}

// policyTable is indexed by the Policy constants; "jit" is the historical
// alias for the paper's headline mode.
var policyTable = func() []PolicyInfo {
	t := []PolicyInfo{
		PolicyNone:             {Name: "none", Key: "none"},
		PolicyPCDisk:           {Name: "PC_disk", Key: "pc_disk", Periodic: true, Kind: checkpoint.PCDisk},
		PolicyPCMem:            {Name: "PC_mem", Key: "pc_mem", Periodic: true, Kind: checkpoint.PCMem},
		PolicyCheckFreq:        {Name: "CheckFreq", Key: "checkfreq", Periodic: true, Kind: checkpoint.CheckFreq},
		PolicyPCDaily:          {Name: "PC_1/day", Key: "pc_daily", Periodic: true, Kind: checkpoint.PCDaily},
		PolicyUserJIT:          {Name: "UserJIT", Key: "userjit", JITFlush: FlushDisk},
		PolicyTransparentJIT:   {Name: "TransparentJIT", Key: "transparent", Aliases: []string{"jit"}, JITFlush: FlushDisk, Transparent: true},
		PolicyJITWithDaily:     {Name: "UserJIT+PC_1/day", Key: "jit+daily", JITFlush: FlushDisk, Periodic: true, Kind: checkpoint.PCDaily},
		PolicyPeerShelter:      {Name: "PeerShelter", Key: "peer", JITFlush: FlushShelter, Peer: true},
		PolicyJITWithPeer:      {Name: "UserJIT+Peer", Key: "jit+peer", JITFlush: FlushDisk, Peer: true},
		PolicyElasticJIT:       {Name: "UserJIT+Elastic", Key: "jit+elastic", JITFlush: FlushDisk, Elastic: true},
		PolicyElasticPeer:      {Name: "UserJIT+Peer+Elastic", Key: "peer+elastic", JITFlush: FlushDisk, Peer: true, Elastic: true},
		PolicyMultiStepDisk:    {Name: "MultiStepDisk", Key: "multistep", MultiStep: true},
		PolicyJITWithMultiStep: {Name: "UserJIT+MultiStep", Key: "jit+multistep", JITFlush: FlushDisk, MultiStep: true},
		PolicyPipeFree:         {Name: "PipeFree", Key: "pipefree", MultiStep: true, PipeFree: true},
	}
	for i := range t {
		t[i].Policy = Policy(i)
	}
	return t
}()

// Info returns the policy's table row; an out-of-range value gets a row
// with no tiers and a diagnostic name.
func (p Policy) Info() PolicyInfo {
	if p < 0 || int(p) >= len(policyTable) {
		return PolicyInfo{Policy: p, Name: fmt.Sprintf("Policy(%d)", int(p))}
	}
	return policyTable[p]
}

// String renders the policy as the paper names it.
func (p Policy) String() string { return p.Info().Name }

// Policies returns the table, one row per runnable policy, in
// presentation order.
func Policies() []PolicyInfo { return append([]PolicyInfo(nil), policyTable...) }

// ParsePolicy resolves a policy by presentation name, CLI key, or alias,
// case-insensitively.
func ParsePolicy(name string) (Policy, bool) {
	want := strings.ToLower(strings.TrimSpace(name))
	for _, pi := range policyTable {
		if strings.ToLower(pi.Name) == want || pi.Key == want {
			return pi.Policy, true
		}
		for _, a := range pi.Aliases {
			if a == want {
				return pi.Policy, true
			}
		}
	}
	return 0, false
}

// PolicyKeys returns every accepted spelling (key and aliases) mapped to
// its policy — the map front ends hand to spec parsers like
// cluster.ParseJobsSpec.
func PolicyKeys() map[string]Policy {
	out := make(map[string]Policy)
	for _, pi := range policyTable {
		out[pi.Key] = pi.Policy
		for _, a := range pi.Aliases {
			out[a] = pi.Policy
		}
	}
	return out
}

// Solution is a row of the paper's Table 1.
type Solution struct {
	Num            int
	Name           string
	ErrorsHandled  string
	UserCodeChange bool
}

// Solutions returns Table 1.
func Solutions() []Solution {
	return []Solution{
		{1, "User-level", "Single/multiple errors in node/GPU/network", true},
		{2, "Transparent; recoverable errors", "Transient single/multiple errors in GPU/network", false},
		{3, "Transparent; hard errors", "Single/multiple errors in node/GPU/network", false},
	}
}

// JITPolicyName is the checkpoint-store namespace for JIT checkpoints.
const JITPolicyName = "jit"

// ElasticPolicyName is the checkpoint-store namespace for the planned
// saves an elastic job takes at shrink/expand boundaries.
const ElasticPolicyName = "elastic"

// RecoveryReport records one failure-recovery episode for the evaluation
// tables.
type RecoveryReport struct {
	// Kind is "transient", "optimizer-roll-forward", or "hard".
	Kind string
	// DetectedAt is when the coordinator saw the first fault;
	// CompletedAt is when the last rank resumed.
	DetectedAt  vclock.Time
	CompletedAt vclock.Time
	// PerRank is each rank's individual recovery duration.
	PerRank map[int]vclock.Time
	// HealthyAvg and FailedAvg split recovery time by whether the rank's
	// GPU failed (Table 6's two columns).
	HealthyAvg vclock.Time
	FailedAvg  vclock.Time
	// Phases is the representative healthy rank's step breakdown
	// (Table 7).
	Phases []PhaseDur
	// Attempts counts recovery attempts for the episode; >1 means a fault
	// arrived mid-recovery and the coordinator restarted it.
	Attempts int
}

// PhaseDur is one named recovery step duration.
type PhaseDur struct {
	Name string
	Dur  vclock.Time
}

// Total returns end-to-end recovery time.
func (r *RecoveryReport) Total() vclock.Time { return r.CompletedAt - r.DetectedAt }

// KindNoViablePlacement is the report kind for a transparent recovery
// episode that determined eagerly — before spending JIT-checkpoint, CRIU,
// or quorum time — that no placement can be assembled from healthy plus
// spare nodes. Transparent jobs are fixed-width, so it is terminal; elastic
// shrinks come from the restart loop's allocation (harness.allocate), not
// from this report.
const KindNoViablePlacement = "hard-failed:no-viable-placement"

// Terminal reports whether the episode ended in a state retrying cannot
// fix (no spare capacity, no assemblable checkpoint of the episode's
// iteration).
func (r *RecoveryReport) Terminal() bool { return strings.HasPrefix(r.Kind, "hard-failed:") }
