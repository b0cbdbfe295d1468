package train

import (
	"fmt"
	"strings"
)

// Topology describes how a job's world of workers is factored into
// parallelism dimensions (Table 2's "2D-4P-2T" notation).
type Topology struct {
	// D is the data-parallel degree (replicas).
	D int
	// P is the pipeline-parallel degree (stages).
	P int
	// T is the tensor-parallel degree (within-layer sharding).
	T int
	// FSDPShard is the hybrid-sharding group size K: parameters and
	// optimizer state are sharded across K consecutive data-parallel
	// ranks and replicated across the D/K groups (§3.1 "hybrid sharding";
	// required for JIT checkpointing of FSDP jobs). 0 or 1 disables FSDP.
	// Requires T == 1 and D divisible by K.
	FSDPShard int
}

// Validate checks the topology for consistency.
func (t Topology) Validate() error {
	if t.D < 1 || t.P < 1 || t.T < 1 {
		return fmt.Errorf("train: topology degrees must be >= 1, got %+v", t)
	}
	if t.FSDPShard > 1 {
		if t.T != 1 {
			return fmt.Errorf("train: FSDP sharding requires T=1, got T=%d", t.T)
		}
		if t.D%t.FSDPShard != 0 {
			return fmt.Errorf("train: D=%d not divisible by FSDP shard size %d", t.D, t.FSDPShard)
		}
	}
	return nil
}

// World returns the total number of worker ranks.
func (t Topology) World() int { return t.D * t.P * t.T }

// Coords maps a global rank to (d, p, tt) coordinates.
func (t Topology) Coords(rank int) (d, p, tt int) {
	d = rank / (t.P * t.T)
	p = (rank / t.T) % t.P
	tt = rank % t.T
	return
}

// Rank maps (d, p, tt) coordinates to the global rank.
func (t Topology) Rank(d, p, tt int) int { return d*t.P*t.T + p*t.T + tt }

// FSDP reports whether hybrid sharding is enabled.
func (t Topology) FSDP() bool { return t.FSDPShard > 1 }

// FSDPGroups returns the number of replica groups under hybrid sharding.
func (t Topology) FSDPGroups() int {
	if !t.FSDP() {
		return 0
	}
	return t.D / t.FSDPShard
}

// ReplicaRanks returns the global ranks holding a byte-identical copy of
// rank's parameter and optimizer state — the ranks a JIT checkpoint can be
// recovered from. Under plain DP that is every rank with the same (p, t);
// under hybrid sharding it is the same shard slot in every other replica
// group.
func (t Topology) ReplicaRanks(rank int) []int {
	d, p, tt := t.Coords(rank)
	var out []int
	if t.FSDP() {
		k := t.FSDPShard
		s := d % k
		for g := 0; g < t.FSDPGroups(); g++ {
			r := t.Rank(g*k+s, p, tt)
			if r != rank {
				out = append(out, r)
			}
		}
		return out
	}
	for dd := 0; dd < t.D; dd++ {
		if dd == d {
			continue
		}
		out = append(out, t.Rank(dd, p, tt))
	}
	return out
}

// PositionKey identifies the (pipeline stage × tensor partition × shard
// slot) position whose ranks hold interchangeable parameter and optimizer
// state. Checkpoint assembly, the §3.3 restart quorum, and peer-shelter
// coverage all key on it.
func (t Topology) PositionKey(rank int) string {
	d, p, tt := t.Coords(rank)
	if t.FSDP() {
		return fmt.Sprintf("p%d.t%d.s%d", p, tt, d%t.FSDPShard)
	}
	return fmt.Sprintf("p%d.t%d", p, tt)
}

// PositionCount returns how many distinct positions the topology has — the
// number of PositionKey values that must be covered for a full restore.
func (t Topology) PositionCount() int {
	if t.FSDP() {
		return t.P * t.T * t.FSDPShard
	}
	return t.P * t.T
}

// String renders the topology in the paper's notation.
func (t Topology) String() string {
	var parts []string
	if t.FSDP() {
		parts = append(parts, fmt.Sprintf("FSDP(%dx%d)", t.FSDPGroups(), t.FSDPShard))
	} else {
		parts = append(parts, fmt.Sprintf("%dD", t.D))
	}
	if t.P > 1 {
		parts = append(parts, fmt.Sprintf("%dP", t.P))
	}
	if t.T > 1 {
		parts = append(parts, fmt.Sprintf("%dT", t.T))
	}
	return strings.Join(parts, "-")
}

// Communicator keys. The generation argument to CommInit, not the key,
// distinguishes re-initializations after recovery.

// DPCommKey is the gradient-allreduce group for position (p, tt).
func DPCommKey(job string, p, tt int) string { return fmt.Sprintf("%s.dp.p%d.t%d", job, p, tt) }

// TPCommKey is the tensor-parallel group for replica d, stage p.
func TPCommKey(job string, d, p int) string { return fmt.Sprintf("%s.tp.d%d.p%d", job, d, p) }

// PPCommKey is the pipeline chain for replica d, tensor slice tt.
func PPCommKey(job string, d, tt int) string { return fmt.Sprintf("%s.pp.d%d.t%d", job, d, tt) }

// FSDPShardCommKey is the within-group sharding communicator.
func FSDPShardCommKey(job string, g, p int) string { return fmt.Sprintf("%s.fs.g%d.p%d", job, g, p) }

// FSDPRepCommKey is the cross-group replica communicator for shard slot s.
func FSDPRepCommKey(job string, s, p int) string { return fmt.Sprintf("%s.fr.s%d.p%d", job, s, p) }

// Tag prefixes classifying buffer roles. Recovery decisions key off these:
// model state is retained/checkpointed, everything else is discardable.
const (
	TagParamPrefix = "param."
	TagOptPrefix   = "opt."
	TagActPrefix   = "act."
	TagGradPrefix  = "grad."
	TagIOPrefix    = "io."
)

// layerTag is the allocation tag of one of layer l's buffers: a tag prefix,
// the layer, and the buffer's role, as in "param.L0.w".
func layerTag(pre string, l int, role string) string { return fmt.Sprintf("%sL%d.%s", pre, l, role) }

// IsModelState reports whether a buffer tag is parameter or optimizer
// state — the state JIT checkpoints save and recovery must preserve.
func IsModelState(tag string) bool {
	return strings.HasPrefix(tag, TagParamPrefix) || strings.HasPrefix(tag, TagOptPrefix)
}
