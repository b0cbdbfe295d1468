// Package peerckpt implements a peer-to-peer in-memory checkpoint tier:
// every iteration, each rank streams its post-optimizer parameter and
// optimizer state into the CPU memory of ring-neighbor nodes in *other*
// failure domains, overlapped with the next minibatch's compute
// (Checkmate-style replication, arXiv:2507.13522; see also SWIFT,
// arXiv:2302.06173).
//
// The tier closes the one gap the paper's JIT checkpointing provably
// cannot: when every data-parallel replica of a shard is lost at once, no
// healthy rank holds the state and no JIT checkpoint can be taken. The
// seed's answer was a 1/day disk checkpoint (losing up to a day); the
// shelter instead holds, in surviving hosts' RAM, a complete post-optimizer
// image at most one iteration old — so even a node-level failure that
// destroys every replica of a shard rolls back ≤ 1 minibatch.
//
// Mechanics:
//
//   - Each shelter host is a checkpoint.Store whose write/read bandwidth is
//     the modelled interconnect link, so transfers cost vclock time. Entries
//     use the same RankDir layout and META-last commit protocol as every
//     other tier, which is what lets restore mix shelter entries with disk
//     checkpoints in one checkpoint.AssembleRestore candidate list.
//
//   - A Replicator per rank offers the state after each RunIter returns,
//     through the shared overlapped-capture driver (checkpoint.Capture):
//     zero-time peek at the boundary, D2H staging and link transfer charged
//     in a background process, offer skipped while the previous transfer is
//     still in flight.
//
//   - Shelter entries survive GPU failures (host RAM outlives the device)
//     but die with their node: the harness calls MarkNodeLost for
//     whole-host failures, which is why placement (scheduler.PeerPlan)
//     never shelters a rank's state inside its own failure domain.
package peerckpt

import (
	"fmt"
	"sort"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/erasure"
	"jitckpt/internal/failure"
	"jitckpt/internal/gpu"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// PolicyName is the checkpoint-store namespace for peer-sheltered entries.
const PolicyName = "peer"

// The shelter's fixed costs and window: a fixed per-transfer latency, how
// many iterations of entries each host keeps per rank (two, so a torn
// in-flight write never leaves a rank uncovered), and the table-driven
// GF(2^8) codec's throughput in payload bytes/second — encode charged in the
// background replication process, decode on the restore path.
const (
	shelterLatency = 200 * vclock.Microsecond
	shelterRetain  = 2
	codecBandwidth = 10e9
)

// Params model the shelter tier.
type Params struct {
	// LinkBandwidth is the rank→peer-CPU-memory streaming bandwidth,
	// bytes/second.
	LinkBandwidth float64
	// Copies is how many peer hosts shelter each rank's state in
	// replication mode (ignored when striping is enabled).
	Copies int
	// DataShards (k) and ParityShards (m) switch the shelter from full
	// replication to Reed-Solomon striping: each rank's state is split
	// into k data shards extended with m parity fragments, spread over
	// k+m distinct peer hosts. Any k surviving fragments reconstruct the
	// state, so the entry survives any m fragment-host losses at
	// (k+m)/k× overhead instead of replication's Copies×. Zero
	// DataShards (the default) keeps replication mode.
	DataShards   int
	ParityShards int
}

// DefaultParams returns the standard shelter configuration: one copy per
// rank over a 100 Gb/s-class link.
func DefaultParams() Params {
	return Params{LinkBandwidth: 12.5e9, Copies: 1}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.LinkBandwidth <= 0 {
		p.LinkBandwidth = d.LinkBandwidth
	}
	if p.Copies <= 0 {
		p.Copies = d.Copies
	}
	return p
}

// Striped reports whether the shelter runs in Reed-Solomon mode.
func (p Params) Striped() bool { return p.DataShards != 0 || p.ParityShards != 0 }

// Fragments returns the stripe width k+m (0 in replication mode).
func (p Params) Fragments() int {
	if !p.Striped() {
		return 0
	}
	return p.DataShards + p.ParityShards
}

// SurvivableDomains returns how many simultaneous failure-domain losses
// an entry survives while remaining restorable, counting the owner's own
// domain (placement keeps shelter hosts out of it): replication with c
// copies survives c, RS(k,m) survives m+1.
func (p Params) SurvivableDomains() int {
	if p.Striped() {
		return p.ParityShards + 1
	}
	return p.Copies
}

// Availability describes the cluster a shelter places into, for
// construction-time validation. Zero fields skip the corresponding check
// (unit tests and callers that cannot know the cluster shape).
type Availability struct {
	// Nodes is how many nodes could host fragments — including each
	// rank's own node, which placement excludes.
	Nodes int
	// FailureDomains is the number of distinct racks across those nodes.
	FailureDomains int
}

// Validate rejects shelter configurations that could not place safely:
// k<1 or m<0 stripes, stripes wider than the available peer hosts, and
// stripes whose parity budget exceeds the cluster's failure domains —
// descriptive errors at construction instead of silent misplacement at
// commit time.
func (p Params) Validate(avail Availability) error {
	if p.Striped() {
		k, m := p.DataShards, p.ParityShards
		if k < 1 {
			return fmt.Errorf("peerckpt: DataShards k=%d: a stripe needs at least one data shard", k)
		}
		if m < 0 {
			return fmt.Errorf("peerckpt: ParityShards m=%d cannot be negative", m)
		}
		if k+m > 255 {
			return fmt.Errorf("peerckpt: k+m=%d fragments exceed the 255 GF(2^8) supports", k+m)
		}
		if avail.Nodes > 0 && k+m > avail.Nodes-1 {
			return fmt.Errorf("peerckpt: stripe needs k+m=%d peer hosts but only %d of %d nodes are eligible (a rank's own node never shelters its stripe)",
				k+m, avail.Nodes-1, avail.Nodes)
		}
		if avail.FailureDomains > 0 && avail.FailureDomains < m+1 {
			return fmt.Errorf("peerckpt: RS(%d,%d) wants ≥%d failure domains to keep any single-domain loss ≤m fragments, cluster has %d",
				k, m, m+1, avail.FailureDomains)
		}
		return nil
	}
	if avail.Nodes > 0 && p.Copies > avail.Nodes-1 {
		return fmt.Errorf("peerckpt: Copies=%d needs that many peer hosts but only %d of %d nodes are eligible",
			p.Copies, avail.Nodes-1, avail.Nodes)
	}
	return nil
}

// Shelter is the job-wide peer checkpoint tier: one CPU-memory store per
// hosting node, entry bookkeeping, and replication statistics. It persists
// across job incarnations (host RAM outlives job restarts) until a node
// itself is lost.
type Shelter struct {
	env    *vclock.Env
	job    string
	params Params
	codec  *erasure.Codec // non-nil iff params.Striped()

	hosts map[int]*checkpoint.Store // node ID -> shelter store
	lost  map[int]bool
	chaos func(path string) checkpoint.WriteOutcome

	// NotePhase, when set, is called as ranks enter codec phases
	// (failure.PhaseEncode / failure.PhaseReconstruct) so phase-armed
	// fault injection can land mid-encode or mid-reconstruction.
	NotePhase func(rank int, ph failure.Phase)

	// Stats.
	captures       checkpoint.CaptureStats
	commits        int
	bytesSheltered int64
	bytesProtected int64
	piggybackBytes int64
	piggybackWaves int
	encodes        int
	decodes        int
	fragErasures   int
	encodeTime     vclock.Time
	decodeTime     vclock.Time
}

// NewShelter creates an empty shelter for a job, validating params
// against the cluster's availability (see Params.Validate) and building
// the Reed-Solomon codec when striping is configured.
func NewShelter(env *vclock.Env, job string, params Params, avail Availability) (*Shelter, error) {
	params = params.withDefaults()
	if err := params.Validate(avail); err != nil {
		return nil, err
	}
	s := &Shelter{
		env:    env,
		job:    job,
		params: params,
		hosts:  make(map[int]*checkpoint.Store),
		lost:   make(map[int]bool),
	}
	if params.Striped() {
		c, err := erasure.New(params.DataShards, params.ParityShards)
		if err != nil {
			return nil, err
		}
		s.codec = c
	}
	return s, nil
}

// Params returns the shelter's effective configuration.
func (s *Shelter) Params() Params { return s.params }

// SetStoreChaos installs a write-fault hook on every shelter host store,
// current and future (hosts are created lazily, so the hook must outlive
// any one store).
func (s *Shelter) SetStoreChaos(fn func(path string) checkpoint.WriteOutcome) {
	s.chaos = fn
	for _, st := range s.hosts {
		st.SetChaos(fn)
	}
}

// Host returns (creating lazily) the shelter store in a node's CPU memory,
// or nil if the node has been lost.
func (s *Shelter) Host(node int) *checkpoint.Store {
	if s.lost[node] {
		return nil
	}
	st, ok := s.hosts[node]
	if !ok {
		st = checkpoint.NewStore(s.env, fmt.Sprintf("peer.n%d", node), checkpoint.StoreParams{
			WriteBW: s.params.LinkBandwidth,
			ReadBW:  s.params.LinkBandwidth,
			Latency: shelterLatency,
		})
		st.SetChaos(s.chaos)
		s.hosts[node] = st
	}
	return st
}

// MarkNodeLost drops a node's shelter store: a whole-host failure takes
// the sheltered entries with it. GPU failures must NOT be reported here —
// host RAM survives them, which is precisely the shelter's value.
func (s *Shelter) MarkNodeLost(node int) {
	if s.lost[node] {
		return
	}
	s.lost[node] = true
	delete(s.hosts, node)
	trace.Of(s.env).Instant(s.env.Now(), "peer", trace.LaneSim, "node-lost", "node", node)
}

// survivingNodes returns the IDs of hosting nodes still alive, sorted.
func (s *Shelter) survivingNodes() []int {
	out := make([]int, 0, len(s.hosts))
	for n := range s.hosts {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// ReadBytes sums the modelled bytes the surviving host stores have served
// to restores.
func (s *Shelter) ReadBytes() int64 {
	var total int64
	for _, st := range s.hosts {
		total += st.ReadBytes()
	}
	return total
}

// encode lays a peeked state out once, in a buffer with room for the
// stripe's padding so erasure.Codec.Split can slice it in place; replication
// writes the same bytes to every host.
func (s *Shelter) encode(ms *train.ModelState) (checkpoint.RankImage, error) {
	n, err := ms.EncodedLen()
	if err != nil {
		return checkpoint.RankImage{}, err
	}
	room := n
	if s.codec != nil {
		room = s.params.DataShards * s.codec.ShardLen(n)
	}
	data, err := ms.AppendEncode(make([]byte, 0, room))
	return checkpoint.RankImage{Iter: ms.Iter, Rank: ms.Rank, Data: data}, err
}

// commit writes one rank's encoded state into a host node's store with the
// META-last protocol — retrying transient store faults with bounded
// backoff — then prunes that rank's old iterations beyond the retention
// window. It is called from the replicator's background process, which
// owns the timing.
func (s *Shelter) commit(p *vclock.Proc, node int, img checkpoint.RankImage, stateBytes int64) error {
	st := s.Host(node)
	if st == nil {
		return fmt.Errorf("peerckpt: host node %d is lost", node)
	}
	sp := trace.Of(s.env).Begin(p.Now(), "peer", trace.Rank(img.Rank), "shelter-commit",
		"node", node, "iter", img.Iter)
	dir := checkpoint.RankDir(s.job, PolicyName, img.Iter, img.Rank)
	if err := checkpoint.WriteImage(p, st, dir, img, stateBytes); err != nil {
		sp.End(p.Now(), "err", err)
		return err
	}
	sp.End(p.Now())
	s.commits++
	s.bytesSheltered += stateBytes
	s.pruneRank(st, img.Rank, img.Iter)
	return nil
}

// entries lists the shelter entries one host store holds for the job
// (checkpoint.Entries): replica objects and erasure fragments under one
// entry directory are one entry.
func (s *Shelter) entries(st *checkpoint.Store) []checkpoint.Entry {
	return checkpoint.Entries(st, fmt.Sprintf("%s/ckpt/%s/", s.job, PolicyName), "iter")
}

// pruneRank deletes a rank's entries older than the retention window in
// one host store (a metadata operation; no time charged), replica objects
// and erasure fragments together.
func (s *Shelter) pruneRank(st *checkpoint.Store, rank, newest int) {
	for _, e := range s.entries(st) {
		if e.Rank == rank && e.Iter <= newest-shelterRetain {
			for _, obj := range st.List(e.Dir + "/") {
				st.Delete(obj)
			}
		}
	}
}

// CoveredPositions returns the positions whose state the shelter can
// restore, keyed by train.Topology.PositionKey. The scheduler's restart
// quorum counts these as pre-covered: a position whose every live replica
// died needs no fresh JIT checkpoint if its state is sheltered. In
// replication mode an entry counts when a surviving host holds it
// complete; in striped mode it counts when it is *reconstructable* — at
// least k distinct fragments survive across hosts, whether or not any
// single host holds usable state. Zero-time metadata scan.
func (s *Shelter) CoveredPositions(topo train.Topology) map[string]bool {
	out := make(map[string]bool)
	// Complete replica entries: replication commits and failure-time JIT
	// flushes (which write whole entries even in striped mode).
	for _, n := range s.survivingNodes() {
		st := s.hosts[n]
		for _, e := range s.entries(st) {
			if e.Rank < topo.World() && checkpoint.HasComplete(st, e.Dir) {
				out[topo.PositionKey(e.Rank)] = true
			}
		}
	}
	if !s.params.Striped() {
		return out
	}
	for e, frags := range s.fragSets() {
		if e.Rank < topo.World() && len(frags) >= s.params.DataShards {
			out[topo.PositionKey(e.Rank)] = true
		}
	}
	return out
}

// FlushTarget is the checkpoint.Target of a failure-time JIT flush for a
// rank homed on OwnNode with shelter hosts Assigned. It resolves when the
// write begins — after D2H and serialization — so a host lost in the
// meantime is never picked.
type FlushTarget struct {
	Shelter  *Shelter
	OwnNode  int
	Assigned []int
}

// SaveStore picks a surviving assigned host if any, else any surviving
// host outside the rank's own node. It never returns the own node's store;
// nil means no eligible host survives.
func (t FlushTarget) SaveStore() *checkpoint.Store {
	s := t.Shelter
	for _, n := range t.Assigned {
		if n != t.OwnNode && !s.lost[n] {
			return s.Host(n)
		}
	}
	for _, n := range s.survivingNodes() {
		if n != t.OwnNode {
			return s.hosts[n]
		}
	}
	return nil
}

// NotePiggyback records one observed gradient all-reduce window — the
// traffic Checkmate-style replication rides along with. The ratio of
// BytesSheltered to PiggybackBytes is the tier's relative bandwidth cost.
func (s *Shelter) NotePiggyback(bytes int64) {
	s.piggybackWaves++
	s.piggybackBytes += bytes
}

// Stats is a snapshot of the shelter's replication counters.
type Stats struct {
	// Offers counts replication attempts; Skips those dropped because the
	// previous transfer was still in flight; Commits completed entry (or
	// fragment) writes.
	Offers, Skips, Commits int
	// AbortedCaptures counts transfers abandoned because the owner device
	// died before staging completed.
	AbortedCaptures int
	// BytesSheltered is the total volume written into peer CPU memory;
	// BytesProtected is the state volume those writes covered. Their
	// ratio is the tier's measured overhead factor (Copies× for
	// replication, (k+m)/k× for striping).
	BytesSheltered int64
	BytesProtected int64
	// PiggybackWaves/PiggybackBytes describe the observed all-reduce
	// windows replication overlaps with.
	PiggybackWaves int
	PiggybackBytes int64
	// Encodes/Decodes count Reed-Solomon codec runs; EncodeTime and
	// DecodeTime the virtual time charged for them. FragErasures counts
	// fragments dropped from a reconstruction because they were corrupt
	// or unreadable (the per-fragment-checksum erasure list at work).
	Encodes, Decodes int
	FragErasures     int
	EncodeTime       vclock.Time
	DecodeTime       vclock.Time
}

// Stats returns the current counters.
func (s *Shelter) Stats() Stats {
	return Stats{
		Offers: s.captures.Offers, Skips: s.captures.Skips, Commits: s.commits,
		AbortedCaptures: s.captures.Aborted,
		BytesSheltered:  s.bytesSheltered,
		BytesProtected:  s.bytesProtected,
		PiggybackWaves:  s.piggybackWaves,
		PiggybackBytes:  s.piggybackBytes,
		Encodes:         s.encodes,
		Decodes:         s.decodes,
		FragErasures:    s.fragErasures,
		EncodeTime:      s.encodeTime,
		DecodeTime:      s.decodeTime,
	}
}

// Replicator drives one rank's per-iteration replication into its assigned
// shelter hosts.
type Replicator struct {
	checkpoint.Capture
	shelter *Shelter
	hosts   []int
}

// NewReplicator creates a replicator for one rank. dev may be nil (no
// owner-death staging check); hosts is the rank's scheduler.PeerPlan
// assignment; d2hBW is the PCIe staging bandwidth charged before the link
// transfer.
func (s *Shelter) NewReplicator(rank int, dev *gpu.Device, hosts []int, stateBytes int64, d2hBW float64) *Replicator {
	r := &Replicator{shelter: s, hosts: append([]int(nil), hosts...)}
	r.Capture = checkpoint.Capture{
		Env: s.env, Stats: &s.captures, Rank: rank, Dev: dev,
		Bytes: stateBytes, D2HBW: d2hBW,
		Cat: "peer", Span: "replicate", Proc: fmt.Sprintf("peerrepl.r%d", rank),
		Take: r.take,
	}
	return r
}

// take encodes the peeked state (Shelter.encode) for the ship that follows;
// in striped mode it also starts the stripe's byte work (encodeStripe).
func (r *Replicator) take(ms *train.ModelState) func(p *vclock.Proc) {
	img, err := r.shelter.encode(ms)
	if err != nil {
		return nil
	}
	if r.shelter.params.Striped() {
		work := r.shelter.encodeStripe(img.Data)
		return func(p *vclock.Proc) { r.shipStripe(p, img, work) }
	}
	return func(p *vclock.Proc) { r.ship(p, img) }
}

// Offer streams the worker's post-optimizer state to the assigned shelter
// hosts in the background (see checkpoint.Capture.Offer); with no assigned
// host left alive the offer is skipped.
func (r *Replicator) Offer(w checkpoint.StatePeeker) {
	s := r.shelter
	for _, n := range r.hosts {
		if !s.lost[n] {
			r.Capture.Offer(w)
			return
		}
	}
	s.captures.Offers++
	s.captures.Skips++
}

// ship commits the staged image whole to every surviving assigned host, in
// replication mode.
func (r *Replicator) ship(p *vclock.Proc, img checkpoint.RankImage) {
	s := r.shelter
	s.bytesProtected += r.Bytes
	for _, n := range r.hosts {
		if s.lost[n] {
			continue
		}
		s.commit(p, n, img, r.Bytes)
	}
}
