package peerckpt

import (
	"fmt"
	"sort"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/failure"
	"jitckpt/internal/gpu"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// stripe is a ship's byte work: the k+m fragments of one encoded payload
// and the checksums their FMETAs record.
type stripe struct {
	frags    [][]byte
	dataSum  uint32
	fragSums []uint32
	err      error
}

// encodeStripe starts a ship's byte work on a goroutine of its own, beside
// the simulation, once take has encoded the payload: the padding, parity
// and checksums are a pure function of data, which nothing else touches
// from here on. The goroutine touches nothing but data and its result,
// never the clock, the trace, a store or the shelter's counters, so the
// host's parallelism cannot move a simulated value. shipStripe joins it
// after the virtual sleep that models the codec; a ship that never runs
// leaves it to finish into the buffered channel.
func (s *Shelter) encodeStripe(data []byte) <-chan stripe {
	codec := s.codec
	done := make(chan stripe, 1)
	go func() {
		st := stripe{dataSum: checkpoint.Sum(data)}
		st.frags, st.err = codec.Encode(codec.Split(data))
		if st.err == nil {
			st.fragSums = make([]uint32, len(st.frags))
			for i, f := range st.frags {
				st.fragSums[i] = checkpoint.Sum(f)
			}
		}
		done <- st
	}()
	return done
}

// shipStripe commits fragment i of one rank's stripe to r.hosts[i]. Called
// from the replicator's background process after D2H staging; the codec
// time is charged here, overlapped with the next minibatch like the
// transfers themselves, and the stripe is taken from work once that time
// has passed. The data fragments are slices of img.Data, whose capacity
// already holds the padding; only the parity is new.
func (r *Replicator) shipStripe(p *vclock.Proc, img checkpoint.RankImage, work <-chan stripe) {
	s := r.shelter
	k, m := s.params.DataShards, s.params.ParityShards
	if s.NotePhase != nil {
		s.NotePhase(r.Rank, failure.PhaseEncode)
	}
	sp := trace.Of(s.env).Begin(p.Now(), "peer", trace.Rank(r.Rank), "rs-encode",
		"iter", img.Iter, "k", k, "m", m)
	t0 := p.Now()
	// Charge the GF(2^8) table-multiply cost over the modelled payload.
	p.Sleep(gpu.TransferTime(r.Bytes, codecBandwidth))
	st := <-work
	if st.err != nil {
		sp.End(p.Now(), "err", st.err)
		return
	}
	s.encodes++
	s.encodeTime += p.Now() - t0
	s.bytesProtected += r.Bytes
	sp.End(p.Now())

	fragBytes := (r.Bytes + int64(k) - 1) / int64(k)
	for i, n := range r.hosts {
		if i >= len(st.frags) {
			break
		}
		if s.lost[n] {
			continue
		}
		fm := checkpoint.FragMeta{
			Iter: img.Iter, Rank: img.Rank, Frag: i, K: k, M: m,
			DataLen: len(img.Data), DataSum: st.dataSum, FragSum: st.fragSums[i],
		}
		s.commitFrag(p, n, fm, st.frags[i], fragBytes)
	}
}

// commitFrag writes one fragment into a host node's store with the
// FMETA-last protocol, retrying transient faults, then prunes the rank's
// old iterations there.
func (s *Shelter) commitFrag(p *vclock.Proc, node int, fm checkpoint.FragMeta, frag []byte, fragBytes int64) error {
	st := s.Host(node)
	if st == nil {
		return fmt.Errorf("peerckpt: host node %d is lost", node)
	}
	dir := checkpoint.RankDir(s.job, PolicyName, fm.Iter, fm.Rank)
	sp := trace.Of(s.env).Begin(p.Now(), "peer", trace.Rank(fm.Rank), "shelter-frag",
		"node", node, "iter", fm.Iter, "frag", fm.Frag)
	if err := checkpoint.WriteFragRetry(p, st, dir, fm, frag, fragBytes); err != nil {
		sp.End(p.Now(), "err", err)
		return err
	}
	sp.End(p.Now())
	s.commits++
	s.bytesSheltered += fragBytes
	s.pruneRank(st, fm.Rank, fm.Iter)
	return nil
}

// fragSets scans surviving hosts for committed fragments — zero-time
// metadata lookups — and returns, per entry, which fragment indices
// survive and on which node (first surviving host in node order wins a
// duplicate index).
func (s *Shelter) fragSets() map[checkpoint.Entry]map[int]int {
	out := make(map[checkpoint.Entry]map[int]int)
	total := s.params.Fragments()
	for _, n := range s.survivingNodes() {
		st := s.hosts[n]
		for _, e := range s.entries(st) {
			for idx := 0; idx < total; idx++ {
				if !checkpoint.HasFrag(st, e.Dir, idx) {
					continue
				}
				frags, ok := out[e]
				if !ok {
					frags = make(map[int]int)
					out[e] = frags
				}
				if _, dup := frags[idx]; !dup {
					frags[idx] = n
				}
			}
		}
	}
	return out
}

// RestoreCandidates offers everything the shelter can restore to the
// assembler, in its fixed order: first the complete replica entries of each
// surviving host in node order (replication commits, and failure-time JIT
// flushes — which write whole entries even in striped mode), then, in
// striped mode, every reconstructable stripe: entries with ≥k surviving
// fragments, as candidates whose Probe deep-validates the fragment set
// (per-fragment checksums feed the erasure list) and whose Load gathers k
// fragments, decodes parity on the fly when data shards are missing —
// charging the decode to virtual time — and verifies the reassembled
// payload end-to-end.
func (s *Shelter) RestoreCandidates() []checkpoint.Candidate {
	var out []checkpoint.Candidate
	for _, n := range s.survivingNodes() {
		out = append(out, checkpoint.StoreCandidates(s.hosts[n], s.job, PolicyName)...)
	}
	if !s.params.Striped() {
		return out
	}
	sets := s.fragSets()
	stripes := make([]checkpoint.Entry, 0, len(sets))
	for e := range sets {
		stripes = append(stripes, e)
	}
	sort.Slice(stripes, func(i, j int) bool {
		if stripes[i].Iter != stripes[j].Iter {
			return stripes[i].Iter > stripes[j].Iter
		}
		return stripes[i].Rank < stripes[j].Rank
	})
	for _, e := range stripes {
		frags := sets[e]
		if len(frags) < s.params.DataShards {
			continue
		}
		out = append(out, checkpoint.Candidate{
			Iter: e.Iter,
			Rank: e.Rank,
			Probe: func(p *vclock.Proc) bool {
				return s.probeStripe(p, e, frags)
			},
			Load: func(p *vclock.Proc) (*train.ModelState, error) {
				return s.loadStripe(p, e, frags)
			},
			Desc: "peer-stripe:" + e.Dir,
		})
	}
	return out
}

// probeStripe deep-validates a stripe at metadata cost: it counts
// fragments whose per-fragment checksum still matches and reports
// whether at least k survive. A fragment corrupted in place since the
// zero-time scan fails its checksum here and drops out of the count.
func (s *Shelter) probeStripe(p *vclock.Proc, e checkpoint.Entry, frags map[int]int) bool {
	valid := 0
	total := s.params.Fragments()
	for idx := 0; idx < total; idx++ {
		node, ok := frags[idx]
		if !ok || s.lost[node] {
			continue
		}
		st := s.hosts[node]
		if st == nil {
			continue
		}
		if checkpoint.ValidFragDeep(p, st, e.Dir, idx) {
			valid++
		}
	}
	return valid >= s.params.DataShards
}

// loadStripe reads k fragments of a stripe — data shards first, so an
// intact stripe skips the decode entirely — reconstructs missing data
// shards from parity when needed (decode latency charged via the codec
// bandwidth), reassembles the payload, and verifies it end-to-end
// against the stripe's recorded checksum.
func (s *Shelter) loadStripe(p *vclock.Proc, e checkpoint.Entry, frags map[int]int) (*train.ModelState, error) {
	if s.NotePhase != nil {
		s.NotePhase(e.Rank, failure.PhaseReconstruct)
	}
	k := s.params.DataShards
	total := s.params.Fragments()
	sp := trace.Of(s.env).Begin(p.Now(), "peer", trace.Rank(e.Rank), "reconstruct",
		"iter", e.Iter)
	shards := make([][]byte, total)
	var meta *checkpoint.FragMeta
	var modelBytes int64
	have := 0
	for idx := 0; idx < total && have < k; idx++ {
		node, ok := frags[idx]
		if !ok || s.lost[node] {
			continue
		}
		st := s.hosts[node]
		if st == nil {
			continue
		}
		fm, data, err := checkpoint.ReadFrag(p, st, e.Dir, idx)
		if err != nil {
			// Corrupt or vanished since the probe: erase it and let
			// parity make up the difference.
			s.fragErasures++
			trace.Of(s.env).Instant(p.Now(), "peer", trace.Rank(e.Rank), "frag-erased",
				"iter", e.Iter, "frag", idx, "err", err)
			continue
		}
		if meta == nil {
			meta = &fm
		} else if fm.K != meta.K || fm.M != meta.M || fm.ShardLen != meta.ShardLen ||
			fm.DataLen != meta.DataLen || fm.DataSum != meta.DataSum {
			// A fragment from a different stripe generation: unusable.
			s.fragErasures++
			continue
		}
		shards[idx] = data
		modelBytes += st.ModelBytes(checkpoint.FragPath(e.Dir, idx))
		have++
	}
	if have < k || meta == nil {
		err := fmt.Errorf("%w: stripe %s: %d of %d fragments readable, need %d",
			checkpoint.ErrCorrupt, e.Dir, have, total, k)
		sp.End(p.Now(), "err", err)
		return nil, err
	}
	decoded := false
	for i := 0; i < k; i++ {
		if shards[i] == nil {
			decoded = true
			break
		}
	}
	if decoded {
		t0 := p.Now()
		p.Sleep(gpu.TransferTime(modelBytes, codecBandwidth))
		if err := s.codec.Reconstruct(shards); err != nil {
			sp.End(p.Now(), "err", err)
			return nil, fmt.Errorf("stripe %s: %w", e.Dir, err)
		}
		s.decodes++
		s.decodeTime += p.Now() - t0
	}
	data, err := s.codec.Join(shards[:k], meta.DataLen)
	if err != nil {
		sp.End(p.Now(), "err", err)
		return nil, err
	}
	if checkpoint.Sum(data) != meta.DataSum {
		err := fmt.Errorf("%w: stripe %s fails end-to-end checksum after decode",
			checkpoint.ErrCorrupt, e.Dir)
		sp.End(p.Now(), "err", err)
		return nil, err
	}
	ms, err := train.DecodeModelState(data)
	if err != nil {
		sp.End(p.Now(), "err", err)
		return nil, err
	}
	sp.End(p.Now(), "decoded", decoded)
	return ms, nil
}
