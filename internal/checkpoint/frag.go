package checkpoint

import (
	"fmt"

	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// FragMeta is the metadata object committed last for one erasure-coded
// fragment of a rank checkpoint. It carries enough to rebuild the whole
// stripe from any k surviving fragments: the stripe geometry (K data +
// M parity, ShardLen bytes each), the original payload length and
// checksum (verified after decode+join), and this fragment's own
// checksum — the per-fragment integrity signal that feeds the decoder's
// erasure list when storage chaos corrupts a fragment in place.
type FragMeta struct {
	Iter int
	Rank int
	// Frag is this fragment's index in the stripe: 0..K-1 are data
	// shards, K..K+M-1 parity.
	Frag     int
	K, M     int
	ShardLen int
	// DataLen and DataSum describe the original (pre-split) payload.
	DataLen int
	DataSum uint32
	// FragSum is the Sum of this fragment's bytes.
	FragSum uint32
}

const fragMetaTag = "FGM\x01"

func (fm FragMeta) encode() []byte {
	b := newRecord(fragMetaTag)
	b = putInt(b, fm.Iter, fm.Rank, fm.Frag, fm.K, fm.M, fm.ShardLen, fm.DataLen)
	b = putU32(b, fm.DataSum)
	b = putU32(b, fm.FragSum)
	return sealRecord(b)
}

// FragPath returns the object path of fragment idx inside a rank
// checkpoint directory.
func FragPath(dir string, idx int) string { return fmt.Sprintf("%s/frag%03d.bin", dir, idx) }

// FragMetaPath returns the metadata object path of fragment idx.
func FragMetaPath(dir string, idx int) string { return fmt.Sprintf("%s/FMETA%03d", dir, idx) }

// WriteFrag commits one fragment with the same two-phase protocol as
// WriteRank: fragment bytes first, FMETA last, each by atomic rename —
// so a torn transfer never leaves a fragment that looks committed.
// modelBytes is the modelled fragment size driving write timing
// (stateBytes/K for a striped state). fm.FragSum is the caller's Sum of
// frag (the shelter computes it beside the simulation with the parity);
// fm.ShardLen is set here.
func WriteFrag(p *vclock.Proc, st *Store, dir string, fm FragMeta, frag []byte, modelBytes int64) error {
	sp := trace.Of(p.Env()).Begin(p.Now(), "ckpt", trace.Rank(fm.Rank), "write-frag",
		"store", st.name, "iter", fm.Iter, "frag", fm.Frag)
	fm.ShardLen = len(frag)
	if err := writeAtomic(p, st, FragPath(dir, fm.Frag), frag, modelBytes); err != nil {
		sp.End(p.Now(), "err", err)
		return err
	}
	if err := writeAtomic(p, st, FragMetaPath(dir, fm.Frag), fm.encode(), 256); err != nil {
		sp.End(p.Now(), "err", err)
		return err
	}
	sp.End(p.Now())
	return nil
}

// ReadFragMeta reads and decodes one fragment's metadata.
func ReadFragMeta(p *vclock.Proc, st *Store, dir string, idx int) (FragMeta, error) {
	raw, err := st.Read(p, FragMetaPath(dir, idx))
	if err != nil {
		return FragMeta{}, err
	}
	r := openRecord(raw, fragMetaTag)
	fm := FragMeta{Iter: r.int(), Rank: r.int(), Frag: r.int(), K: r.int(), M: r.int(),
		ShardLen: r.int(), DataLen: r.int(), DataSum: r.u32(), FragSum: r.u32()}
	if err := r.end(); err != nil {
		return FragMeta{}, fmt.Errorf("bad FMETA%03d in %s: %w", idx, dir, err)
	}
	return fm, nil
}

// HasFrag reports whether dir holds a committed fragment idx using only
// zero-time metadata lookups (FMETA written last certifies the commit).
// Coverage scans use it where charging latency per probe would distort
// timing.
func HasFrag(st *Store, dir string, idx int) bool {
	return committed(st, FragMetaPath(dir, idx), FragPath(dir, idx))
}

// ValidFragDeep checks fragment idx end-to-end at metadata cost: FMETA
// decodes, the fragment object exists with the recorded length, and the
// store-side content hash matches FragSum. A false answer is exactly an
// entry for the decoder's erasure list.
func ValidFragDeep(p *vclock.Proc, st *Store, dir string, idx int) bool {
	fm, err := ReadFragMeta(p, st, dir, idx)
	return err == nil && intact(p, st, FragPath(dir, idx), fm.ShardLen, fm.FragSum)
}

// ReadFrag reads and verifies fragment idx, charging read bandwidth.
func ReadFrag(p *vclock.Proc, st *Store, dir string, idx int) (FragMeta, []byte, error) {
	fm, err := ReadFragMeta(p, st, dir, idx)
	if err != nil {
		return FragMeta{}, nil, err
	}
	data, err := readVerified(p, st, FragPath(dir, idx), fm.ShardLen, fm.FragSum, fmt.Sprintf("%s frag %d", dir, idx))
	if err != nil {
		return FragMeta{}, nil, err
	}
	return fm, data, nil
}
