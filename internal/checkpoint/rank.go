package checkpoint

import (
	"fmt"
	"sort"

	"jitckpt/internal/gpu"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// Meta is the metadata object written last, whose presence signals a
// complete and clean rank checkpoint (§3.2: "a metadata file is stored at
// the end, which signals a complete and clean checkpoint").
type Meta struct {
	Iter     int
	Rank     int
	Checksum uint32 // Sum of the data object's bytes
	DataLen  int
}

const metaTag = "RKM\x01"

func (m Meta) encode() []byte {
	b := newRecord(metaTag)
	b = putInt(b, m.Iter, m.Rank)
	b = putU32(b, m.Checksum)
	b = putInt(b, m.DataLen)
	return sealRecord(b)
}

// RankDir builds the rank-dependent checkpoint directory: each rank saves
// into its own directory so simultaneous JIT checkpoints cannot collide.
func RankDir(job, policy string, iter, rank int) string {
	return fmt.Sprintf("%s/ckpt/%s/iter%08d/rank%04d", job, policy, iter, rank)
}

func dataPath(dir string) string { return dir + "/model.bin" }
func metaPath(dir string) string { return dir + "/META" }

// RankImage is one rank's state as train.ModelState.Encode lays it out,
// with the (iter, rank) it holds. A store keeps the bytes it is given, so one
// image serves every retry of a save and every store it is written to; Data
// may not change once written.
type RankImage struct {
	Iter, Rank int
	Data       []byte
}

// WriteRank encodes ms once and commits it under dir (WriteImage).
// modelBytes is the modelled state size that drives write timing.
func WriteRank(p *vclock.Proc, st *Store, dir string, ms *train.ModelState, modelBytes int64) error {
	data, err := ms.Encode()
	if err != nil {
		return err
	}
	return WriteImage(p, st, dir, RankImage{Iter: ms.Iter, Rank: ms.Rank, Data: data}, modelBytes)
}

// writeImage is one attempt at a rank checkpoint's two-phase commit: data
// first, META last — and each object is committed by atomic rename (write to
// a ".tmp" name, then rename into place), so a write that tears or fails
// mid-transfer never leaves a partial object at the final path.
func writeImage(p *vclock.Proc, st *Store, dir string, img RankImage, modelBytes int64) error {
	sp := trace.Of(p.Env()).Begin(p.Now(), "ckpt", trace.Rank(img.Rank), "write-rank",
		"store", st.name, "iter", img.Iter)
	if err := writeAtomic(p, st, dataPath(dir), img.Data, modelBytes); err != nil {
		sp.End(p.Now(), "err", err)
		return err
	}
	meta := Meta{Iter: img.Iter, Rank: img.Rank, Checksum: Sum(img.Data), DataLen: len(img.Data)}
	if err := writeAtomic(p, st, metaPath(dir), meta.encode(), 256); err != nil {
		sp.End(p.Now(), "err", err)
		return err
	}
	trace.Of(p.Env()).Instant(p.Now(), "ckpt", trace.Rank(img.Rank), "commit",
		"store", st.name, "iter", img.Iter)
	sp.End(p.Now())
	return nil
}

// Target names where a rank save writes. A *Store is its own target; the
// peer shelter's failure-time flush target resolves, once serialization is
// done and the write begins, to a host that is still alive then.
type Target interface {
	// SaveStore returns the store to write to, or nil when none is left.
	SaveStore() *Store
}

// SaveStore makes every store its own save target.
func (s *Store) SaveStore() *Store { return s }

// SaveRank is the one whole-rank save path, shared by the periodic
// baselines, the user-level and transparent JIT saves and the elastic
// stop: it charges CPU-side serialization (torch.save-class pickling) of
// serializeBytes at serializeBW bytes/second (zero disables it), then
// commits ms under dir in to's store (WriteRank), the write timed by
// writeBytes. Serialization is paid in the critical path by PC_disk and
// PC_mem alike — which is why saving to tmpfs only shaves ~15% off PC_disk
// in the paper's Table 3. The caller supplies ms (its D2H
// capture differs per tier) and the span around the whole save.
func SaveRank(p *vclock.Proc, to Target, dir string, ms *train.ModelState, serializeBW float64, serializeBytes, writeBytes int64) error {
	if d := gpu.TransferTime(serializeBytes, serializeBW); d > 0 {
		p.Sleep(d)
	}
	st := to.SaveStore()
	if st == nil {
		return ErrNoTarget
	}
	return WriteRank(p, st, dir, ms, writeBytes)
}

// writeAtomic writes data to path+".tmp" and renames it into place. On a
// write error the temporary object (possibly torn) is deleted so nothing
// partial ever becomes visible at path.
func writeAtomic(p *vclock.Proc, st *Store, path string, data []byte, modelBytes int64) error {
	tmp := path + ".tmp"
	if err := st.Write(p, tmp, data, modelBytes); err != nil {
		st.Delete(tmp)
		return err
	}
	return st.Rename(p, tmp, path)
}

// ReadMeta reads and decodes a rank checkpoint's metadata.
func ReadMeta(p *vclock.Proc, st *Store, dir string) (Meta, error) {
	raw, err := st.Read(p, metaPath(dir))
	if err != nil {
		return Meta{}, err
	}
	r := openRecord(raw, metaTag)
	m := Meta{Iter: r.int(), Rank: r.int(), Checksum: r.u32(), DataLen: r.int()}
	if err := r.end(); err != nil {
		return Meta{}, fmt.Errorf("bad META in %s: %w", dir, err)
	}
	return m, nil
}

// ValidDeep reports whether dir holds a complete, intact rank checkpoint,
// at metadata cost: META present (it is written last, so its existence
// certifies a clean save — the §3.3 "discarding corrupted checkpoints"
// check), the data object present with the recorded length, and the
// store's object checksum (ContentHash, the etag kept by the storage tier)
// matching META's — which catches the silent bit-flips a length check
// cannot, without a full read. Restore-time assembly uses it so every rank
// deterministically skips a corrupted entry and the job falls back to the
// newest generation that is actually intact.
func ValidDeep(p *vclock.Proc, st *Store, dir string) bool {
	m, err := ReadMeta(p, st, dir)
	return err == nil && intact(p, st, dataPath(dir), m.DataLen, m.Checksum)
}

// HasComplete reports whether dir holds a complete rank checkpoint using
// only zero-time metadata lookups (META written last certifies the commit,
// and the data object must exist). Scheduler-side coverage scans use it
// where charging store latency per probed entry would distort timing.
func HasComplete(st *Store, dir string) bool { return committed(st, metaPath(dir), dataPath(dir)) }

// ReadRank reads and validates one rank's checkpoint.
func ReadRank(p *vclock.Proc, st *Store, dir string) (*train.ModelState, error) {
	m, err := ReadMeta(p, st, dir)
	if err != nil {
		return nil, err
	}
	data, err := readVerified(p, st, dataPath(dir), m.DataLen, m.Checksum, dir)
	if err != nil {
		return nil, err
	}
	return train.DecodeModelState(data)
}

// Candidate is one restorable rank entry a checkpoint tier offers to the
// assembler: a writer (iter, rank) pair, a cheap validity probe, and a
// loader that charges its own I/O — including, for erasure-coded tiers,
// any parity-decode cost. The assembler treats plain store entries and
// reconstructable stripes uniformly through this surface.
type Candidate struct {
	Iter int
	Rank int
	// Probe validates the entry at metadata cost (checksums included);
	// assembly consults it before committing a position to this entry.
	Probe func(p *vclock.Proc) bool
	// Load reads, verifies and decodes the entry, charging read
	// bandwidth and any reconstruction latency to virtual time.
	Load func(p *vclock.Proc) (*train.ModelState, error)
	// Desc names the entry's source for traces and errors, as
	// "<tier>:<entry>".
	Desc string
}

// RestorePlan maps each reader rank to the candidate it should load.
type RestorePlan struct {
	Iter int
	For  map[int]Candidate
}

// StoreCandidates enumerates the rank entries st holds for job under
// namespace ns (Entries), as candidates that deep-validate in Probe and read
// with checksum verification in Load. Entries come out in path order — the
// order AssembleRestore breaks ties by.
func StoreCandidates(st *Store, job, ns string) []Candidate {
	var out []Candidate
	for _, e := range Entries(st, nsPrefix(job, ns), "iter") {
		dir := e.Dir
		out = append(out, Candidate{
			Iter:  e.Iter,
			Rank:  e.Rank,
			Probe: func(p *vclock.Proc) bool { return ValidDeep(p, st, dir) },
			Load:  func(p *vclock.Proc) (*train.ModelState, error) { return ReadRank(p, st, dir) },
			Desc:  st.Name() + ":" + dir,
		})
	}
	return out
}

// AssembleRestore builds a consistent restore plan from one ordered
// candidate list — the jit_get_checkpoint_path mechanism of §3.3, widened
// to every tier that speaks the Candidate surface. Because every tier
// records the same invariant — Iter = N means "state at the start of
// minibatch N" — candidates at the same iteration are interchangeable per
// position. Iterations are examined newest-first; within one, the first
// probing-valid candidate per position wins, in list order (callers list
// the preferred tier first). The newest iteration where every position of
// topo is covered becomes the plan; a rank that died mid-save is simply
// passed over in favour of a replica.
//
// writerWorld bounds the writer ranks admitted: elastic restores read
// checkpoints written at a different data-parallel width than topo, and
// position keys are width-invariant — (p, t, shard-slot) does not depend on
// D — so a rank-r entry written at D=4 restores any reader rank at the
// same position under D=2, and vice versa.
func AssembleRestore(p *vclock.Proc, cands []Candidate, topo train.Topology, writerWorld int) (*RestorePlan, error) {
	byIter := make(map[int][]Candidate)
	for _, c := range cands {
		byIter[c.Iter] = append(byIter[c.Iter], c)
	}
	iters := make([]int, 0, len(byIter))
	for it := range byIter {
		iters = append(iters, it)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(iters)))

	for _, it := range iters {
		plan, ok := tryAssembleCandidates(p, byIter[it], it, topo, writerWorld)
		if ok {
			trace.Of(p.Env()).Instant(p.Now(), "ckpt", trace.LaneSim, "assemble", "iter", it)
			return plan, nil
		}
		// A newer generation exists but is unusable (torn, corrupt, or
		// partial): the fallback the commit protocol is there to make safe.
		trace.Of(p.Env()).Instant(p.Now(), "ckpt", trace.LaneSim, "assemble-fallback", "iter", it)
	}
	return nil, ErrUnassembled
}

func tryAssembleCandidates(p *vclock.Proc, cands []Candidate, iter int, topo train.Topology, writerWorld int) (*RestorePlan, bool) {
	// First probing-valid candidate per position, in candidate order.
	havePos := make(map[string]Candidate)
	for _, c := range cands {
		if c.Rank >= writerWorld {
			continue
		}
		key := topo.PositionKey(c.Rank)
		if _, done := havePos[key]; done {
			continue
		}
		if c.Probe == nil || c.Probe(p) {
			havePos[key] = c
		}
	}
	// Every position must be covered.
	plan := &RestorePlan{Iter: iter, For: make(map[int]Candidate)}
	for r := 0; r < topo.World(); r++ {
		c, ok := havePos[topo.PositionKey(r)]
		if !ok {
			return nil, false
		}
		plan.For[r] = c
	}
	return plan, true
}
