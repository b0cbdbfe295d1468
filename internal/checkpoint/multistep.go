package checkpoint

// This file implements multi-step overlapped disk checkpointing (the
// GoCkpt family): one logical snapshot is split into per-iteration slices
// captured at consecutive minibatch boundaries and written to disk
// concurrently with compute, so the critical path only pays the un-hidden
// fraction of one slice's D2H staging per boundary — never a full-state
// serialize-and-write stall like PC_disk. Because slice s is captured at
// iteration base+s, the generation's slices disagree by up to Slices-1
// optimizer steps; every boundary also persists the just-synchronized
// minibatch gradient (from the worker's bounded gradient ring), and restore
// reconciles stale slices by replaying those gradients through the exact
// optimizer update — bit-exact against a run that checkpointed atomically
// at the target iteration.

import (
	"fmt"

	"jitckpt/internal/gpu"
	"jitckpt/internal/tensor"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// MultiStepNamespace is the store-path component of the multi-step family.
// Its generation directories (gen%08d/rank%04d) are walked with the word
// "gen", so no rank-entry walk ever mistakes a slice object for a
// single-shot rank checkpoint.
const MultiStepNamespace = "multistep"

// MultiStepGenDir builds a generation's per-rank directory; the generation
// number is the target iteration every slice reconciles to.
func MultiStepGenDir(job string, target, rank int) string {
	return fmt.Sprintf("%s/ckpt/%s/gen%08d/rank%04d", job, MultiStepNamespace, target, rank)
}

// msRetain is how many committed generations a rank keeps.
const msRetain = 2

// MSObject records one committed object of a generation in its META:
// either a state slice (Layers non-empty, Iter = capture iteration) or a
// retained-gradient object (Layers nil, Iter = the minibatch the gradient
// belongs to).
type MSObject struct {
	Name     string // object file name within the generation dir
	Iter     int
	Layers   []int // global layer indices (slice objects only)
	Checksum uint32
	DataLen  int
}

// MSMeta is the generation's metadata, written last: its presence certifies
// that every slice and gradient object committed cleanly.
type MSMeta struct {
	BaseIter   int
	TargetIter int
	Slices     int
	Rank       int
	Objects    []MSObject
}

func msMetaPath(dir string) string { return dir + "/META" }

const msMetaTag = "MSM\x01"

func (m MSMeta) encode() []byte {
	b := newRecord(msMetaTag)
	b = putInt(b, m.BaseIter, m.TargetIter, m.Slices, m.Rank, len(m.Objects))
	for _, o := range m.Objects {
		b = putString(b, o.Name)
		b = putInt(b, o.Iter)
		b = putInts(b, o.Layers)
		b = putU32(b, o.Checksum)
		b = putInt(b, o.DataLen)
	}
	return sealRecord(b)
}

// msGen tracks one in-flight generation on the capture side.
type msGen struct {
	base     int
	layers   [][]int // layer partition, one entry per slice
	captured int     // slices captured so far
	objects  []MSObject
	failed   bool
}

func (g *msGen) target() int { return g.base + len(g.layers) - 1 }

// MultiStep drives one rank's multi-step overlapped disk checkpointing.
// The harness calls Step at every minibatch boundary; a new generation
// starts when Interval has elapsed and the previous generation's background
// writes have drained.
type MultiStep struct {
	// Slices is how many consecutive boundaries one snapshot spans.
	Slices int
	// Interval is the pacing between generation starts.
	Interval vclock.Time
	// Disk is the persistent store generations commit to.
	Disk *Store
	// Job names the checkpoint namespace.
	Job string
	// StateBytes is the rank's modelled full state size; each slice
	// stages StateBytes/Slices.
	StateBytes int64
	// SerializeBW and D2HBandwidth time the per-slice staging copy.
	SerializeBW  float64
	D2HBandwidth float64
	// NoteSliceWrite, when set, fires on the background writer before
	// each slice write (phase-aware fault injection).
	NoteSliceWrite func(p *vclock.Proc)

	gen     *msGen
	chain   *vclock.Event
	pending int
	last    vclock.Time
	everRan bool
	count   int
}

// Count returns how many generations have committed (META written).
func (msw *MultiStep) Count() int { return msw.count }

func (msw *MultiStep) due(now vclock.Time) bool {
	if msw.Interval <= 0 {
		return false
	}
	if !msw.everRan {
		return now >= msw.Interval
	}
	return now-msw.last >= msw.Interval
}

// sliceBytes returns the modelled staged size of one slice.
func (msw *MultiStep) sliceBytes() int64 {
	n := msw.Slices
	if n < 1 {
		n = 1
	}
	return msw.StateBytes / int64(n)
}

// Step runs the multi-step writer at a minibatch boundary, returning the
// critical-path stall charged (the un-hidden staging fraction; the disk
// write itself is never on the critical path). A restore that rewinds the
// iteration abandons the in-flight generation — its partial objects are
// left uncommitted (no META) and later pruned.
func (msw *MultiStep) Step(p *vclock.Proc, w *train.Worker) (vclock.Time, error) {
	if msw.gen != nil && w.Iter() != msw.gen.base+msw.gen.captured {
		// The boundary sequence broke (restore rewound the iteration, or a
		// gradient object interleaved differently): abandon the generation.
		msw.gen = nil
	}
	if msw.gen == nil {
		if !msw.due(p.Now()) || msw.pending > 0 {
			return 0, nil
		}
		msw.startGen(p, w)
	}
	return msw.captureSlice(p, w)
}

func (msw *MultiStep) startGen(p *vclock.Proc, w *train.Worker) {
	layers := w.LayerGlobals()
	n := msw.Slices
	if n < 1 {
		n = 1
	}
	if n > len(layers) {
		n = len(layers)
	}
	part := make([][]int, n)
	for i := range part {
		lo, hi := i*len(layers)/n, (i+1)*len(layers)/n
		part[i] = layers[lo:hi]
	}
	msw.gen = &msGen{base: w.Iter(), layers: part}
	msw.last = p.Now()
	msw.everRan = true
}

// captureSlice captures the next slice (and, from the second boundary on,
// the previous minibatch's gradient for all already-captured slices) and
// enqueues their background writes. The slice is encoded straight from the
// peek's device view, before the stall yields, so its encoding is the only
// copy of it.
func (msw *MultiStep) captureSlice(p *vclock.Proc, w *train.Worker) (vclock.Time, error) {
	g := msw.gen
	s := g.captured
	boundary := w.Iter()
	view, err := w.PeekModelState()
	if err != nil {
		msw.gen = nil
		return 0, err
	}

	var objs []msPayload
	// Gradient of the minibatch that just retired, restricted to the
	// layers of slices captured at earlier boundaries.
	if s > 0 {
		ring := w.GradRing()
		if ring == nil {
			msw.gen = nil
			return 0, fmt.Errorf("checkpoint: multi-step writer needs the worker's gradient ring")
		}
		gm, ok := ring.GradAt(boundary - 1)
		if !ok {
			msw.gen = nil
			return 0, fmt.Errorf("checkpoint: gradient ring missing iter %d", boundary-1)
		}
		gs := &train.ModelState{Iter: boundary - 1, Rank: w.Rank(), Tensors: make(map[string]tensor.Vector)}
		covered := 0
		for i := 0; i < s; i++ {
			for _, l := range g.layers[i] {
				gv, ok := gm[train.ParamTensorName(l)]
				if !ok {
					msw.gen = nil
					return 0, fmt.Errorf("checkpoint: gradient ring iter %d missing layer %d", boundary-1, l)
				}
				gs.Tensors[train.ParamTensorName(l)] = gv
				covered++
			}
		}
		data, err := gs.Encode()
		if err != nil {
			msw.gen = nil
			return 0, err
		}
		// Gradients are parameter-sized: a third of the state share of the
		// covered layers (state = params + 2x optimizer moments).
		gradBytes := msw.StateBytes / 3 * int64(covered) / int64(len(w.LayerGlobals()))
		objs = append(objs, msPayload{
			obj:        MSObject{Name: fmt.Sprintf("grad%02d.bin", s-1), Iter: boundary - 1, Checksum: Sum(data), DataLen: len(data)},
			data:       data,
			modelBytes: gradBytes,
		})
	}

	// The slice itself: this boundary's post-optimizer state of its layers.
	ss := &train.ModelState{Iter: boundary, Rank: w.Rank(), Tensors: make(map[string]tensor.Vector)}
	for _, l := range g.layers[s] {
		for _, name := range []string{train.ParamTensorName(l), train.OptMTensorName(l), train.OptVTensorName(l)} {
			if v, ok := view.Tensors[name]; ok {
				ss.Tensors[name] = v
			}
		}
	}
	data, err := ss.Encode()
	if err != nil {
		msw.gen = nil
		return 0, err
	}
	layersCopy := append([]int(nil), g.layers[s]...)
	objs = append(objs, msPayload{
		obj:        MSObject{Name: fmt.Sprintf("slice%02d.bin", s), Iter: boundary, Layers: layersCopy, Checksum: Sum(data), DataLen: len(data)},
		data:       data,
		modelBytes: msw.sliceBytes(),
	})

	// Critical-path stall: the un-hidden fraction of one slice's staging
	// (D2H over PCIe plus serialization), CheckFreq-style.
	stage := gpu.TransferTime(msw.sliceBytes(), msw.D2HBandwidth) +
		gpu.TransferTime(msw.sliceBytes(), msw.SerializeBW)
	stall := vclock.Time(float64(stage) * (1 - hideFraction))
	if stall > 0 {
		p.Sleep(stall)
	}

	g.captured++
	final := s == len(g.layers)-1
	msw.enqueue(g, w.Rank(), objs, final)
	if final {
		msw.gen = nil
	}
	return stall, nil
}

// msPayload is one captured object queued for background writing.
type msPayload struct {
	obj        MSObject
	data       []byte
	modelBytes int64
}

// enqueue chains the boundary's writes behind every earlier write of this
// rank (the disk link is sequential per rank), off the critical path. The
// final boundary's writer commits META last and prunes old generations.
func (msw *MultiStep) enqueue(g *msGen, rank int, objs []msPayload, final bool) {
	g.objects = append(g.objects, objsOf(objs)...)
	dir := MultiStepGenDir(msw.Job, g.target(), rank)
	prev := msw.chain
	env := msw.Disk.env
	done := env.NewEvent("ms-write")
	msw.chain = done
	msw.pending++
	meta := MSMeta{BaseIter: g.base, TargetIter: g.target(), Slices: len(g.layers), Rank: rank}
	env.Go("ms-slice-write", func(wp *vclock.Proc) {
		defer func() {
			msw.pending--
			done.Trigger()
		}()
		if prev != nil {
			wp.Wait(prev)
		}
		sp := trace.Of(env).Begin(wp.Now(), "ckpt", trace.Rank(rank), "ms-slice-write",
			"dir", dir, "objs", len(objs))
		if msw.NoteSliceWrite != nil {
			msw.NoteSliceWrite(wp)
		}
		for _, o := range objs {
			o := o
			err := retry(wp, func() error {
				return writeAtomic(wp, msw.Disk, dir+"/"+o.obj.Name, o.data, o.modelBytes)
			})
			if err != nil {
				g.failed = true
				sp.End(wp.Now(), "err", err)
				return
			}
		}
		sp.End(wp.Now())
		if !final {
			return
		}
		if g.failed {
			return // partial generation: no META, deep-validation rejects it
		}
		meta.Objects = g.objects
		raw := meta.encode()
		err := retry(wp, func() error {
			return writeAtomic(wp, msw.Disk, msMetaPath(dir), raw, 256)
		})
		if err != nil {
			return
		}
		msw.count++
		trace.Of(env).Instant(wp.Now(), "ckpt", trace.Rank(rank), "ms-gen-commit",
			"iter", meta.TargetIter, "rank", rank)
		msw.prune(rank)
	})
}

func objsOf(ps []msPayload) []MSObject {
	out := make([]MSObject, len(ps))
	for i, p := range ps {
		out[i] = p.obj
	}
	return out
}

// prune deletes this rank's oldest committed generations beyond msRetain,
// plus any abandoned (uncommitted) generation older than the newest commit.
func (msw *MultiStep) prune(rank int) {
	dirs := msw.rankGenDirs(rank)
	committed := 0
	newestCommit := -1
	for i := len(dirs) - 1; i >= 0; i-- {
		if _, ok := msw.Disk.Stat(nil, msMetaPath(dirs[i])); ok {
			committed++
			if newestCommit < 0 {
				newestCommit = i
			}
			if committed > msRetain {
				msw.deleteGen(dirs[i])
			}
		} else if newestCommit >= 0 {
			// Abandoned partial generation older than a commit: garbage.
			msw.deleteGen(dirs[i])
		}
	}
}

// rankGenDirs lists this rank's generation directories, oldest first.
func (msw *MultiStep) rankGenDirs(rank int) []string {
	var dirs []string
	for _, e := range Entries(msw.Disk, nsPrefix(msw.Job, MultiStepNamespace), "gen") {
		if e.Rank == rank {
			dirs = append(dirs, e.Dir)
		}
	}
	return dirs
}

func (msw *MultiStep) deleteGen(dir string) {
	for _, path := range msw.Disk.List(dir + "/") {
		msw.Disk.Delete(path)
	}
}

// readMSMeta reads and decodes a generation's META.
func readMSMeta(p *vclock.Proc, st *Store, dir string) (MSMeta, error) {
	raw, err := st.Read(p, msMetaPath(dir))
	if err != nil {
		return MSMeta{}, err
	}
	r := openRecord(raw, msMetaTag)
	m := MSMeta{BaseIter: r.int(), TargetIter: r.int(), Slices: r.int(), Rank: r.int()}
	// Every object takes bytes, so a damaged count cannot loop for long.
	for n := r.int(); n > 0 && !r.bad; n-- {
		m.Objects = append(m.Objects, MSObject{Name: r.string(), Iter: r.int(), Layers: r.ints(),
			Checksum: r.u32(), DataLen: r.int()})
	}
	if err := r.end(); err != nil {
		return MSMeta{}, fmt.Errorf("bad multi-step META in %s: %w", dir, err)
	}
	return m, nil
}

// msValidDeep deep-validates a generation: META present and decodable,
// every recorded object present with matching length and content hash, and
// every slice reconcilable — each iteration between a slice's capture and
// the target must have a recorded gradient object. A generation missing a
// slice, holding a torn or bit-flipped object, or whose slices are stale
// beyond the retained gradient window is rejected as a unit, so restore
// falls back to the newest generation that is fully valid.
func msValidDeep(p *vclock.Proc, st *Store, dir string) bool {
	m, err := readMSMeta(p, st, dir)
	if err != nil {
		return false
	}
	gradIters := make(map[int]bool)
	slices := 0
	for _, o := range m.Objects {
		if !intact(p, st, dir+"/"+o.Name, o.DataLen, o.Checksum) {
			return false
		}
		if o.Layers == nil {
			gradIters[o.Iter] = true
		} else {
			slices++
		}
	}
	if slices != m.Slices {
		return false
	}
	for _, o := range m.Objects {
		if o.Layers == nil {
			continue
		}
		if o.Iter > m.TargetIter || o.Iter < m.BaseIter {
			return false // stale beyond the generation's gradient window
		}
		for t := o.Iter; t < m.TargetIter; t++ {
			if !gradIters[t] {
				return false
			}
		}
	}
	return true
}

// MultiStepParams carries what restore-time reconciliation needs: the
// optimizer update to replay, the gradient scale the kernels applied, and
// the modelled host replay throughput (bytes of state advanced per second).
type MultiStepParams struct {
	Opt         train.OptimizerSpec
	Scale       float32
	ReconcileBW float64
	// NoteReconcile, when set, fires as reconciliation begins (phase-aware
	// fault injection).
	NoteReconcile func(p *vclock.Proc)
}

// MultiStepCandidates enumerates the store's multi-step generations as
// restore candidates. Each candidate deep-validates its whole generation in
// Probe and, in Load, reads every object (charging read bandwidth), then
// replays retained gradients to advance stale slices to the target
// iteration — charging the host replay to virtual time.
func MultiStepCandidates(st *Store, job string, mp MultiStepParams) []Candidate {
	var out []Candidate
	for _, e := range Entries(st, nsPrefix(job, MultiStepNamespace), "gen") {
		d := e.Dir
		out = append(out, Candidate{
			Iter:  e.Iter,
			Rank:  e.Rank,
			Probe: func(p *vclock.Proc) bool { return msValidDeep(p, st, d) },
			Load:  func(p *vclock.Proc) (*train.ModelState, error) { return loadMultiStep(p, st, d, mp) },
			Desc:  MultiStepNamespace + ":" + d,
		})
	}
	return out
}

// loadMultiStep reads a generation and reconciles it to its target
// iteration.
func loadMultiStep(p *vclock.Proc, st *Store, dir string, mp MultiStepParams) (*train.ModelState, error) {
	m, err := readMSMeta(p, st, dir)
	if err != nil {
		return nil, err
	}
	out := &train.ModelState{Iter: m.TargetIter, Rank: m.Rank, Tensors: make(map[string]tensor.Vector)}
	grads := make(map[int]map[string]tensor.Vector)
	type staleSlice struct {
		layers []int
		from   int
	}
	var stale []staleSlice
	var staleBytes int64
	for _, o := range m.Objects {
		path := dir + "/" + o.Name
		raw, err := readVerified(p, st, path, o.DataLen, o.Checksum, path)
		if err != nil {
			return nil, err
		}
		ms, err := train.DecodeModelState(raw)
		if err != nil {
			return nil, err
		}
		if o.Layers == nil {
			grads[o.Iter] = ms.Tensors
			continue
		}
		for n, v := range ms.Tensors {
			out.Tensors[n] = v
		}
		if o.Iter < m.TargetIter {
			stale = append(stale, staleSlice{layers: o.Layers, from: o.Iter})
			staleBytes += int64(m.TargetIter-o.Iter) * st.ModelBytes(path)
		}
	}
	if len(stale) > 0 {
		if mp.NoteReconcile != nil {
			mp.NoteReconcile(p)
		}
		sp := trace.Of(p.Env()).Begin(p.Now(), "ckpt", trace.Rank(m.Rank), "ms-reconcile",
			"dir", dir, "slices", len(stale))
		lookup := func(iter int) (map[string]tensor.Vector, bool) {
			gm, ok := grads[iter]
			return gm, ok
		}
		for _, ssl := range stale {
			if err := train.ReconcileTensors(out, ssl.layers, ssl.from, m.TargetIter,
				mp.Opt, mp.Scale, lookup); err != nil {
				sp.End(p.Now(), "err", err)
				return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, dir, err)
			}
		}
		if mp.ReconcileBW > 0 {
			p.Sleep(gpu.TransferTime(staleBytes, mp.ReconcileBW))
		}
		sp.End(p.Now())
	}
	return out, nil
}
