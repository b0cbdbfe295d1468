package checkpoint

import (
	"fmt"

	"jitckpt/internal/gpu"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// PeriodicKind selects a periodic checkpointing baseline from §6.3.
type PeriodicKind int

const (
	// PCDisk saves to the persistent store in the critical path
	// (torch.save-style).
	PCDisk PeriodicKind = iota
	// PCMem saves to node-local tmpfs in the critical path and drains to
	// the persistent store asynchronously (Nebula-style, [2]).
	PCMem
	// CheckFreq overlaps the GPU→CPU snapshot with the next minibatch's
	// compute, paying only the un-hidden fraction in the critical path
	// (CheckFreq [23]; its runtime profiling is modelled by hideFraction).
	CheckFreq
	// PCDaily is PC_mem at a fixed once-per-day cadence — the optional
	// low-frequency safety net for catastrophic multi-node failures that
	// the paper suggests running alongside JIT checkpointing.
	PCDaily
)

// String renders the baseline name as the paper writes it.
func (k PeriodicKind) String() string {
	switch k {
	case PCDisk:
		return "PC_disk"
	case PCMem:
		return "PC_mem"
	case CheckFreq:
		return "CheckFreq"
	case PCDaily:
		return "PC_1/day"
	default:
		return fmt.Sprintf("PeriodicKind(%d)", int(k))
	}
}

// PolicyName returns the store-path component for a baseline.
func (k PeriodicKind) PolicyName() string {
	switch k {
	case PCDisk:
		return "pc_disk"
	case PCMem, PCDaily:
		return "pc_mem"
	case CheckFreq:
		return "checkfreq"
	default:
		return "unknown"
	}
}

// Periodic drives one rank's periodic checkpointing. The training harness
// calls Due at every minibatch boundary and Run when due.
type Periodic struct {
	Kind PeriodicKind
	// Interval is the wall time between checkpoints (1/c).
	Interval vclock.Time
	// Disk is the persistent shared store; Mem is the node-local tmpfs
	// tier (used by PCMem/PCDaily/CheckFreq for the critical-path copy).
	Disk *Store
	Mem  *Store
	// SerializeBW models the CPU-side serialization throughput in
	// bytes/second (see SaveRank); for CheckFreq it is part of the
	// hideable copy. Zero disables it.
	SerializeBW float64
	// StateBytes is the modelled state size serialization applies to.
	StateBytes int64
	// Job names the checkpoint namespace.
	Job string

	last    vclock.Time
	everRan bool
}

// Due reports whether a checkpoint should be taken at virtual time now.
func (pc *Periodic) Due(now vclock.Time) bool {
	if pc.Interval <= 0 {
		return false
	}
	if !pc.everRan {
		return now >= pc.Interval
	}
	return now-pc.last >= pc.Interval
}

// hideFraction is the share of an overlapped snapshot's staging copy (D2H
// plus serialization) hidden behind the next minibatch's compute — CheckFreq
// and the multi-step slices alike; only the remainder stalls the critical
// path. Profile-tuned in the real systems.
const hideFraction = 0.5

// Run takes one checkpoint of w, returning the critical-path stall
// attributed to it. The GPU→CPU copy inside SaveModelState is timed by the
// simulated PCIe link; the store write is timed by the tier. For
// CheckFreq, the call still advances the clock by the full copy time but
// only the un-hidden fraction is attributed as stall — matching how the
// real system hides the copy behind the next minibatch's compute.
func (pc *Periodic) Run(p *vclock.Proc, w *train.Worker) (vclock.Time, error) {
	start := p.Now()
	sp := trace.Of(p.Env()).Begin(start, "ckpt", trace.Rank(w.Rank()), "pc-save",
		"kind", pc.Kind)
	ms, err := w.SaveModelState(p) // D2H copies, PCIe-timed
	if err != nil {
		sp.End(p.Now(), "err", err)
		return 0, err
	}
	// CheckFreq's hideable copy: the D2H just done plus the serialization
	// SaveRank is about to charge.
	copyTime := p.Now() - start + gpu.TransferTime(pc.StateBytes, pc.SerializeBW)
	// PC_disk writes through to the persistent store; every other kind
	// saves to tmpfs and drains to disk off the critical path.
	st := pc.Mem
	if pc.Kind == PCDisk {
		st = pc.Disk
	}
	bytes := w.ModelStateBytes()
	dir := RankDir(pc.Job, pc.Kind.PolicyName(), ms.Iter, ms.Rank)
	if err := SaveRank(p, st, dir, ms, pc.SerializeBW, pc.StateBytes, bytes); err != nil {
		sp.End(p.Now(), "err", err)
		return 0, err
	}
	stall := p.Now() - start
	if pc.Kind == CheckFreq {
		stall -= vclock.Time(float64(copyTime) * hideFraction)
	}
	if pc.Kind != PCDisk {
		pc.drainAsync(dir, bytes)
	}
	pc.last = p.Now()
	pc.everRan = true
	sp.End(p.Now(), "iter", ms.Iter, "stall", stall)
	return stall, nil
}

// drainAsync copies a tmpfs checkpoint to the persistent store in the
// background, off the training critical path.
func (pc *Periodic) drainAsync(dir string, bytes int64) {
	if pc.Disk == nil || pc.Mem == nil {
		return
	}
	env := pc.Mem.env
	env.Go("ckpt-drain", func(dp *vclock.Proc) {
		dsp := trace.Of(env).Begin(dp.Now(), "ckpt", trace.LaneSim, "drain", "dir", dir)
		defer func() { dsp.End(dp.Now()) }()
		for _, suffix := range []string{"/model.bin", "/META"} {
			raw, err := pc.Mem.Read(dp, dir+suffix)
			if err != nil {
				return
			}
			mb := bytes
			if suffix == "/META" {
				mb = 256
			}
			if err := pc.Disk.Write(dp, dir+suffix, raw, mb); err != nil {
				return
			}
		}
	})
}
