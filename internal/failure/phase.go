package failure

import (
	"fmt"

	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// Phase names a recovery-sensitive window of a rank's lifecycle. Steady
// training is not a phase: phase injections exist to land faults exactly
// where they hurt — while a rank checkpoints, restores, or re-initializes
// its communicators — the overlapping-failure cases SWIFT-style recovery
// must survive.
type Phase int

const (
	// PhaseCheckpoint is entered when a rank starts saving a checkpoint
	// (JIT flush or periodic).
	PhaseCheckpoint Phase = iota
	// PhaseRestore is entered when a rank starts loading checkpointed
	// state during recovery.
	PhaseRestore
	// PhaseCommInit is entered when a rank begins NCCL communicator
	// (re-)initialization.
	PhaseCommInit
	// PhaseEncode is entered when a rank starts Reed-Solomon encoding its
	// state into shelter fragments (the stripe is mid-flight: some hosts
	// may hold fragments of the new generation, others not yet).
	PhaseEncode
	// PhaseReconstruct is entered when a restoring rank starts rebuilding
	// a sheltered stripe from surviving fragments (parity decode).
	PhaseReconstruct
	// PhaseSliceWrite is entered when a rank's multi-step overlapped
	// checkpoint writer starts flushing a shard slice — the generation is
	// partial until the last slice commits.
	PhaseSliceWrite
	// PhaseReconcile is entered when a restoring rank starts replaying
	// retained gradient deltas to advance a multi-step generation's stale
	// slices to the target iteration.
	PhaseReconcile
	// PhaseStageRebuild is entered when a rank starts reconstructing a lost
	// pipeline stage from a neighbor's retained redundancy (checkpoint-free
	// recovery).
	PhaseStageRebuild
)

// String renders the phase.
func (ph Phase) String() string {
	switch ph {
	case PhaseCheckpoint:
		return "checkpoint"
	case PhaseRestore:
		return "restore"
	case PhaseCommInit:
		return "comm-init"
	case PhaseEncode:
		return "rs-encode"
	case PhaseReconstruct:
		return "rs-reconstruct"
	case PhaseSliceWrite:
		return "slice-write"
	case PhaseReconcile:
		return "reconcile"
	case PhaseStageRebuild:
		return "stage-rebuild"
	default:
		return fmt.Sprintf("Phase(%d)", int(ph))
	}
}

// PhaseInjection arms a fault on a phase entry rather than at a wall-clock
// time: "the Nth time any rank (or rank R) begins restoring, fail rank T".
type PhaseInjection struct {
	// Phase is the lifecycle window that triggers the injection.
	Phase Phase
	// Rank filters which rank's phase entry triggers; -1 matches any rank.
	Rank int
	// Occurrence is the 1-based count of matching phase entries to wait
	// for before firing (0 behaves as 1 — fire on the first entry).
	Occurrence int
	// Delay postpones the fault past the phase entry, placing it inside
	// the phase's work rather than at its first instruction.
	Delay vclock.Time
	// Target is the rank the fault lands on; -1 targets the rank whose
	// phase entry triggered it.
	Target int
	// Kind and CommKey describe the fault, as in Injection.
	Kind    Kind
	CommKey string
}

// phaseState tracks one armed PhaseInjection.
type phaseState struct {
	inj   PhaseInjection
	count int
	fired bool
}

// ArmPhase registers phase-triggered injections. NotePhase consults them;
// each fires at most once.
func (in *Injector) ArmPhase(injs ...PhaseInjection) {
	for _, pi := range injs {
		in.phased = append(in.phased, &phaseState{inj: pi})
	}
}

// NotePhase records that rank is entering phase ph. Instrumented code
// (checkpoint save, restore, communicator init) calls it; any armed
// PhaseInjection whose trigger matches fires — after its Delay, in its own
// process, so the phase's own work proceeds and the fault arrives
// mid-phase. Safe to call on a nil injector.
func (in *Injector) NotePhase(rank int, ph Phase) {
	if in == nil {
		return
	}
	trace.Of(in.Env).Instant(in.Env.Now(), "fail", trace.Rank(rank), "phase-note", "phase", ph)
	for _, st := range in.phased {
		if st.fired || st.inj.Phase != ph {
			continue
		}
		if st.inj.Rank >= 0 && st.inj.Rank != rank {
			continue
		}
		st.count++
		want := st.inj.Occurrence
		if want < 1 {
			want = 1
		}
		if st.count < want {
			continue
		}
		st.fired = true
		target := st.inj.Target
		if target < 0 {
			target = rank
		}
		in.After(fmt.Sprintf("phase-injector-%v", ph), st.inj.Delay,
			Injection{Target: target, Kind: st.inj.Kind, CommKey: st.inj.CommKey})
	}
}
