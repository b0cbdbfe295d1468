package intercept

import (
	"fmt"

	"jitckpt/internal/cuda"
	"jitckpt/internal/replay"
	"jitckpt/internal/vclock"
)

// ValidationResult reports the outcome of a replay-log correctness check.
type ValidationResult struct {
	OK        bool
	Buffers   int
	Mismatch  []cuda.Buf // virtual handles whose checksums diverged
	CallCount int
}

// Validate performs the §4.1 replay-log correctness verification: it
// checksums every GPU buffer, re-executes the current minibatch's recorded
// device APIs, checksums again, and compares. A match proves the replay
// log captures every input that influences GPU state (no implicit
// host-to-device communication bypassed the interception).
//
// It must be called at the end of the backward pass, just before the
// optimizer step, on every rank of the job at the same iteration — the
// replayed collectives rendezvous across ranks exactly like the originals.
// Kernels in this repository are deterministic and write (not accumulate)
// their outputs, which is the moral equivalent of the paper configuring
// CUDA for deterministic operations during the validation minibatch.
func (l *Layer) Validate(p *vclock.Proc) (ValidationResult, error) {
	res := ValidationResult{CallCount: len(l.log.Minibatch)}
	// The host issues the whole minibatch ahead of the GPU; drain the
	// device so the "before" checksums reflect the end-of-backward state
	// the paper's validation compares (the optimizer launches have not
	// been issued yet at the pre-optimizer hook).
	if err := l.DeviceSynchronize(p); err != nil {
		return res, fmt.Errorf("intercept: pre-validation sync: %w", err)
	}
	before := make(map[cuda.Buf]uint64, len(l.bufMeta))
	for _, info := range l.VirtualBufs() {
		sum, err := l.BufChecksum(p, info.Handle)
		if err != nil {
			return res, fmt.Errorf("intercept: pre-replay checksum of %v: %w", info.Handle, err)
		}
		before[info.Handle] = sum
	}
	res.Buffers = len(before)

	// Re-execute the minibatch log against the inner API with the current
	// mappings (a clone: objects the replay re-creates must not rebind the
	// application's handles). The replayed calls are not re-recorded.
	if err := replay.Apply(p, l.inner, l.log.Minibatch, l.handles.Clone(), replay.Options{}); err != nil {
		return res, fmt.Errorf("intercept: validation replay: %w", err)
	}
	if err := l.inner.DeviceSynchronize(p); err != nil {
		return res, fmt.Errorf("intercept: validation sync: %w", err)
	}

	for _, info := range l.VirtualBufs() {
		sum, err := l.BufChecksum(p, info.Handle)
		if err != nil {
			return res, fmt.Errorf("intercept: post-replay checksum of %v: %w", info.Handle, err)
		}
		if sum != before[info.Handle] {
			res.Mismatch = append(res.Mismatch, info.Handle)
		}
	}
	res.OK = len(res.Mismatch) == 0
	return res, nil
}
