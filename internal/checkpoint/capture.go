package checkpoint

import (
	"jitckpt/internal/gpu"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// StatePeeker is the slice of train.Worker an overlapped capture needs: a
// zero-time privileged read of the current model/optimizer state, whose
// tensors are a view of device memory valid until the caller next yields.
type StatePeeker interface {
	PeekModelState() (*train.ModelState, error)
}

// CaptureStats counts what a tier's captures did, summed over its ranks.
type CaptureStats struct {
	// Offers counts capture attempts; Skips those dropped because the
	// previous transfer was still in flight or the peek failed; Aborted
	// those abandoned because the owner device died mid-staging.
	Offers, Skips, Aborted int
}

// Capture drives one rank's overlapped per-iteration state capture for an
// in-memory tier (the peer shelter's replicator, the pipe-free keeper): peek
// the post-optimizer image at the minibatch boundary in zero time, then
// stage and ship it in a background process that overlaps the next
// minibatch, adding no critical-path stall. If the previous transfer is
// still in flight the offer is skipped — the tier ages one extra iteration
// rather than stalling training (the Checkmate trade).
type Capture struct {
	Env *vclock.Env
	// Stats is the owning tier's shared counter block.
	Stats *CaptureStats
	Rank  int
	// Dev is the owner device, checked after staging; nil skips the check.
	Dev *gpu.Device
	// Bytes is the modelled state size and D2HBW the PCIe staging bandwidth
	// charged before Ship runs.
	Bytes int64
	D2HBW float64
	// Cat and Span name the trace span around one capture; Proc names its
	// background process.
	Cat, Span, Proc string
	// Take runs at the peek, in zero time and before anything yields, while
	// ms's tensors are still a view of device memory: it encodes or copies
	// what the tier keeps and returns the ship that moves that into the
	// tier once staged, charging its own link and codec time on p. A nil
	// ship skips the offer.
	Take func(ms *train.ModelState) (ship func(p *vclock.Proc))

	busy bool
}

// Offer captures w's state and ships it in the background, returning
// immediately. Call it right after RunIter returns: the compute stream is
// synchronized, so the peek sees exactly the post-optimizer image, which
// Take turns into the tier's own bytes before the next minibatch can
// change it; ms.Iter = N+1 means "state at the start of minibatch N+1",
// the invariant every checkpoint tier records.
func (c *Capture) Offer(w StatePeeker) {
	c.Stats.Offers++
	if c.busy {
		c.Stats.Skips++
		return
	}
	ms, err := w.PeekModelState()
	var ship func(p *vclock.Proc)
	if err == nil {
		ship = c.Take(ms)
	}
	if ship == nil {
		c.Stats.Skips++
		return
	}
	iter := ms.Iter
	c.busy = true
	c.Env.Go(c.Proc, func(p *vclock.Proc) {
		defer func() { c.busy = false }()
		sp := trace.Of(c.Env).Begin(p.Now(), c.Cat, trace.Rank(c.Rank), c.Span, "iter", iter)
		defer func() { sp.End(p.Now()) }()
		// Stage the state through host memory (PCIe D2H), overlapped with
		// the next minibatch's compute.
		if c.D2HBW > 0 {
			p.Sleep(gpu.TransferTime(c.Bytes, c.D2HBW))
		}
		// If the owner died mid-staging, the image never fully left the
		// device: abandon it. Once staged, the transfer completes even if
		// the owner dies — the bytes live in host memory.
		if c.Dev != nil && !c.Dev.Accessible() {
			c.Stats.Aborted++
			trace.Of(c.Env).Instant(p.Now(), c.Cat, trace.Rank(c.Rank), "capture-abort", "iter", iter)
			return
		}
		ship(p)
	})
}
