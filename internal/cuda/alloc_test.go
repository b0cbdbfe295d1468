package cuda

import (
	"testing"

	"jitckpt/internal/vclock"
)

// TestEventOpsAllocBudget pins the steady-state allocation cost of the
// Figure 3 pair — EventRecord on one stream, StreamWaitEvent on another —
// the way nccl's TestAllReduceAllocBudget pins a collective: the difference
// between a long and a short complete run, so the fixed setup cancels.
func TestEventOpsAllocBudget(t *testing.T) {
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			r := newRig(t, nil)
			r.inProc(t, func(p *vclock.Proc) {
				s, _ := r.drv.StreamCreate(p)
				ev, _ := r.drv.EventCreate(p)
				for i := 0; i < rounds; i++ {
					if err := r.drv.EventRecord(p, ev, DefaultStream); err != nil {
						t.Error(err)
					}
					if err := r.drv.StreamWaitEvent(p, s, ev); err != nil {
						t.Error(err)
					}
				}
				if err := r.drv.DeviceSynchronize(p); err != nil {
					t.Error(err)
				}
			})
		})
	}
	const short, long = 50, 250
	perPair := (measure(long) - measure(short)) / (long - short)
	t.Logf("%.2f allocs per EventRecord + StreamWaitEvent", perPair)
	// Measured 6, before and after the stream executor became a callback
	// process: per call the op, its one closure (Exec) and its Done event.
	// What each op waits for is a field of the op, not a second closure.
	const budget = 6.5
	if perPair > budget {
		t.Errorf("one EventRecord + StreamWaitEvent pair allocates %.2f objects, budget is %.1f", perPair, budget)
	}
}
