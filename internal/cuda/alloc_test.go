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
	// Measured 0. The record op is the event's own, reused once it has
	// completed and nothing waits on it; the wait op is pooled; both embed
	// their Done event. An op, closure or event made per call shows as a
	// whole object.
	const budget = 0.05
	if perPair > budget {
		t.Errorf("one EventRecord + StreamWaitEvent pair allocates %.2f objects, budget is %.2f", perPair, budget)
	}
}
