package nccl

import (
	"testing"

	"jitckpt/internal/gpu"
	"jitckpt/internal/vclock"
)

// TestAllReduceAllocBudget pins the steady-state allocation budget of one
// collective. A finished Env cannot be resumed, so the marginal cost per
// 4-rank allreduce round comes from the difference between a long and a
// short complete run — the fixed setup (devices, comms, buffers) cancels.
// After warm-up the engine serves allreduces from its pooled collState and
// request objects, whose events are embedded, so a round allocates nothing.
func TestAllReduceAllocBudget(t *testing.T) {
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			h := newHarness(t, 4)
			bufs := make([]*gpu.Buffer, 4)
			for r := range bufs {
				bufs[r] = mkBuf(t, h.devs[r], []float32{float32(r), 1, 2})
			}
			h.eachRank(func(p *vclock.Proc, r int, comm *Comm) {
				for i := 0; i < rounds; i++ {
					op, err := comm.AllReduce(h.streams[r], bufs[r])
					if err != nil {
						t.Errorf("rank %d: %v", r, err)
						return
					}
					p.Wait(op.Done)
					if op.Err != nil {
						t.Errorf("rank %d op err: %v", r, op.Err)
						return
					}
				}
			})
			if err := h.env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const short, long = 20, 120
	perRound := (measure(long) - measure(short)) / (long - short)
	t.Logf("%.2f allocs per 4-rank allreduce round", perRound)
	// Measured 0. A request, bound method, event or waiter list made per
	// rank and round shows as a whole object.
	const budget = 0.05
	if perRound > budget {
		t.Errorf("one 4-rank allreduce round allocates %.2f objects, budget is %.2f", perRound, budget)
	}
}
