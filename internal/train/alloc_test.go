package train

import (
	"fmt"
	"runtime"
	"testing"

	"jitckpt/internal/vclock"
)

// TestIterationAllocBudget pins the steady-state allocation budget of one
// data-parallel training iteration (2 ranks). Launch parameters are built
// once in Setup, minibatch samples land in per-worker scratch vectors, and
// the driver/NCCL layers serve requests from pools — so the marginal cost
// of an iteration is a small constant, not proportional to layers × ranks.
// Measured as a long-minus-short complete-run delta because a finished Env
// cannot be resumed; the fixed setup cost cancels.
func TestIterationAllocBudget(t *testing.T) {
	measure := func(iters int) float64 {
		return testing.AllocsPerRun(5, func() {
			j := newJob(t, Topology{D: 2, P: 1, T: 1}, defaultModel(), DefaultOptimizer())
			for i, w := range j.workers {
				i, w := i, w
				j.env.Go(fmt.Sprintf("rank%d", i), func(p *vclock.Proc) {
					if err := w.Setup(p, 0); err != nil {
						t.Errorf("rank %d setup: %v", i, err)
						return
					}
					if err := w.RunIters(p, iters); err != nil {
						t.Errorf("rank %d: %v", i, err)
					}
				})
			}
			if err := j.env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const short, long = 20, 120
	perIter := (measure(long) - measure(short)) / (long - short)
	t.Logf("%.2f allocs per 2-rank training iteration", perIter)
	// Measured 2.12 for 2 ranks (forward + backward + allreduce +
	// optimizer across 2 layers): each rank's loss read-back, whose copy is
	// the caller's. Launch parameters are prebuilt, and request objects,
	// completion events and waiter lists are pooled or embedded, so nothing
	// else is made per iteration; the budget is the measurement plus 10 %.
	const budget = 2.4
	if perIter > budget {
		t.Errorf("one 2-rank training iteration allocates %.2f objects, budget is %.1f", perIter, budget)
	}
}

// TestBoundaryReadsCopyOnce pins what the privileged boundary reads cost in
// bytes, as runtime.MemStats.TotalAlloc deltas: PeekModelState hands out
// device views (a map and names, no tensor bytes), and pushGradRing copies
// the gradients the ring keeps exactly once.
func TestBoundaryReadsCopyOnce(t *testing.T) {
	model := ModelSpec{Layers: 4, Hidden: 128, Seed: 42, ParamBytesPerGPU: 1 << 24, OptBytesPerGPU: 1 << 25}
	j := newJob(t, Topology{D: 1, P: 1, T: 1}, model, DefaultOptimizer())
	w := j.workers[0]
	w.EnableGradRing(2)
	j.env.Go("rank0", func(p *vclock.Proc) {
		if err := w.Setup(p, 0); err != nil {
			t.Error(err)
			return
		}
		if err := w.RunIters(p, 3); err != nil { // fills the ring
			t.Error(err)
			return
		}
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ms, err := w.PeekModelState()
		runtime.ReadMemStats(&m1)
		w.pushGradRing(w.iter)
		runtime.ReadMemStats(&m2)
		if err != nil {
			t.Error(err)
			return
		}
		tensorBytes := uint64(4 * len(ms.Tensors[ParamTensorName(0)]))
		t.Logf("peek: %d bytes (one tensor is %d); ring push: %d bytes", m1.TotalAlloc-m0.TotalAlloc, tensorBytes, m2.TotalAlloc-m1.TotalAlloc)
		if peek := m1.TotalAlloc - m0.TotalAlloc; peek > 4<<10 {
			t.Errorf("PeekModelState allocates %d bytes; one tensor is %d, so it copied device memory", peek, tensorBytes)
		}
		kept, _ := w.gradRing.GradAt(w.iter)
		var gradBytes uint64
		for _, g := range kept {
			gradBytes += uint64(4 * len(g))
		}
		if push := m2.TotalAlloc - m1.TotalAlloc; push > gradBytes+4<<10 {
			t.Errorf("pushGradRing allocates %d bytes to keep %d bytes of gradients", push, gradBytes)
		}
	})
	if err := j.env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPeekModelStateAllocBudget pins what PeekModelState allocates in
// objects: the ModelState and its map, whatever the layer count. The peer
// replicator and the pipe-free keeper peek at every minibatch boundary, so
// a name built per tensor there would cost every boundary of every rank;
// the names are built once, with the model-state list, at Setup.
func TestPeekModelStateAllocBudget(t *testing.T) {
	for _, layers := range []int{2, 32} {
		model := defaultModel()
		model.Layers = layers
		j := newJob(t, Topology{D: 1, P: 1, T: 1}, model, DefaultOptimizer())
		w := j.workers[0]
		var allocs float64
		j.env.Go("rank0", func(p *vclock.Proc) {
			if err := w.Setup(p, 0); err != nil {
				t.Error(err)
				return
			}
			if err := w.RunIters(p, 1); err != nil {
				t.Error(err)
				return
			}
			allocs = testing.AllocsPerRun(20, func() {
				if _, err := w.PeekModelState(); err != nil {
					t.Error(err)
				}
			})
		})
		if err := j.env.Run(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%d layers, %d tensors: PeekModelState allocates %.0f objects", layers, 3*layers, allocs)
		// Measured 3 at 2 layers and 5 at 32: the ModelState, and a map
		// whose size hint outgrows one group. Building each name at the
		// peek, six strings a layer, costs 21 and 300.
		const budget = 6
		if allocs > budget {
			t.Errorf("%d layers: PeekModelState allocates %.0f objects, budget is %d whatever the layer count", layers, allocs, budget)
		}
	}
}
