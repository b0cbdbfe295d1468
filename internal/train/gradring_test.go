package train

import (
	"fmt"
	"strings"
	"testing"

	"jitckpt/internal/tensor"
	"jitckpt/internal/vclock"
)

func cloneState(ms *ModelState) *ModelState {
	out := &ModelState{Iter: ms.Iter, Rank: ms.Rank, Tensors: make(map[string]tensor.Vector, len(ms.Tensors))}
	for n, v := range ms.Tensors {
		out.Tensors[n] = v.Clone()
	}
	return out
}

// ringRun trains one job with a gradient ring on every worker, saving each
// rank's state at iteration mid and at iteration end.
func ringRun(t *testing.T, topo Topology, opt OptimizerSpec, ringCap, mid, end int) (stale, final []*ModelState, rings []*GradRing, scale float32) {
	t.Helper()
	j := newJob(t, topo, defaultModel(), opt)
	stale = make([]*ModelState, len(j.workers))
	final = make([]*ModelState, len(j.workers))
	rings = make([]*GradRing, len(j.workers))
	for i, w := range j.workers {
		i, w := i, w
		w.EnableGradRing(ringCap)
		j.env.Go(fmt.Sprintf("rank%d", i), func(p *vclock.Proc) {
			if err := w.Setup(p, 0); err != nil {
				t.Errorf("rank %d setup: %v", i, err)
				return
			}
			if err := w.RunIters(p, mid); err != nil {
				t.Errorf("rank %d: %v", i, err)
				return
			}
			ms, err := w.SaveModelState(p)
			if err != nil {
				t.Errorf("rank %d save: %v", i, err)
				return
			}
			stale[i] = cloneState(ms)
			if err := w.RunIters(p, end-mid); err != nil {
				t.Errorf("rank %d: %v", i, err)
				return
			}
			if final[i], err = w.SaveModelState(p); err != nil {
				t.Errorf("rank %d save: %v", i, err)
			}
			rings[i] = w.GradRing()
		})
	}
	if err := j.env.Run(); err != nil {
		t.Fatal(err)
	}
	return stale, final, rings, j.workers[0].GradScale()
}

// TestGradRingReconcileBitExact is the gradient-ring property test: for
// every staleness k ∈ {1..ring capacity}, replaying k retained gradients
// through ReconcileTensors advances a k-iterations-old state to bit-exact
// equality with the oracle (continuously trained) state.
func TestGradRingReconcileBitExact(t *testing.T) {
	const ringCap, end = 6, 14
	opts := map[string]OptimizerSpec{
		"adam":        DefaultOptimizer(),
		"adam-warmup": {Kind: Adam, LR: 1e-2, Momentum: 0.9, Beta2: 0.999, Eps: 1e-8, WarmupIters: 10},
		"sgd":         {Kind: SGDMomentum, LR: 0.05, Momentum: 0.9},
	}
	for name, opt := range opts {
		opt := opt
		t.Run(name, func(t *testing.T) {
			for k := 1; k <= ringCap; k++ {
				stale, final, rings, scale := ringRun(t, Topology{D: 2, P: 1, T: 1}, opt, ringCap, end-k, end)
				for r := range stale {
					got := cloneState(stale[r])
					layers := []int{0, 1}
					if err := ReconcileTensors(got, layers, end-k, end, opt, scale, rings[r].GradAt); err != nil {
						t.Fatalf("k=%d rank %d: %v", k, r, err)
					}
					for tn, want := range final[r].Tensors {
						if !got.Tensors[tn].Equal(want) {
							t.Fatalf("k=%d rank %d tensor %s not bit-exact after reconcile", k, r, tn)
						}
					}
				}
			}
		})
	}
}

// TestGradRingTooShortErrorsCleanly checks that reconciling across more
// steps than the ring retains fails with a clear error naming the missing
// iteration, instead of producing silently wrong state.
func TestGradRingTooShortErrorsCleanly(t *testing.T) {
	const ringCap, end = 3, 12
	k := ringCap + 2
	stale, _, rings, scale := ringRun(t, Topology{D: 1, P: 1, T: 1}, DefaultOptimizer(), ringCap, end-k, end)
	got := cloneState(stale[0])
	err := ReconcileTensors(got, []int{0, 1}, end-k, end, DefaultOptimizer(), scale, rings[0].GradAt)
	if err == nil {
		t.Fatal("reconciling beyond the ring window must fail")
	}
	if !strings.Contains(err.Error(), "gradient ring missing iter") {
		t.Fatalf("unclear error: %v", err)
	}
}

// TestGradRingEvictionAndReplace covers the ring mechanics directly.
func TestGradRingEvictionAndReplace(t *testing.T) {
	r := NewGradRing(2)
	mk := func(x float32) map[string]tensor.Vector {
		return map[string]tensor.Vector{"g": {x}}
	}
	r.Push(0, mk(0))
	r.Push(1, mk(1))
	r.Push(2, mk(2))
	if _, ok := r.GradAt(0); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	if g, ok := r.GradAt(1); !ok || g["g"][0] != 1 {
		t.Fatal("iter 1 lost")
	}
	r.Push(2, mk(7))
	if g, _ := r.GradAt(2); g["g"][0] != 7 {
		t.Fatal("re-push did not replace")
	}
	if len(r.entries) != 2 || r.capacity != 2 {
		t.Fatalf("len=%d cap=%d", len(r.entries), r.capacity)
	}
	r.Reset()
	if len(r.entries) != 0 {
		t.Fatal("reset did not clear")
	}
	if NewGradRing(0).capacity != 1 {
		t.Fatal("capacity floor missing")
	}
}
