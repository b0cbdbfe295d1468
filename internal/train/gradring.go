package train

import (
	"fmt"
	"math"

	"jitckpt/internal/tensor"
)

// ParamTensorName returns the checkpoint name of a layer's weight shard.
func ParamTensorName(layer int) string {
	return TensorName(fmt.Sprintf("%sL%d.w", TagParamPrefix, layer), 0)
}

// OptMTensorName returns the checkpoint name of a layer's first-moment
// (momentum) optimizer shard.
func OptMTensorName(layer int) string {
	return TensorName(fmt.Sprintf("%sL%d.m", TagOptPrefix, layer), 0)
}

// OptVTensorName returns the checkpoint name of a layer's second-moment
// optimizer shard (Adam only).
func OptVTensorName(layer int) string {
	return TensorName(fmt.Sprintf("%sL%d.v", TagOptPrefix, layer), 0)
}

// GradRing is a bounded host-side ring of synchronized minibatch gradients.
// Entry i holds the post-all-reduce (summed, unscaled) gradient shards of
// minibatch i, keyed by the owning layer's parameter tensor name — exactly
// what the optimizer kernel consumed for that step. The multi-step
// overlapped checkpoint writer reads it back to reconcile snapshot slices
// captured at different iterations (GoCkpt-style): replaying the retained
// gradients through the optimizer update advances a stale slice to the
// generation's target iteration bit-exactly.
type gradRingEntry struct {
	iter  int
	grads map[string]tensor.Vector
}

// GradRing retains the last Capacity minibatch gradients of one rank.
type GradRing struct {
	capacity int
	entries  []gradRingEntry // ordered oldest → newest
}

// NewGradRing returns a ring retaining up to capacity minibatch gradients.
func NewGradRing(capacity int) *GradRing {
	if capacity < 1 {
		capacity = 1
	}
	return &GradRing{capacity: capacity}
}

// Push retains the gradients of one minibatch, evicting the oldest entry
// when full. Re-pushing an iteration already present replaces it (recovery
// re-executes minibatches deterministically, so the payload is identical).
func (r *GradRing) Push(iter int, grads map[string]tensor.Vector) {
	for i := range r.entries {
		if r.entries[i].iter == iter {
			r.entries[i].grads = grads
			return
		}
	}
	r.entries = append(r.entries, gradRingEntry{iter: iter, grads: grads})
	if len(r.entries) > r.capacity {
		r.entries = r.entries[1:]
	}
}

// GradAt returns the retained gradient map of a minibatch, if present.
func (r *GradRing) GradAt(iter int) (map[string]tensor.Vector, bool) {
	for i := range r.entries {
		if r.entries[i].iter == iter {
			return r.entries[i].grads, true
		}
	}
	return nil, false
}

// Reset drops every retained entry (restore paths: the post-restore replay
// re-pushes identical gradients as it re-executes).
func (r *GradRing) Reset() { r.entries = r.entries[:0] }

// EnableGradRing attaches a gradient ring retaining the last capacity
// minibatch gradients; each RunIter pushes its synchronized gradients after
// the optimizer step retires. Requires a device API with the privileged
// zero-time buffer read (statePeeker); the push is free on the virtual
// clock — the gradients were just materialized on-device, and the ring
// models the framework keeping a host-side reference alive.
func (w *Worker) EnableGradRing(capacity int) {
	w.gradRing = NewGradRing(capacity)
}

// GradRing returns the worker's gradient ring (nil when not enabled).
func (w *Worker) GradRing() *GradRing { return w.gradRing }

// GradScale returns the factor the optimizer kernel applies to the summed
// gradient: 1/(D·accum), turning the all-reduced sum into the mean.
func (w *Worker) GradScale() float32 {
	return float32(1) / float32(w.cfg.Topo.D*w.accumFactor())
}

// pushGradRing copies the synchronized gradient shards of the minibatch
// that just retired into the ring, once each: BufData's views die when the
// worker next yields, and the ring keeps them for several minibatches. Runs
// at the minibatch boundary, after the compute stream synchronized, so ls.g
// holds the all-reduced gradient the optimizer consumed.
func (w *Worker) pushGradRing(iter int) {
	pk, ok := w.cfg.API.(statePeeker)
	if !ok {
		return
	}
	grads := make(map[string]tensor.Vector, len(w.layers))
	for _, ls := range w.layers {
		view, err := pk.BufData(ls.g)
		if err != nil {
			return
		}
		grads[ParamTensorName(ls.global)] = view.Clone()
	}
	w.gradRing.Push(iter, grads)
}

// LayerGlobals returns the global indices of the layers this rank owns, in
// pipeline order.
func (w *Worker) LayerGlobals() []int {
	out := make([]int, len(w.layers))
	for i, ls := range w.layers {
		out[i] = ls.global
	}
	return out
}

// ReconcileTensors advances the parameter/optimizer tensors of the given
// global layers inside ms from fromIter to targetIter by replaying retained
// gradients through the exact optimizer update the device kernels run —
// the same float32 operation order, so the reconciled state is bit-exact
// against a run that never went stale. grads(iter) must return the
// synchronized (summed, unscaled) gradient map of that minibatch, keyed by
// parameter tensor name; scale is the worker's GradScale. The tensors are
// mutated in place, so callers pass an owned (cloned/decoded) ModelState.
// It errors cleanly when a needed iteration fell out of the ring.
func ReconcileTensors(ms *ModelState, layers []int, fromIter, targetIter int,
	opt OptimizerSpec, scale float32,
	grads func(iter int) (map[string]tensor.Vector, bool)) error {
	if fromIter > targetIter {
		return fmt.Errorf("train: reconcile backwards %d -> %d", fromIter, targetIter)
	}
	for t := fromIter; t < targetIter; t++ {
		gm, ok := grads(t)
		if !ok {
			return fmt.Errorf("train: gradient ring missing iter %d (cannot reconcile %d -> %d: retained window too short)",
				t, fromIter, targetIter)
		}
		lr := opt.LRAt(t)
		for _, l := range layers {
			g, ok := gm[ParamTensorName(l)]
			if !ok {
				return fmt.Errorf("train: gradient ring iter %d missing layer %d", t, l)
			}
			w := ms.Tensors[ParamTensorName(l)]
			m := ms.Tensors[OptMTensorName(l)]
			if w == nil || m == nil {
				return fmt.Errorf("train: reconcile: state missing layer %d tensors", l)
			}
			switch opt.Kind {
			case Adam:
				v := ms.Tensors[OptVTensorName(l)]
				if v == nil {
					return fmt.Errorf("train: reconcile: state missing layer %d Adam second moment", l)
				}
				// Mirror the adam.step kernel bit for bit (1-based step count).
				b1, b2, eps := opt.Momentum, opt.Beta2, opt.Eps
				tt := float64(t + 1)
				c1 := float32(1 - math.Pow(float64(b1), tt))
				c2 := float32(1 - math.Pow(float64(b2), tt))
				for i := range w {
					gi := g[i] * scale
					m[i] = b1*m[i] + (1-b1)*gi
					v[i] = b2*v[i] + (1-b2)*gi*gi
					mh := m[i] / c1
					vh := v[i] / c2
					w[i] -= lr * mh / (float32(math.Sqrt(float64(vh))) + eps)
				}
			default:
				// Mirror the sgd.step kernel bit for bit.
				beta := opt.Momentum
				for i := range w {
					m[i] = beta*m[i] + g[i]*scale
					w[i] -= lr * m[i]
				}
			}
		}
	}
	return nil
}
