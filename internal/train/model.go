// Package train implements the deep-learning training framework substrate:
// a small but real multi-layer model (every kernel does actual float32
// math), SGD-with-momentum and Adam optimizers, a deterministic synthetic
// data pipeline, and the parallelism schemes the paper's workloads use —
// data parallelism, tensor parallelism, pipeline parallelism, their 3D
// combination, and FSDP-style hybrid sharding (§3.1, Table 2).
//
// The framework is written against cuda.API only, so the same training
// loop runs over a local driver, a device-proxy client, or the
// interception layer — which is precisely the property that makes
// transparent just-in-time checkpointing possible without changing this
// "application" code.
//
// Determinism is load-bearing: two runs with the same seeds produce
// bit-identical parameter and loss trajectories, so the recovery paths can
// be validated against failure-free runs exactly as the paper validates
// "exact floating point match of training losses" (§6.2).
package train

import (
	"fmt"
	"math"

	"jitckpt/internal/cuda"
	"jitckpt/internal/tensor"
	"jitckpt/internal/vclock"
)

// ModelSpec describes the model being trained.
type ModelSpec struct {
	// Layers is the total number of linear+tanh layers.
	Layers int
	// Hidden is the width of every layer (activations are Hidden-long).
	Hidden int
	// Seed drives deterministic parameter initialization; every
	// data-parallel replica initializes identically from it.
	Seed uint64
	// ParamBytesPerGPU is the modelled per-GPU size of parameter state in
	// bytes (paper-scale timing); the real float payload stays small.
	ParamBytesPerGPU int64
	// OptBytesPerGPU is the modelled per-GPU optimizer state size.
	OptBytesPerGPU int64
}

// Validate checks the spec for consistency.
func (m ModelSpec) Validate() error {
	if m.Layers <= 0 || m.Hidden <= 0 {
		return fmt.Errorf("train: model needs positive layers/hidden, got %d/%d", m.Layers, m.Hidden)
	}
	return nil
}

// OptimizerKind selects the parameter update rule.
type OptimizerKind int

const (
	// SGDMomentum is SGD with classical momentum.
	SGDMomentum OptimizerKind = iota
	// Adam is the Adam optimizer (the paper's jobs overwhelmingly use it).
	Adam
)

// OptimizerSpec configures the optimizer.
type OptimizerSpec struct {
	Kind OptimizerKind
	LR   float32
	// Momentum is β for SGDMomentum, β1 for Adam.
	Momentum float32
	// Beta2 and Eps are Adam-only.
	Beta2 float32
	Eps   float32
	// WarmupIters linearly ramps the learning rate from zero (a stand-in
	// for the LR schedulers real jobs run; it is host CPU state that a
	// checkpoint must capture).
	WarmupIters int
}

// DefaultOptimizer returns Adam with common hyperparameters.
func DefaultOptimizer() OptimizerSpec {
	return OptimizerSpec{Kind: Adam, LR: 1e-2, Momentum: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// LRAt returns the learning rate for an iteration (the scheduler).
func (o OptimizerSpec) LRAt(iter int) float32 {
	if o.WarmupIters > 0 && iter < o.WarmupIters {
		return o.LR * float32(iter+1) / float32(o.WarmupIters)
	}
	return o.LR
}

// StepTime models per-layer GPU compute durations, calibrated per workload
// so simulated minibatch times match Table 2's models.
type StepTime struct {
	FwdPerLayer vclock.Time
	BwdPerLayer vclock.Time
	OptPerLayer vclock.Time
}

// Uniform builds a StepTime that splits a target minibatch compute time
// across layers with the usual 1:2:0.3 forward:backward:optimizer ratio.
func Uniform(minibatch vclock.Time, layers int) StepTime {
	unit := float64(minibatch) / float64(layers) / 3.3
	return StepTime{
		FwdPerLayer: vclock.Time(unit),
		BwdPerLayer: vclock.Time(2 * unit),
		OptPerLayer: vclock.Time(0.3 * unit),
	}
}

// Kernels returns the kernel registry shared by client and device-proxy
// server: every mathematical operation the training loop launches.
// All kernels are deterministic and write (rather than accumulate) their
// outputs, so a §4.1 validation replay is idempotent. Each checks its
// launch's shape before touching memory: a buffer that does not hold exactly
// the elements the launch reads is an error, never a panic.
func Kernels() cuda.Registry {
	return cuda.Registry{
		// linear.fwd: z[r] = W(r×c) · h(c). IArgs: rows, cols.
		"linear.fwd": func(a cuda.KernelArgs) error {
			if err := arity("linear.fwd", a, 3, 2, 0); err != nil {
				return err
			}
			rows, cols := int(a.IArgs[0]), int(a.IArgs[1])
			if err := lens("linear.fwd", a.Bufs, rows*cols, cols, rows); err != nil {
				return err
			}
			linearFwd(a.Bufs[0], a.Bufs[1], a.Bufs[2])
			return nil
		},
		// tanh.fwd: h[i] = tanh(z[i]).
		"tanh.fwd": func(a cuda.KernelArgs) error {
			if err := elementwise("tanh.fwd", a, 2, 0, 0); err != nil {
				return err
			}
			z, h := a.Bufs[0], a.Bufs[1]
			for i := range z {
				h[i] = tensor.Tanh(z[i])
			}
			return nil
		},
		// tanh.bwd: dz[i] = dh[i] * (1 - h[i]^2).
		"tanh.bwd": func(a cuda.KernelArgs) error {
			if err := elementwise("tanh.bwd", a, 3, 0, 0); err != nil {
				return err
			}
			dh, h, dz := a.Bufs[0], a.Bufs[1], a.Bufs[2]
			for i := range dz {
				dz[i] = dh[i] * tensor.TanhPrime(h[i])
			}
			return nil
		},
		// linear.bwd.dw: dW(r×c) = dz(r) ⊗ h(c) (write, not accumulate).
		// IArgs: rows, cols.
		"linear.bwd.dw": func(a cuda.KernelArgs) error {
			if err := arity("linear.bwd.dw", a, 3, 2, 0); err != nil {
				return err
			}
			rows, cols := int(a.IArgs[0]), int(a.IArgs[1])
			if err := lens("linear.bwd.dw", a.Bufs, rows, cols, rows*cols); err != nil {
				return err
			}
			dz, h, dw := a.Bufs[0], a.Bufs[1], a.Bufs[2]
			for r, dzr := range dz {
				scaleInto(dw[r*cols:(r+1)*cols], h, dzr)
			}
			return nil
		},
		// linear.bwd.dx: dhIn(c) = W(r×c)ᵀ · dz(r), summed over r in order.
		// IArgs: rows, cols.
		"linear.bwd.dx": func(a cuda.KernelArgs) error {
			if err := arity("linear.bwd.dx", a, 3, 2, 0); err != nil {
				return err
			}
			rows, cols := int(a.IArgs[0]), int(a.IArgs[1])
			if err := lens("linear.bwd.dx", a.Bufs, rows*cols, rows, cols); err != nil {
				return err
			}
			w, dz, dhIn := a.Bufs[0], a.Bufs[1], a.Bufs[2]
			clear(dhIn)
			for r, dzr := range dz {
				axpy(dhIn, w[r*cols:(r+1)*cols], dzr)
			}
			return nil
		},
		// mse.loss: loss[0] = mean((h-y)^2); dh[i] = 2(h[i]-y[i])/n.
		"mse.loss": func(a cuda.KernelArgs) error {
			if err := arity("mse.loss", a, 4, 0, 0); err != nil {
				return err
			}
			n := len(a.Bufs[0])
			if err := lens("mse.loss", a.Bufs, n, n, n, 1); err != nil {
				return err
			}
			h, y, dh, loss := a.Bufs[0], a.Bufs[1], a.Bufs[2], a.Bufs[3]
			fn := float32(n)
			var sum float32
			for i := range h {
				d := h[i] - y[i]
				sum += d * d
				dh[i] = 2 * d / fn
			}
			loss[0] = sum / fn
			return nil
		},
		// slice.copy: part = full[off : off+len(part)]. IArgs: off.
		"slice.copy": func(a cuda.KernelArgs) error {
			if err := arity("slice.copy", a, 2, 1, 0); err != nil {
				return err
			}
			full, part := a.Bufs[0], a.Bufs[1]
			off := a.IArgs[0]
			if off < 0 || off > int64(len(full)-len(part)) {
				return fmt.Errorf("slice.copy: %d elements at offset %d do not fit a buffer of %d", len(part), off, len(full))
			}
			copy(part, full[off:])
			return nil
		},
		// sgd.step: m = β·m + g·scale; w -= lr·m. FArgs: lr, β, scale.
		"sgd.step": func(a cuda.KernelArgs) error {
			if err := elementwise("sgd.step", a, 3, 0, 3); err != nil {
				return err
			}
			w, g, m := a.Bufs[0], a.Bufs[1], a.Bufs[2]
			lr, beta, scale := a.FArgs[0], a.FArgs[1], a.FArgs[2]
			for i := range w {
				m[i] = beta*m[i] + g[i]*scale
				w[i] -= lr * m[i]
			}
			return nil
		},
		// adam.step: standard Adam with bias correction.
		// FArgs: lr, β1, β2, eps, scale. IArgs: t (1-based step).
		"adam.step": func(a cuda.KernelArgs) error {
			if err := elementwise("adam.step", a, 4, 1, 5); err != nil {
				return err
			}
			lr, b1, b2, eps, scale := a.FArgs[0], a.FArgs[1], a.FArgs[2], a.FArgs[3], a.FArgs[4]
			t := float64(a.IArgs[0])
			k := adamConsts{
				scale: scale, b1: b1, omb1: 1 - b1, b2: b2, omb2: 1 - b2,
				c1: float32(1 - math.Pow(float64(b1), t)),
				c2: float32(1 - math.Pow(float64(b2), t)),
				lr: lr, eps: eps,
			}
			w, g, m, v := a.Bufs[0], a.Bufs[1], a.Bufs[2], a.Bufs[3]
			adamGo(w, g, m, v, &k, adamWide(w, g, m, v, &k))
			return nil
		},
		// acc.add: dst[i] += src[i]. Gradient accumulation across
		// microbatches (elastic degraded mode). This is the one kernel that
		// accumulates rather than writes; the accumulator is seeded by copy
		// on the first microbatch, and the elastic policies that use it run
		// user-level JIT checkpointing, never the transparent replay path,
		// so §4.1 validation idempotence is unaffected.
		"acc.add": func(a cuda.KernelArgs) error {
			if err := elementwise("acc.add", a, 2, 0, 0); err != nil {
				return err
			}
			dst, src := a.Bufs[0], a.Bufs[1]
			for i := range dst {
				dst[i] += src[i]
			}
			return nil
		},
		// zero: fill with zeros.
		"zero": func(a cuda.KernelArgs) error {
			if err := arity("zero", a, 1, 0, 0); err != nil {
				return err
			}
			clear(a.Bufs[0])
			return nil
		},
	}
}

// arity refuses a launch that carries fewer buffers, int or float arguments
// than its kernel reads.
func arity(kernel string, a cuda.KernelArgs, bufs, iargs, fargs int) error {
	if len(a.Bufs) < bufs || len(a.IArgs) < iargs || len(a.FArgs) < fargs {
		return fmt.Errorf("%s: launched with %d buffers, %d int and %d float arguments; it reads %d, %d and %d",
			kernel, len(a.Bufs), len(a.IArgs), len(a.FArgs), bufs, iargs, fargs)
	}
	return nil
}

// lens refuses a launch unless bufs[i] holds exactly want[i] elements.
func lens(kernel string, bufs []tensor.Vector, want ...int) error {
	for i, n := range want {
		if len(bufs[i]) != n {
			return fmt.Errorf("%s: buffer %d holds %d elements, the launch reads %d", kernel, i, len(bufs[i]), n)
		}
	}
	return nil
}

// elementwise checks an elementwise kernel's launch: its arguments, and the
// buffers it reads all as long as the first.
func elementwise(kernel string, a cuda.KernelArgs, bufs, iargs, fargs int) error {
	if err := arity(kernel, a, bufs, iargs, fargs); err != nil {
		return err
	}
	for i, b := range a.Bufs[1:bufs] {
		if len(b) != len(a.Bufs[0]) {
			return fmt.Errorf("%s: buffer %d holds %d elements, buffer 0 holds %d", kernel, i+1, len(b), len(a.Bufs[0]))
		}
	}
	return nil
}

// Dataset is the deterministic synthetic data pipeline: sample i is a pure
// function of (seed, i), so any rank can regenerate any sample — which is
// how a restarted job resumes mid-epoch with no data-state checkpointing
// beyond the iteration number.
type Dataset struct {
	Seed   uint64
	Hidden int
}

// SampleInto writes input x and target y for global sample index idx into
// the caller-provided vectors (each of length Hidden), letting steady-state
// data loading reuse one scratch pair instead of allocating per microbatch.
func (ds Dataset) SampleInto(idx int, x, y tensor.Vector) {
	rng := tensor.NewRNG(ds.Seed ^ (uint64(idx+1) * 0x9E3779B97F4A7C15))
	rng.FillUniform(x, 1)
	for i := range y {
		// A fixed smooth target function keeps the regression learnable.
		y[i] = tensor.Tanh(x[i]*0.7 + 0.1*x[(i+1)%len(x)])
	}
}

// InitShard deterministically initializes the weight shard for a layer:
// rows [rowOff, rowOff+rows) of layer l's Hidden×Hidden matrix. Every
// data-parallel replica computes identical values, which is the state
// redundancy JIT checkpointing recovers from.
func InitShard(spec ModelSpec, layer, rowOff, rows int) tensor.Vector {
	out := tensor.NewVector(rows * spec.Hidden)
	scale := float32(1.0 / math.Sqrt(float64(spec.Hidden)))
	for r := 0; r < rows; r++ {
		globalRow := rowOff + r
		rng := tensor.NewRNG(spec.Seed ^ (uint64(layer+1) << 32) ^ uint64(globalRow+1)*0x2545F4914F6CDD1D)
		row := out[r*spec.Hidden : (r+1)*spec.Hidden]
		rng.FillUniform(row, scale)
	}
	return out
}
