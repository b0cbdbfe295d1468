package train

import "math"

// The elementwise kernels run in two paths that compute the same bits: a
// wide one (kernels_amd64.s, four float32 lanes in SSE2) over the first
// len &^ 3 elements, and the Go loop below over the rest, or over all of
// them where there is no wide path (kernels_other.go). Each lane performs the
// Go expression's IEEE operations in the Go expression's order: no fused
// multiply-add, no reassociation, and no sum split across lanes, so a
// recovered run still matches a failure-free one bit for bit.
// TestKernelsMatchGo and FuzzKernelsMatchGo hold the two paths to that.
//
// Every *Wide function reads the length of its first slice only; the
// kernels in Kernels check that the other slices are as long before calling.

// linearFwd sets z[r] to row r of the len(z)×len(h) matrix w dotted with h.
// It stays Go: a lane-split dot product would reassociate the sum. Four rows
// run at once in four accumulators, so h is loaded once per four rows while
// each row's sum still runs over c in order.
func linearFwd(w, h, z []float32) {
	cols := len(h)
	r := 0
	for ; r+4 <= len(z); r += 4 {
		w0 := w[r*cols:][:cols]
		w1 := w[(r+1)*cols:][:cols]
		w2 := w[(r+2)*cols:][:cols]
		w3 := w[(r+3)*cols:][:cols]
		var s0, s1, s2, s3 float32
		for c, hc := range h {
			s0 += w0[c] * hc
			s1 += w1[c] * hc
			s2 += w2[c] * hc
			s3 += w3[c] * hc
		}
		z[r], z[r+1], z[r+2], z[r+3] = s0, s1, s2, s3
	}
	for ; r < len(z); r++ {
		row := w[r*cols:][:cols]
		var s float32
		for c, hc := range h {
			s += row[c] * hc
		}
		z[r] = s
	}
}

// adamConsts are one adam.step launch's loop invariants, in the order
// adamWide reads them.
type adamConsts struct {
	scale, b1, omb1, b2, omb2, c1, c2, lr, eps float32
}

// optimizerUpdate applies one step of opt to w at learning rate lr, with m
// and, under Adam, v its moments and g·scale its gradient. It is the one copy
// of each update rule: the sgd.step and adam.step kernels and
// ReconcileTensors all run it. SGD with momentum: m = β·m + g·scale;
// w -= lr·m. Adam: bias-corrected at 1-based step t, adamWide then adamGo.
// g, m and v must be as long as w, since adamWide reads w's length only.
func optimizerUpdate(opt OptimizerSpec, lr, scale float32, t int64, w, g, m, v []float32) {
	if opt.Kind != Adam {
		for i := range w {
			m[i] = opt.Momentum*m[i] + g[i]*scale
			w[i] -= lr * m[i]
		}
		return
	}
	b1, b2 := opt.Momentum, opt.Beta2
	k := adamConsts{
		scale: scale, b1: b1, omb1: 1 - b1, b2: b2, omb2: 1 - b2,
		c1: float32(1 - math.Pow(float64(b1), float64(t))),
		c2: float32(1 - math.Pow(float64(b2), float64(t))),
		lr: lr, eps: opt.Eps,
	}
	adamGo(w, g, m, v, &k, adamWide(w, g, m, v, &k))
}

// adamGo applies one Adam update to w[from:], with m and v its moments:
// optimizerUpdate runs it from where adamWide stopped.
func adamGo(w, g, m, v []float32, k *adamConsts, from int) {
	for i := from; i < len(w); i++ {
		gi := g[i] * k.scale
		m[i] = k.b1*m[i] + k.omb1*gi
		v[i] = k.b2*v[i] + k.omb2*gi*gi
		mh := m[i] / k.c1
		vh := v[i] / k.c2
		w[i] -= k.lr * mh / (float32(math.Sqrt(float64(vh))) + k.eps)
	}
}

// axpy adds x[i]*a to dst[i].
func axpy(dst, x []float32, a float32) {
	n := axpyWide(dst, x, a)
	axpyGo(dst[n:], x[n:len(dst)], a)
}

func axpyGo(dst, x []float32, a float32) {
	for i := range dst {
		dst[i] += x[i] * a
	}
}

// scaleInto sets dst[i] to a*x[i].
func scaleInto(dst, x []float32, a float32) {
	n := scaleWide(dst, x, a)
	scaleGo(dst[n:], x[n:len(dst)], a)
}

func scaleGo(dst, x []float32, a float32) {
	for i := range dst {
		dst[i] = a * x[i]
	}
}
