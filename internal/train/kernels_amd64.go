package train

// The wide paths of kernels.go, in kernels_amd64.s. Each does the first
// len(first slice) &^ 3 elements four lanes at a time and returns that
// count. SSE2 is part of every amd64 CPU, so nothing is probed.

//go:noescape
func adamWide(w, g, m, v []float32, k *adamConsts) int

//go:noescape
func axpyWide(dst, x []float32, a float32) int

//go:noescape
func scaleWide(dst, x []float32, a float32) int
