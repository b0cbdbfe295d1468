//go:build !amd64

package train

// Without a wide path the Go loops in kernels.go do every element.

func adamWide(w, g, m, v []float32, k *adamConsts) int { return 0 }

func axpyWide(dst, x []float32, a float32) int { return 0 }

func scaleWide(dst, x []float32, a float32) int { return 0 }
