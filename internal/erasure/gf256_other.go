//go:build !amd64

package erasure

// Without a wide path mulAddGo does every byte.
var hasSSSE3 = false

func mulAddWide(dst, src []byte, t *[32]byte) int { return 0 }
