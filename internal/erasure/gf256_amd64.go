package erasure

// hasSSSE3 reports CPUID leaf 1, ECX bit 9: whether mulAddWide's PSHUFB
// exists on this CPU. Tests turn it off to run mulAddGo alone.
var hasSSSE3 = cpuidSSSE3()

func cpuidSSSE3() bool

// mulAddWide xors c*src into dst for the first len(src) &^ 15 bytes, sixteen
// at a time, and returns that count; t is gfNibbles[c]. dst must be as long
// as src, and the CPU must have SSSE3.
//
//go:noescape
func mulAddWide(dst, src []byte, t *[32]byte) int
