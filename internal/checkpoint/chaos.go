package checkpoint

import "math/rand"

// RandomChaos returns a seeded write-fault hook for SetChaos that fails
// roughly a fraction p of store writes, split between transient I/O
// errors (which the bounded write retry absorbs), torn writes (caught by the
// shallow completeness check or the retry that follows the error), and
// silent bit-flips (caught only by deep validation at restore). It never
// returns WriteFailNoSpace — exhaustion is a deterministic condition, not
// a chaos event. The hook draws from rng on every write, so with a
// deterministic simulation the same seed replays the same fault pattern.
func RandomChaos(rng *rand.Rand, p float64) func(path string) WriteOutcome {
	return func(path string) WriteOutcome {
		if rng.Float64() >= p {
			return WriteOK
		}
		switch rng.Intn(4) {
		case 0, 1:
			return WriteFailTransient
		case 2:
			return WriteTorn
		default:
			return WriteBitFlip
		}
	}
}
