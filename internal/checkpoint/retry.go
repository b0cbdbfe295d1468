package checkpoint

import (
	"errors"

	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// The one retry policy every tier's store writes run under (JIT save,
// periodic and elastic saves, shelter commits, multi-step slices): three
// attempts with 10 ms → 20 ms backoff, enough to ride out a transient store
// fault without stretching the checkpoint-before-deadline window.
const (
	retryAttempts = 3
	retryBackoff  = 10 * vclock.Millisecond
)

// Retryable reports whether err is worth retrying: transient I/O faults
// are; ErrNoSpace and everything else are not.
func Retryable(err error) bool { return errors.Is(err, ErrTransientIO) }

// retry runs op, retrying with doubling backoff while it returns a
// retryable error. The last error (retryable or not) is returned when
// attempts run out.
func retry(p *vclock.Proc, op func() error) error {
	backoff := retryBackoff
	var err error
	for i := 1; i <= retryAttempts; i++ {
		if err = op(); err == nil || !Retryable(err) {
			return err
		}
		trace.Of(p.Env()).Instant(p.Now(), "ckpt", trace.LaneSim, "retry",
			"attempt", i, "of", retryAttempts, "err", err)
		if i < retryAttempts {
			p.Sleep(backoff)
			backoff *= 2
		}
	}
	return err
}

// WriteImage commits an encoded rank checkpoint META-last (writeImage)
// under the bounded retry: torn writes and transient store faults are
// retried (the atomic-rename commit guarantees a failed attempt leaves
// nothing at the final path), while hard failures surface immediately.
// Every attempt writes the same bytes.
func WriteImage(p *vclock.Proc, st *Store, dir string, img RankImage, modelBytes int64) error {
	return retry(p, func() error { return writeImage(p, st, dir, img, modelBytes) })
}

// WriteFragRetry is WriteFrag under the same bounded retry.
func WriteFragRetry(p *vclock.Proc, st *Store, dir string, fm FragMeta, frag []byte, modelBytes int64) error {
	return retry(p, func() error { return WriteFrag(p, st, dir, fm, frag, modelBytes) })
}
