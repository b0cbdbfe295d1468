// Package checkpoint implements checkpoint storage and the checkpointing
// policies the paper compares: the shared checkpoint store, the
// rank-directory commit protocol (§3.2), checkpoint assembly across
// replicas (§3.3), and the periodic-checkpointing baselines of §6.3
// (PC_disk, PC_mem, CheckFreq-style overlapped snapshotting, and
// low-frequency PC_1/day).
package checkpoint

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"jitckpt/internal/gpu"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// Errors returned by the store and assembly.
var (
	ErrNotFound    = errors.New("checkpoint: not found")
	ErrCorrupt     = errors.New("checkpoint: corrupt or incomplete")
	ErrUnassembled = errors.New("checkpoint: no consistent checkpoint set")
	// ErrTransientIO is a retryable storage fault (flaky NIC to the store,
	// throttled object-store request, torn write).
	ErrTransientIO = errors.New("checkpoint: transient I/O error")
	// ErrNoSpace is a non-retryable out-of-capacity write failure.
	ErrNoSpace = errors.New("checkpoint: no space left on store")
	// ErrNoTarget means a save's Target resolved to no store.
	ErrNoTarget = errors.New("checkpoint: no store left to save to")
)

// WriteOutcome is what a chaos hook decrees for one store write.
type WriteOutcome int

const (
	// WriteOK lets the write through untouched.
	WriteOK WriteOutcome = iota
	// WriteTorn stores only a prefix of the object and returns a transient
	// error — the multi-step overlapped-write hazard (a crash or fault
	// mid-PUT leaves partial state behind).
	WriteTorn
	// WriteBitFlip stores the full object with one byte flipped and
	// reports success — silent corruption only restore-time validation
	// can catch.
	WriteBitFlip
	// WriteFailTransient stores nothing and returns ErrTransientIO; a
	// bounded retry should succeed.
	WriteFailTransient
	// WriteFailNoSpace stores nothing and returns ErrNoSpace.
	WriteFailNoSpace
)

// String renders the outcome for traces and test failures.
func (o WriteOutcome) String() string {
	switch o {
	case WriteOK:
		return "ok"
	case WriteTorn:
		return "torn"
	case WriteBitFlip:
		return "bit-flip"
	case WriteFailTransient:
		return "transient"
	case WriteFailNoSpace:
		return "no-space"
	default:
		return fmt.Sprintf("WriteOutcome(%d)", int(o))
	}
}

// StoreParams model a storage tier's performance.
type StoreParams struct {
	// WriteBW and ReadBW are bytes/second for modelled payload sizes.
	WriteBW float64
	ReadBW  float64
	// Latency is the fixed per-operation cost.
	Latency vclock.Time
}

// DiskParams returns parameters for a shared NVMe-backed store.
func DiskParams() StoreParams {
	return StoreParams{WriteBW: 5e9, ReadBW: 8e9, Latency: 2 * vclock.Millisecond}
}

// TmpfsParams returns parameters for node-local CPU memory (the PC_mem
// tier: "a Linux tmpfs mount").
func TmpfsParams() StoreParams {
	return StoreParams{WriteBW: 60e9, ReadBW: 60e9, Latency: 50 * vclock.Microsecond}
}

// entry is one stored object: real bytes plus the modelled size that
// drives transfer timing. Its bytes are never written to: a store object
// is immutable, so one buffer may back several objects and several stores.
type entry struct {
	data       []byte
	modelBytes int64
}

// Store is a simulated shared file/object store with virtual-time I/O
// costs. Contents are real bytes, so everything written can be read back
// and verified; timing follows the modelled payload size.
//
// Objects are kept as written: Write holds on to the caller's slice instead
// of copying it, and nothing in the store ever changes an object's bytes in
// place. Damage (a chaos bit-flip, Corrupt) lands on a private copy, and Read
// hands out a copy, so neither the writer's buffer nor any other object that
// shares it can see it.
type Store struct {
	env       *vclock.Env
	name      string
	params    StoreParams
	files     map[string]entry
	chaos     func(path string) WriteOutcome
	readBytes int64
}

// NewStore creates an empty store.
func NewStore(env *vclock.Env, name string, params StoreParams) *Store {
	return &Store{env: env, name: name, params: params, files: make(map[string]entry)}
}

// flipped returns a private copy of data with mask XORed into its middle
// byte: the damage an object takes without reaching the buffer it was
// written from.
func flipped(data []byte, mask byte) []byte {
	out := slices.Clone(data)
	out[len(out)/2] ^= mask
	return out
}

// Name returns the store's diagnostic name.
func (s *Store) Name() string { return s.name }

// SetChaos installs a write-fault hook consulted on every Write. A nil
// hook (the default) means every write succeeds cleanly.
func (s *Store) SetChaos(fn func(path string) WriteOutcome) { s.chaos = fn }

// Write stores data under path, charging modelBytes of write bandwidth.
// The store keeps data itself: the caller hands the buffer over and may not
// change it afterwards, which every writer meets by passing freshly encoded
// bytes. An installed chaos hook may tear, corrupt, or fail the write.
func (s *Store) Write(p *vclock.Proc, path string, data []byte, modelBytes int64) error {
	outcome := WriteOK
	if s.chaos != nil {
		outcome = s.chaos(path)
	}
	if outcome != WriteOK {
		trace.Of(s.env).Instant(p.Now(), "ckpt", s.name, "write-fault",
			"outcome", outcome, "path", path)
	}
	switch outcome {
	case WriteFailTransient:
		p.Sleep(s.params.Latency)
		return fmt.Errorf("%w: write %s on %s", ErrTransientIO, path, s.name)
	case WriteFailNoSpace:
		p.Sleep(s.params.Latency)
		return fmt.Errorf("%w: write %s on %s", ErrNoSpace, path, s.name)
	case WriteTorn:
		// The connection drops halfway: half the bandwidth is spent and a
		// partial object is left behind, a prefix whose capacity ends with
		// it, so nothing can reach the rest of data through it.
		p.Sleep(s.params.Latency + gpu.TransferTime(modelBytes/2, s.params.WriteBW))
		n := len(data) / 2
		s.files[path] = entry{data: data[:n:n], modelBytes: modelBytes / 2}
		return fmt.Errorf("%w: torn write %s on %s", ErrTransientIO, path, s.name)
	}
	p.Sleep(s.params.Latency + gpu.TransferTime(modelBytes, s.params.WriteBW))
	if outcome == WriteBitFlip && len(data) > 0 {
		data = flipped(data, 0x01) // silent corruption: write "succeeds"
	}
	s.files[path] = entry{data: data, modelBytes: modelBytes}
	return nil
}

// Rename moves the object at src to dst — the atomic commit step. It is a
// metadata operation (only fixed latency when p is non-nil): the bytes were
// already paid for when the temporary object was written.
func (s *Store) Rename(p *vclock.Proc, src, dst string) error {
	if p != nil {
		p.Sleep(s.params.Latency)
	}
	e, ok := s.files[src]
	if !ok {
		return fmt.Errorf("%w: rename %s", ErrNotFound, src)
	}
	delete(s.files, src)
	s.files[dst] = e
	return nil
}

// ContentHash returns the store-side Sum of the object at path (the CRC-32C
// etag an object store keeps alongside each object), and whether the object
// exists. It is a metadata operation: only the fixed latency is charged,
// and only when p is non-nil.
func (s *Store) ContentHash(p *vclock.Proc, path string) (uint32, bool) {
	if p != nil {
		p.Sleep(s.params.Latency)
	}
	e, ok := s.files[path]
	if !ok {
		return 0, false
	}
	return Sum(e.data), true
}

// Read returns a private copy of the object at path, charging read
// bandwidth. Every read's modelled payload is added to the store's
// read-byte counter, which is how the harness accounts checkpoint-read
// traffic per recovery (the pipe-free family's "zero checkpoint reads"
// claim is audited against it).
func (s *Store) Read(p *vclock.Proc, path string) ([]byte, error) {
	e, ok := s.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	p.Sleep(s.params.Latency + gpu.TransferTime(e.modelBytes, s.params.ReadBW))
	s.readBytes += e.modelBytes
	return slices.Clone(e.data), nil
}

// ReadBytes returns the cumulative modelled bytes served by Read.
func (s *Store) ReadBytes() int64 { return s.readBytes }

// Stat returns the stored byte length of path (a metadata operation: only
// the fixed latency is charged when p is non-nil). ok reports existence.
func (s *Store) Stat(p *vclock.Proc, path string) (length int, ok bool) {
	if p != nil {
		p.Sleep(s.params.Latency)
	}
	e, found := s.files[path]
	if !found {
		return 0, false
	}
	return len(e.data), true
}

// List returns stored paths with the given prefix, sorted.
func (s *Store) List(prefix string) []string {
	var out []string
	for k := range s.files {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Delete removes an object; deleting a missing object is a no-op.
func (s *Store) Delete(path string) { delete(s.files, path) }

// Corrupt flips a byte of the object at path (failure injection for the
// metadata-validation tests), in a private copy that replaces it. It
// reports whether the object existed.
func (s *Store) Corrupt(path string) bool {
	e, ok := s.files[path]
	if !ok || len(e.data) == 0 {
		return false
	}
	e.data = flipped(e.data, 0xFF)
	s.files[path] = e
	return true
}

// ModelBytes returns the modelled size of the object at path (0 if
// missing).
func (s *Store) ModelBytes(path string) int64 { return s.files[path].modelBytes }
