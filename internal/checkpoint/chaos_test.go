package checkpoint

import (
	"errors"
	"strings"
	"testing"

	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// runProc runs fn inside one simulated process and the env to completion.
func runProc(t *testing.T, env *vclock.Env, fn func(p *vclock.Proc)) {
	t.Helper()
	env.Go("test", fn)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChaosWriteOutcomes(t *testing.T) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", TmpfsParams())
	runProc(t, env, func(p *vclock.Proc) {
		// Transient failure: error surfaces, nothing is stored.
		st.SetChaos(func(string) WriteOutcome { return WriteFailTransient })
		err := st.Write(p, "a", []byte("data"), 4)
		if !errors.Is(err, ErrTransientIO) {
			t.Errorf("transient write: %v", err)
		}
		if _, ok := st.Stat(p, "a"); ok {
			t.Error("transient-failed write left a file")
		}

		// Disk full: distinct error class (not retryable).
		st.SetChaos(func(string) WriteOutcome { return WriteFailNoSpace })
		err = st.Write(p, "b", []byte("data"), 4)
		if !errors.Is(err, ErrNoSpace) {
			t.Errorf("no-space write: %v", err)
		}
		if Retryable(err) {
			t.Error("ErrNoSpace must not be retryable")
		}

		// Torn write: error surfaces AND a half-length file is left behind
		// (the failure mode atomic commit-by-rename protects against).
		st.SetChaos(func(string) WriteOutcome { return WriteTorn })
		err = st.Write(p, "c", []byte("12345678"), 8)
		if !errors.Is(err, ErrTransientIO) {
			t.Errorf("torn write: %v", err)
		}
		if raw, rerr := st.Read(p, "c"); rerr != nil || len(raw) != 4 {
			t.Errorf("torn write stored %d bytes (err %v), want 4", len(raw), rerr)
		}

		// Bit-flip: silent success with corrupted contents.
		st.SetChaos(func(string) WriteOutcome { return WriteBitFlip })
		if err := st.Write(p, "d", []byte("12345678"), 8); err != nil {
			t.Errorf("bit-flip write must report success, got %v", err)
		}
		raw, err := st.Read(p, "d")
		if err != nil || string(raw) == "12345678" {
			t.Errorf("bit-flip write stored pristine data (%q, %v)", raw, err)
		}
		st.SetChaos(nil)
	})
}

func TestWriteRankAtomicCommitOnTornWrite(t *testing.T) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", TmpfsParams())
	runProc(t, env, func(p *vclock.Proc) {
		st.SetChaos(func(string) WriteOutcome { return WriteTorn })
		dir := RankDir("job", "jit", 3, 0)
		if err := WriteRank(p, st, dir, testState(3, 0, 7), 32); err == nil {
			t.Fatal("torn write did not surface an error")
		}
		// The torn bytes landed in the ".tmp" staging file and were
		// cleaned up; the committed paths must not exist at all.
		if _, ok := st.Stat(p, dir+"/model.bin"); ok {
			t.Error("torn write left a committed model.bin")
		}
		if HasComplete(st, dir) {
			t.Error("torn write produced a complete-looking checkpoint")
		}
	})
}

func TestValidDeepDetectsSilentBitFlip(t *testing.T) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", TmpfsParams())
	runProc(t, env, func(p *vclock.Proc) {
		// Flip a bit only in the data file; META commits pristine.
		st.SetChaos(func(path string) WriteOutcome {
			if strings.Contains(path, "model.bin") {
				return WriteBitFlip
			}
			return WriteOK
		})
		dir := RankDir("job", "jit", 3, 0)
		if err := WriteRank(p, st, dir, testState(3, 0, 7), 32); err != nil {
			t.Fatal(err)
		}
		st.SetChaos(nil)
		// The shallow checks (metadata-last protocol + length) pass; only
		// the checksum comparison catches the silent corruption.
		m, err := ReadMeta(p, st, dir)
		if n, ok := st.Stat(p, dir+"/model.bin"); err != nil || !ok || n != m.DataLen {
			t.Error("META and the length check should pass on a silently-corrupted file")
		}
		if ValidDeep(p, st, dir) {
			t.Error("ValidDeep missed the bit-flip")
		}
		if _, err := ReadRank(p, st, dir); err == nil {
			t.Error("ReadRank decoded corrupted data without error")
		}
	})
}

// TestAssembleFallsBackToOlderGeneration pins the acceptance criterion:
// when the newest checkpoint generation is corrupted — silently (bit-flip)
// or visibly (torn write) — restore falls back to the newest *valid*
// generation instead of failing or reading garbage.
func TestAssembleFallsBackToOlderGeneration(t *testing.T) {
	topo := train.Topology{D: 1, P: 1, T: 1}
	for _, mode := range []WriteOutcome{WriteBitFlip, WriteTorn} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			env := vclock.NewEnv(1)
			st := NewStore(env, "disk", TmpfsParams())
			runProc(t, env, func(p *vclock.Proc) {
				if err := WriteRank(p, st, RankDir("job", "jit", 5, 0), testState(5, 0, 1), 32); err != nil {
					t.Fatal(err)
				}
				st.SetChaos(func(path string) WriteOutcome {
					if strings.Contains(path, "iter00000008") && strings.Contains(path, "model.bin") {
						return mode
					}
					return WriteOK
				})
				WriteRank(p, st, RankDir("job", "jit", 8, 0), testState(8, 0, 2), 32)
				st.SetChaos(nil)

				asm, err := assembleJIT(p, st, nil, topo, topo.World())
				if err != nil {
					t.Fatalf("no fallback assembly: %v", err)
				}
				if asm.Iter != 5 {
					t.Fatalf("assembled iter %d, want fallback to 5", asm.Iter)
				}
				ms, err := asm.For[0].Load(p)
				if err != nil || ms.Iter != 5 {
					t.Fatalf("fallback read: iter %v err %v", ms, err)
				}
			})
		})
	}
}

func TestRetryBackoff(t *testing.T) {
	env := vclock.NewEnv(1)
	runProc(t, env, func(p *vclock.Proc) {
		calls := 0
		t0 := p.Now()
		err := retry(p, func() error {
			calls++
			if calls < 3 {
				return ErrTransientIO
			}
			return nil
		})
		if err != nil || calls != 3 {
			t.Fatalf("retry: err=%v calls=%d", err, calls)
		}
		// Two backoffs: 10ms then 20ms.
		if took := p.Now() - t0; took != 30*vclock.Millisecond {
			t.Errorf("backoff time %v, want 30ms", took)
		}

		// Non-retryable errors abort immediately.
		calls = 0
		err = retry(p, func() error { calls++; return ErrNoSpace })
		if !errors.Is(err, ErrNoSpace) || calls != 1 {
			t.Errorf("no-space: err=%v calls=%d", err, calls)
		}

		// Attempts exhausted: the last transient error surfaces.
		calls = 0
		err = retry(p, func() error { calls++; return ErrTransientIO })
		if !errors.Is(err, ErrTransientIO) || calls != 3 {
			t.Errorf("exhausted: err=%v calls=%d", err, calls)
		}
	})
}

// TestWriteRankRetryAbsorbsTransientFaults checks WriteRank's bounded retry.
func TestWriteRankRetryAbsorbsTransientFaults(t *testing.T) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", TmpfsParams())
	runProc(t, env, func(p *vclock.Proc) {
		fails := 2
		st.SetChaos(func(string) WriteOutcome {
			if fails > 0 {
				fails--
				return WriteFailTransient
			}
			return WriteOK
		})
		dir := RankDir("job", "jit", 4, 1)
		if err := WriteRank(p, st, dir, testState(4, 1, 9), 32); err != nil {
			t.Fatalf("retry did not absorb transient faults: %v", err)
		}
		st.SetChaos(nil)
		if !ValidDeep(p, st, dir) {
			t.Error("retried checkpoint not deeply valid")
		}
	})
}
