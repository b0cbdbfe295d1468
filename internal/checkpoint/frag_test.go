package checkpoint

import (
	"errors"
	"testing"

	"jitckpt/internal/vclock"
)

func TestFragCommitProtocol(t *testing.T) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "peer", TmpfsParams())
	dir := RankDir("job", "peer", 5, 2)
	env.Go("w", func(p *vclock.Proc) {
		frag := []byte("abcd")
		fm := FragMeta{Iter: 5, Rank: 2, Frag: 1, K: 2, M: 1, DataLen: 9, DataSum: 42, FragSum: Sum(frag)}
		if err := WriteFrag(p, st, dir, fm, frag, 1024); err != nil {
			t.Fatal(err)
		}
		if !HasFrag(st, dir, 1) {
			t.Error("committed fragment not visible to HasFrag")
		}
		if HasFrag(st, dir, 0) {
			t.Error("absent fragment visible to HasFrag")
		}
		if !ValidFragDeep(p, st, dir, 1) {
			t.Error("committed fragment fails deep validation")
		}
		got, data, err := ReadFrag(p, st, dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "abcd" || got.K != 2 || got.M != 1 || got.ShardLen != 4 || got.DataSum != 42 {
			t.Errorf("ReadFrag = %+v %q", got, data)
		}
		// A committed fragment must not make the dir look like a complete
		// replica entry (META-last protocol is separate).
		if HasComplete(st, dir) {
			t.Error("fragment-only dir reports HasComplete")
		}
		// In-place corruption must fail the deep check and the read —
		// that false answer is the decoder's erasure-list entry.
		st.Corrupt(FragPath(dir, 1))
		if ValidFragDeep(p, st, dir, 1) {
			t.Error("corrupted fragment passes deep validation")
		}
		if _, _, err := ReadFrag(p, st, dir, 1); !errors.Is(err, ErrCorrupt) {
			t.Errorf("corrupted ReadFrag: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFragTornWriteNeverCommits(t *testing.T) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "peer", TmpfsParams())
	dir := RankDir("job", "peer", 1, 0)
	torn := true
	st.SetChaos(func(path string) WriteOutcome {
		if torn {
			torn = false
			return WriteTorn
		}
		return WriteOK
	})
	env.Go("w", func(p *vclock.Proc) {
		err := WriteFrag(p, st, dir, FragMeta{Iter: 1, Frag: 0, K: 1, M: 0, FragSum: Sum([]byte("xyzw"))}, []byte("xyzw"), 64)
		if !errors.Is(err, ErrTransientIO) {
			t.Fatalf("torn write: %v", err)
		}
		if HasFrag(st, dir, 0) {
			t.Error("torn fragment looks committed")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
