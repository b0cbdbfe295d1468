package checkpoint

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"jitckpt/internal/gpu"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// putPaths stores an empty object at each path, at no virtual cost.
func putPaths(st *Store, paths ...string) {
	for _, path := range paths {
		st.put(path, entry{})
	}
}

// TestEntries runs every walk the tiers make over one store: each object
// kind under an entry directory collapses to one entry, entries come out in
// path order, a generation is never listed as a rank entry nor the reverse,
// and a name that RankDir or MultiStepGenDir would not print is skipped.
func TestEntries(t *testing.T) {
	st := NewStore(vclock.NewEnv(1), "disk", TmpfsParams())
	dir := RankDir("job", "jit", 3, 1)
	putPaths(st,
		// One entry, every object kind and staging name.
		dir+"/model.bin", dir+"/META", dir+"/model.bin.tmp",
		FragPath(dir, 0), FragMetaPath(dir, 0), FragPath(dir, 12)+".tmp", FragMetaPath(dir, 7),
		RankDir("job", "jit", 12, 0)+"/model.bin",
		RankDir("job", "jit", 3, 0)+"/META",
		RankDir("job", "jit", 123456789, 10000)+"/META",
		RankDir("job2", "jit", 1, 0)+"/META",
		"job/ckpt/jit/gen00000005/rank0000/META",
		MultiStepGenDir("job", 7, 2)+"/META",
		MultiStepGenDir("job", 7, 2)+"/slice00.bin",
		MultiStepGenDir("job", 7, 2)+"/grad00.bin.tmp",
		"job/ckpt/multistep/iter00000008/rank0000/META",
		// Junk: names that only parse, wrong shapes, nesting.
		"job/ckpt/jit/iter4/rank0000/META",
		"job/ckpt/jit/iter+0000004/rank0000/META",
		"job/ckpt/jit/iter-0000004/rank0000/META",
		"job/ckpt/jit/iter00000004/rank-001/META",
		"job/ckpt/jit/iter00000004/rank00/META",
		"job/ckpt/jit/iter00000004/rank00010000/META",
		"job/ckpt/jit/iter000000004/rank0000/META",
		"job/ckpt/jit/iter00000004/rankX/META",
		"job/ckpt/jit/iter00000004/META",
		"job/ckpt/jit/iter00000004/rank0000/sub/model.bin",
		"job/ckpt/jit/ITER00000004/rank0000/META",
		"model.bin",
	)
	cases := []struct {
		name, prefix, word string
		want               []Entry
	}{
		{"rank entries in path order", "job/ckpt/jit/", "iter", []Entry{
			{3, 0, RankDir("job", "jit", 3, 0)},
			{3, 1, dir},
			{12, 0, RankDir("job", "jit", 12, 0)},
			{123456789, 10000, RankDir("job", "jit", 123456789, 10000)},
		}},
		{"no rank entry under gen", "job/ckpt/jit/", "gen", []Entry{
			{5, 0, "job/ckpt/jit/gen00000005/rank0000"},
		}},
		{"generations", "job/ckpt/multistep/", "gen", []Entry{
			{7, 2, MultiStepGenDir("job", 7, 2)},
		}},
		{"no generation under iter", "job/ckpt/multistep/", "iter", []Entry{
			{8, 0, "job/ckpt/multistep/iter00000008/rank0000"},
		}},
		{"other job", "job2/ckpt/jit/", "iter", []Entry{
			{1, 0, RankDir("job2", "jit", 1, 0)},
		}},
		{"empty prefix", "nothing/", "iter", nil},
	}
	for _, c := range cases {
		if got := Entries(st, c.prefix, c.word); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Entries(%q, %q) = %v, want %v", c.name, c.prefix, c.word, got, c.want)
		}
		checkRankEntries(t, st, c.prefix, c.word)
	}
	want := []string{"job/ckpt/jit/ITER00000004/", "job/ckpt/jit/gen00000005/", "job/ckpt/jit/iter+0000004/",
		"job/ckpt/jit/iter-0000004/", "job/ckpt/jit/iter000000004/", "job/ckpt/jit/iter00000003/",
		"job/ckpt/jit/iter00000004/", "job/ckpt/jit/iter00000012/", "job/ckpt/jit/iter123456789/", "job/ckpt/jit/iter4/"}
	if got := st.Dirs("job/ckpt/jit/"); !reflect.DeepEqual(got, want) {
		t.Errorf("Dirs = %q\nwant %q", got, want)
	}
}

// checkRankEntries holds RankEntries, for every rank Entries lists and one
// it does not, to Entries' entries of that rank one directory below prefix.
func checkRankEntries(t *testing.T, st *Store, prefix, word string) {
	t.Helper()
	all := Entries(st, prefix, word)
	ranks := map[int]bool{-1: true}
	for _, e := range all {
		ranks[e.Rank] = true
	}
	for rank := range ranks {
		var want []Entry
		for _, e := range all {
			if e.Rank == rank && strings.Count(e.Dir[len(prefix):], "/") == 1 {
				want = append(want, e)
			}
		}
		if got := RankEntries(st, prefix, word, rank); !reflect.DeepEqual(got, want) {
			t.Errorf("RankEntries(%q, %q, %d) = %v, want %v", prefix, word, rank, got, want)
		}
	}
}

// FuzzEntries stores arbitrary object paths and walks them: the walk must
// not panic, and every entry it returns is a directory some object sits in
// directly, listed once, whose last two components print back from the
// entry's numbers exactly.
func FuzzEntries(f *testing.F) {
	f.Add(RankDir("job", "jit", 3, 1) + "/META\n" + RankDir("job", "jit", 3, 1) + "/model.bin")
	f.Add(MultiStepGenDir("job", 7, 2) + "/slice00.bin\njob/ckpt/jit/iter4/rank0000/META")
	f.Add("iter00000001/rank0000/x\n/\n//\nrank0000/iter00000001/y\ngen+0000001/rank0000/z")
	f.Fuzz(func(t *testing.T, in string) {
		st := NewStore(vclock.NewEnv(1), "fuzz", TmpfsParams())
		paths := strings.Split(in, "\n")
		putPaths(st, paths...)
		for _, word := range []string{"iter", "gen"} {
			checkRankEntries(t, st, "", word)
			seen := make(map[string]bool)
			for _, e := range Entries(st, "", word) {
				tail := fmt.Sprintf("%s%08d/rank%04d", word, e.Iter, e.Rank)
				if e.Iter < 0 || e.Rank < 0 || (e.Dir != tail && !strings.HasSuffix(e.Dir, "/"+tail)) {
					t.Fatalf("entry %+v does not print back as %q", e, tail)
				}
				if seen[e.Dir] {
					t.Fatalf("directory %q listed twice", e.Dir)
				}
				seen[e.Dir] = true
				holds := false
				for _, path := range paths {
					name, ok := strings.CutPrefix(path, e.Dir+"/")
					holds = holds || (ok && !strings.Contains(name, "/"))
				}
				if !holds {
					t.Fatalf("entry %q holds no stored object", e.Dir)
				}
			}
		}
	})
}

// TestRankCommitCrashPoints drives the rank protocol's metadata-last commit
// through every crash point. A store holds a committed iteration N-1; a
// process then runs WriteImage of N and is killed between each pair of its
// store operations (data write, data rename, META write, META rename). Each
// operation sleeps before it lands, so stopping the clock at an operation's
// landing time is a crash right after it, one nanosecond earlier a crash
// right before it. Separately, each write is torn or bit-flipped on every
// attempt, or torn once and retried. Restore then assembles over
// StoreCandidates: it must pick N exactly when an intact META landed over an
// intact data object, N-1 otherwise, and never fail.
func TestRankCommitCrashPoints(t *testing.T) {
	const n, modelBytes = 5, int64(1e6)
	params := StoreParams{WriteBW: 1e9, ReadBW: 1e9, Latency: vclock.Millisecond}
	topo := train.Topology{D: 1, P: 1, T: 1}
	dirN := RankDir("job", "jit", n, 0)

	seeded := NewStore(vclock.NewEnv(1), "disk", params)
	seeded.env.Go("seed", func(p *vclock.Proc) {
		if err := WriteRank(p, seeded, RankDir("job", "jit", n-1, 0), testState(n-1, 0, 1), modelBytes); err != nil {
			t.Error(err)
		}
	})
	if err := seeded.env.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := testState(n, 0, 2).Encode()
	if err != nil {
		t.Fatal(err)
	}
	img := RankImage{Iter: n, Rank: 0, Data: data}

	// save runs WriteImage of N on a copy of the seeded store, with chaos
	// installed, until the clock passes limit (limit < 0: to the end).
	save := func(chaos func(path string) WriteOutcome, limit vclock.Time) *Store {
		env := vclock.NewEnv(1)
		st := cloneStoreInto(env, seeded)
		st.SetChaos(chaos)
		env.Go("save", func(p *vclock.Proc) { WriteImage(p, st, dirN, img, modelBytes) })
		if err := env.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
		return st
	}
	// restoredIter assembles over a copy of st and loads the plan.
	restoredIter := func(st *Store) int {
		env := vclock.NewEnv(1)
		st = cloneStoreInto(env, st)
		got := -1
		env.Go("restore", func(p *vclock.Proc) {
			plan, err := AssembleRestore(p, StoreCandidates(st, "job", "jit"), topo, 1)
			if err != nil {
				t.Errorf("AssembleRestore: %v", err)
				return
			}
			ms, err := plan.For[0].Load(p)
			if err != nil || ms.Iter != plan.Iter {
				t.Errorf("load of plan at %d: state %v, err %v", plan.Iter, ms, err)
				return
			}
			got = plan.Iter
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}

	// Each operation's landing time, from the store's own timing: a write
	// costs latency plus transfer (META is modelled at 256 bytes), a rename
	// latency alone. after[k] is what dirN holds once k operations landed.
	dataW := params.Latency + gpu.TransferTime(modelBytes, params.WriteBW)
	metaW := params.Latency + gpu.TransferTime(256, params.WriteBW)
	lands := []vclock.Time{dataW, dataW + params.Latency, dataW + params.Latency + metaW, dataW + 2*params.Latency + metaW}
	after := [][]string{
		nil,
		{"model.bin.tmp"},
		{"model.bin"},
		{"META.tmp", "model.bin"},
		{"META", "model.bin"},
	}
	for k := range after {
		var limits []vclock.Time
		if k == 0 {
			limits = append(limits, 0)
		} else {
			limits = append(limits, lands[k-1])
		}
		if k < len(lands) {
			limits = append(limits, lands[k]-1)
		} else {
			limits = append(limits, -1)
		}
		want := n - 1
		if k == len(lands) {
			want = n
		}
		for _, limit := range limits {
			st := save(nil, limit)
			var objs []string
			for _, path := range st.List(dirN + "/") {
				objs = append(objs, strings.TrimPrefix(path, dirN+"/"))
			}
			if !reflect.DeepEqual(objs, after[k]) {
				t.Fatalf("killed at %v: %s holds %v, want %v", limit, dirN, objs, after[k])
			}
			if got := restoredIter(st); got != want {
				t.Errorf("killed at %v after %d operations: restored %d, want %d", limit, k, got, want)
			}
		}
	}

	for _, obj := range []string{"model.bin.tmp", "META.tmp"} {
		for _, c := range []struct {
			outcome WriteOutcome
			once    bool
			want    int
		}{
			{WriteTorn, false, n - 1},
			{WriteBitFlip, false, n - 1},
			{WriteTorn, true, n},
		} {
			hit := false
			chaos := func(path string) WriteOutcome {
				if path != dirN+"/"+obj || (c.once && hit) {
					return WriteOK
				}
				hit = true
				return c.outcome
			}
			if got := restoredIter(save(chaos, -1)); got != c.want {
				t.Errorf("%v %s (once=%v): restored %d, want %d", c.outcome, obj, c.once, got, c.want)
			}
		}
	}
}
