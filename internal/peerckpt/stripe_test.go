package peerckpt

import (
	"strings"
	"testing"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// TestEntryRefKeyHelper checks the shelter's entry key: every object kind
// under one entry directory, stored alone on a host, lists as that one
// (iter, rank) entry, and an object outside the shelter's entry directories
// lists as none.
func TestEntryRefKeyHelper(t *testing.T) {
	env := vclock.NewEnv(1)
	s := mustShelter(t, env, testParams())
	dir := checkpoint.RankDir("job", PolicyName, 5, 2)
	objs := []string{
		dir + "/model.bin", dir + "/META", dir + "/model.bin.tmp",
		checkpoint.FragPath(dir, 0), checkpoint.FragMetaPath(dir, 7),
		checkpoint.FragPath(dir, 12) + ".tmp",
	}
	bad := []string{
		"model.bin", "job/oops", "job/ckpt/other/iter00000005/rank0002/META",
		"job/ckpt/peer/iter00000005/META", "job/ckpt/peer/iter5/rank0002/META",
	}
	env.Go("w", func(p *vclock.Proc) {
		for i, obj := range append(objs, bad...) {
			s.Host(i).Write(p, obj, []byte("x"), 1)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := checkpoint.Entry{Iter: 5, Rank: 2, Dir: dir}
	for i, obj := range objs {
		if got := s.entries(s.Host(i)); len(got) != 1 || got[0] != want {
			t.Errorf("entries with only %q = %+v, want [%+v]", obj, got, want)
		}
	}
	for i, obj := range bad {
		if got := s.entries(s.Host(len(objs) + i)); len(got) != 0 {
			t.Errorf("entries with only %q = %+v, want none", obj, got)
		}
	}
}

// TestEntriesInDedupsAcrossObjectKinds checks that replica objects and
// erasure fragments under one entry directory list as one entry, and that
// entries come out in (iter, rank) order.
func TestEntriesInDedupsAcrossObjectKinds(t *testing.T) {
	env := vclock.NewEnv(1)
	s := mustShelter(t, env, testParams())
	st := s.Host(1)
	dir := checkpoint.RankDir("job", PolicyName, 3, 0)
	other := checkpoint.RankDir("job", PolicyName, 4, 1)
	env.Go("w", func(p *vclock.Proc) {
		st.Write(p, dir+"/model.bin", []byte("x"), 1)
		st.Write(p, dir+"/META", []byte("m"), 1)
		st.Write(p, checkpoint.FragPath(dir, 0), []byte("f"), 1)
		st.Write(p, checkpoint.FragMetaPath(dir, 0), []byte("fm"), 1)
		st.Write(p, checkpoint.FragPath(other, 2), []byte("g"), 1)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	got := s.entries(st)
	want := []checkpoint.Entry{{Iter: 3, Rank: 0, Dir: dir}, {Iter: 4, Rank: 1, Dir: other}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("entries = %+v, want %+v", got, want)
	}
}

func TestParamsValidation(t *testing.T) {
	env := vclock.NewEnv(1)
	cases := []struct {
		name  string
		p     Params
		avail Availability
		want  string // substring of the error, "" = accept
	}{
		{"k<1", Params{DataShards: 0, ParityShards: 2}, Availability{}, "at least one data shard"},
		{"m<0", Params{DataShards: 2, ParityShards: -1}, Availability{}, "cannot be negative"},
		{"too wide", Params{DataShards: 4, ParityShards: 2}, Availability{Nodes: 6}, "peer hosts"},
		{"few domains", Params{DataShards: 2, ParityShards: 2}, Availability{Nodes: 8, FailureDomains: 2}, "failure domains"},
		{"copies wide", Params{Copies: 4}, Availability{Nodes: 4}, "peer hosts"},
		{"ok stripe", Params{DataShards: 4, ParityShards: 2}, Availability{Nodes: 8, FailureDomains: 4}, ""},
		{"ok repl", Params{Copies: 2}, Availability{Nodes: 4, FailureDomains: 2}, ""},
		{"ok unknown avail", Params{DataShards: 8, ParityShards: 3}, Availability{}, ""},
	}
	for _, c := range cases {
		_, err := NewShelter(env, "job", c.p, c.avail)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func stripedParams() Params {
	p := testParams()
	p.DataShards = 2
	p.ParityShards = 1
	return p
}

// driveStripe offers one state and lets the background stripe commit.
func driveStripe(t *testing.T, env *vclock.Env, s *Shelter, rank, iter int, hosts []int) {
	t.Helper()
	pk := &fakePeeker{rank: rank, iter: iter}
	rep := s.NewReplicator(rank, nil, hosts, 1e6, 2e9)
	env.Go("drive", func(p *vclock.Proc) {
		rep.Offer(pk)
		p.Sleep(vclock.Second)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStripedOfferSpreadsFragments(t *testing.T) {
	env := vclock.NewEnv(1)
	s := mustShelter(t, env, stripedParams())
	driveStripe(t, env, s, 0, 4, []int{1, 2, 3})
	dir := checkpoint.RankDir("job", PolicyName, 4, 0)
	for i, n := range []int{1, 2, 3} {
		if !checkpoint.HasFrag(s.Host(n), dir, i) {
			t.Errorf("fragment %d missing on node %d", i, n)
		}
	}
	st := s.Stats()
	if st.Encodes != 1 || st.Commits != 3 || st.EncodeTime <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Overhead: 3 fragments × ceil(1e6/2) bytes vs 1e6 protected = 1.5×.
	if st.BytesProtected != 1e6 || st.BytesSheltered != 3*500000 {
		t.Fatalf("bytes: sheltered %d protected %d", st.BytesSheltered, st.BytesProtected)
	}
	topo := train.Topology{D: 1, P: 1, T: 1}
	if cov := s.CoveredPositions(topo); !cov[topo.PositionKey(0)] {
		t.Fatal("striped entry not covered")
	}
}

// loadVia runs the restore assembler over the shelter's candidates and
// loads rank 0's entry.
func loadVia(t *testing.T, env *vclock.Env, s *Shelter, topo train.Topology) *train.ModelState {
	t.Helper()
	var ms *train.ModelState
	env.Go("restore", func(p *vclock.Proc) {
		plan, err := checkpoint.AssembleRestore(p, s.RestoreCandidates(), topo, topo.World())
		if err != nil {
			t.Errorf("AssembleRestore: %v", err)
			return
		}
		got, err := plan.For[0].Load(p)
		if err != nil {
			t.Errorf("Load: %v", err)
			return
		}
		ms = got
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestStripeReconstructsAfterMaxLosses(t *testing.T) {
	env := vclock.NewEnv(1)
	s := mustShelter(t, env, stripedParams()) // RS(2,1): survives 1 fragment-host loss
	driveStripe(t, env, s, 0, 4, []int{1, 2, 3})
	s.MarkNodeLost(1) // data shard 0 gone → decode from shard 1 + parity
	topo := train.Topology{D: 1, P: 1, T: 1}
	if cov := s.CoveredPositions(topo); !cov[topo.PositionKey(0)] {
		t.Fatal("entry not reconstructable with k fragments surviving")
	}
	ms := loadVia(t, env, s, topo)
	if ms == nil {
		t.Fatal("no state loaded")
	}
	want := testState(4, 0)
	if ms.Iter != 4 || ms.Rank != 0 {
		t.Fatalf("loaded iter %d rank %d", ms.Iter, ms.Rank)
	}
	if !ms.Tensors["param.L0.w#0"].Equal(want.Tensors["param.L0.w#0"]) {
		t.Fatal("reconstructed tensor differs from the original")
	}
	st := s.Stats()
	if st.Decodes != 1 || st.DecodeTime <= 0 {
		t.Fatalf("decode stats = %+v", st)
	}
}

func TestStripeCorruptFragmentFeedsErasureList(t *testing.T) {
	env := vclock.NewEnv(1)
	s := mustShelter(t, env, stripedParams())
	driveStripe(t, env, s, 0, 4, []int{1, 2, 3})
	// Bit-flip data fragment 1 in place: the per-fragment checksum must
	// route it to the erasure list, and parity makes up the difference.
	dir := checkpoint.RankDir("job", PolicyName, 4, 0)
	if !s.Host(2).Corrupt(checkpoint.FragPath(dir, 1)) {
		t.Fatal("corrupt failed")
	}
	topo := train.Topology{D: 1, P: 1, T: 1}
	ms := loadVia(t, env, s, topo)
	if ms == nil || ms.Iter != 4 {
		t.Fatalf("loaded %+v", ms)
	}
	st := s.Stats()
	if st.Decodes != 1 {
		t.Fatalf("decode stats = %+v, want a parity decode", st)
	}
}

func TestStripeBeyondBudgetUncovered(t *testing.T) {
	env := vclock.NewEnv(1)
	s := mustShelter(t, env, stripedParams()) // RS(2,1)
	driveStripe(t, env, s, 0, 4, []int{1, 2, 3})
	s.MarkNodeLost(1)
	s.MarkNodeLost(3) // 2 losses > m=1: only 1 fragment survives
	topo := train.Topology{D: 1, P: 1, T: 1}
	if cov := s.CoveredPositions(topo); cov[topo.PositionKey(0)] {
		t.Fatal("unreconstructable entry reported covered")
	}
	for _, c := range s.RestoreCandidates() {
		if strings.HasPrefix(c.Desc, "peer-stripe:") {
			t.Fatalf("RestoreCandidates offers unreconstructable stripe %s", c.Desc)
		}
	}
}

func TestStripedRetentionPrunesFragments(t *testing.T) {
	env := vclock.NewEnv(1)
	s := mustShelter(t, env, stripedParams()) // keeps two iterations
	pk := &fakePeeker{rank: 0}
	rep := s.NewReplicator(0, nil, []int{1, 2, 3}, 1e6, 2e9)
	env.Go("drive", func(p *vclock.Proc) {
		for it := 1; it <= 5; it++ {
			pk.iter = it
			rep.Offer(pk)
			p.Sleep(vclock.Second)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for it := 1; it <= 5; it++ {
		dir := checkpoint.RankDir("job", PolicyName, it, 0)
		has := checkpoint.HasFrag(s.Host(1), dir, 0)
		want := it >= 4
		if has != want {
			t.Errorf("iter %d fragment present=%v, want %v", it, has, want)
		}
	}
}

// TestShipStripeSumsMatchStoredBytes: the checksums a ship computes beside
// the simulation describe the bytes the hosts keep. After an RS(4,2) ship
// every FMETA's FragSum is the Sum of the fragment its host store holds,
// and its DataSum the Sum of the state's encoding.
func TestShipStripeSumsMatchStoredBytes(t *testing.T) {
	env := vclock.NewEnv(1)
	params := testParams()
	params.DataShards, params.ParityShards = 4, 2
	s := mustShelter(t, env, params)
	pk := bigView(0)
	pk.ms.Iter = 3
	payload, err := pk.ms.Encode()
	if err != nil {
		t.Fatal(err)
	}
	hosts := []int{1, 2, 3, 4, 5, 6}
	rep := s.NewReplicator(0, nil, hosts, 1e6, 2e9)
	dir := checkpoint.RankDir("job", PolicyName, 3, 0)
	env.Go("drive", func(p *vclock.Proc) {
		rep.Offer(pk)
		p.Sleep(vclock.Second)
		for i, n := range hosts {
			st := s.Host(n)
			fm, err := checkpoint.ReadFragMeta(p, st, dir, i)
			if err != nil {
				t.Errorf("fragment %d: %v", i, err)
				continue
			}
			frag, err := st.Read(p, checkpoint.FragPath(dir, i))
			if err != nil {
				t.Errorf("fragment %d: %v", i, err)
				continue
			}
			if got := checkpoint.Sum(frag); fm.FragSum != got || fm.ShardLen != len(frag) {
				t.Errorf("fragment %d: FMETA records FragSum %#08x over %d bytes, host holds %d bytes summing to %#08x",
					i, fm.FragSum, fm.ShardLen, len(frag), got)
			}
			if want := checkpoint.Sum(payload); fm.DataSum != want || fm.DataLen != len(payload) {
				t.Errorf("fragment %d: FMETA records DataSum %#08x over %d bytes, the encoding is %d bytes summing to %#08x",
					i, fm.DataSum, fm.DataLen, len(payload), want)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Encodes != 1 || st.Commits != len(hosts) {
		t.Fatalf("stats = %+v, want one encode and %d commits", st, len(hosts))
	}
}
