package core

import (
	"strings"
	"testing"
)

// TestPolicyRegistryComplete pins the shared registry against the enum:
// every runnable policy has exactly one row, every spelling is unique,
// and every front-end resolution path (name, key, alias) round-trips.
func TestPolicyRegistryComplete(t *testing.T) {
	rows := Policies()
	byPolicy := make(map[Policy]int)
	spellings := make(map[string]Policy)
	for _, pi := range rows {
		byPolicy[pi.Policy]++
		if pi.Name != pi.Policy.String() {
			t.Errorf("%v: registry name %q != String %q", pi.Policy, pi.Name, pi.Policy.String())
		}
		for _, s := range append([]string{strings.ToLower(pi.Name), pi.Key}, pi.Aliases...) {
			if prev, dup := spellings[s]; dup && prev != pi.Policy {
				t.Errorf("spelling %q claimed by both %v and %v", s, prev, pi.Policy)
			}
			spellings[s] = pi.Policy
		}
	}
	// The enum is dense from PolicyNone: every value up to the last
	// registry row must appear exactly once.
	for p := PolicyNone; int(p) < len(rows); p++ {
		if byPolicy[p] != 1 {
			t.Errorf("policy %v has %d registry rows, want 1", p, byPolicy[p])
		}
	}
	// Resolution paths agree.
	for _, pi := range rows {
		for _, s := range append([]string{pi.Name, strings.ToUpper(pi.Key)}, pi.Aliases...) {
			got, ok := ParsePolicy(s)
			if !ok || got != pi.Policy {
				t.Errorf("ParsePolicy(%q) = %v,%v, want %v", s, got, ok, pi.Policy)
			}
		}
	}
	if _, ok := ParsePolicy("definitely-not-a-policy"); ok {
		t.Error("ParsePolicy accepted garbage")
	}
	keys := PolicyKeys()
	if keys["jit"] != PolicyTransparentJIT {
		t.Error("historical alias \"jit\" lost")
	}
	aliases := 0
	for _, pi := range rows {
		aliases += len(pi.Aliases)
	}
	if len(keys) != len(rows)+aliases {
		t.Errorf("PolicyKeys has %d entries, want %d (one per key plus aliases)", len(keys), len(rows)+aliases)
	}
	// The two new recovery families are present and runnable by key.
	for key, want := range map[string]Policy{
		"multistep": PolicyMultiStepDisk, "jit+multistep": PolicyJITWithMultiStep, "pipefree": PolicyPipeFree,
	} {
		if keys[key] != want {
			t.Errorf("keys[%q] = %v, want %v", key, keys[key], want)
		}
	}
}

// TestPolicyTableColumns pins every row of the policy table against a
// literal: the names and keys every front end accepts, and the truth table
// of the eight predicate methods the tier columns replaced (UserLevelJIT
// and DiskJIT became JITFlush; PeriodicKind became Periodic+Kind;
// UsesPeerShelter, UsesMultiStep, UsesPipeFree and Elastic became the
// columns of those names; `== PolicyTransparentJIT` became Transparent),
// transcribed from them before they were deleted. A mis-typed row fails
// here, before a soak has to find it.
func TestPolicyTableColumns(t *testing.T) {
	type row struct {
		name, key string
		flush     FlushTarget
		periodic  string // Kind.String(); "" = not periodic
		peer      bool
		multistep bool
		pipefree  bool
		elastic   bool
		transp    bool
	}
	want := map[Policy]row{
		PolicyNone:             {name: "none", key: "none"},
		PolicyPCDisk:           {name: "PC_disk", key: "pc_disk", periodic: "PC_disk"},
		PolicyPCMem:            {name: "PC_mem", key: "pc_mem", periodic: "PC_mem"},
		PolicyCheckFreq:        {name: "CheckFreq", key: "checkfreq", periodic: "CheckFreq"},
		PolicyPCDaily:          {name: "PC_1/day", key: "pc_daily", periodic: "PC_1/day"},
		PolicyUserJIT:          {name: "UserJIT", key: "userjit", flush: FlushDisk},
		PolicyTransparentJIT:   {name: "TransparentJIT", key: "transparent", flush: FlushDisk, transp: true},
		PolicyJITWithDaily:     {name: "UserJIT+PC_1/day", key: "jit+daily", flush: FlushDisk, periodic: "PC_1/day"},
		PolicyPeerShelter:      {name: "PeerShelter", key: "peer", flush: FlushShelter, peer: true},
		PolicyJITWithPeer:      {name: "UserJIT+Peer", key: "jit+peer", flush: FlushDisk, peer: true},
		PolicyElasticJIT:       {name: "UserJIT+Elastic", key: "jit+elastic", flush: FlushDisk, elastic: true},
		PolicyElasticPeer:      {name: "UserJIT+Peer+Elastic", key: "peer+elastic", flush: FlushDisk, peer: true, elastic: true},
		PolicyMultiStepDisk:    {name: "MultiStepDisk", key: "multistep", multistep: true},
		PolicyJITWithMultiStep: {name: "UserJIT+MultiStep", key: "jit+multistep", flush: FlushDisk, multistep: true},
		PolicyPipeFree:         {name: "PipeFree", key: "pipefree", multistep: true, pipefree: true},
	}
	if len(Policies()) != len(want) {
		t.Fatalf("table has %d rows, the pinned truth table %d", len(Policies()), len(want))
	}
	for p, w := range want {
		pi := p.Info()
		got := row{
			name: pi.Name, key: pi.Key, flush: pi.JITFlush,
			peer: pi.Peer, multistep: pi.MultiStep, pipefree: pi.PipeFree,
			elastic: pi.Elastic, transp: pi.Transparent,
		}
		if pi.Periodic {
			got.periodic = pi.Kind.String()
		} else if pi.Kind != 0 {
			t.Errorf("%v: Kind %v set on a non-periodic row", p, pi.Kind)
		}
		if got != w {
			t.Errorf("%v: row = %+v, want %+v", p, got, w)
		}
		if pi.Policy != p || p.String() != w.name {
			t.Errorf("%v: Info().Policy = %v, String() = %q, want %v, %q", p, pi.Policy, p.String(), p, w.name)
		}
	}
	if got := Policy(len(want)).Info(); got.Name != "Policy(15)" || got.JITFlush != FlushNone || got.Periodic || got.Transparent {
		t.Errorf("out-of-range policy resolved to a real row: %+v", got)
	}
}
