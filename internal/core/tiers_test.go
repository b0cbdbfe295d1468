package core

import (
	"strings"
	"testing"

	"jitckpt/internal/failure"
	"jitckpt/internal/vclock"
)

// TestPolicyTableTiers pins the ordered tier list every row of the policy
// table builds. The order is observable (restore probes cost virtual time,
// node-lost instants are traced, savers run in sequence), so a reordering
// shows up here as a one-line diff before it shows up as battery diffs.
func TestPolicyTableTiers(t *testing.T) {
	want := map[Policy]string{
		PolicyNone:             "",
		PolicyPCDisk:           "periodic",
		PolicyPCMem:            "periodic",
		PolicyCheckFreq:        "periodic",
		PolicyPCDaily:          "periodic",
		PolicyUserJIT:          "jit",
		PolicyTransparentJIT:   "jit",
		PolicyJITWithDaily:     "jit periodic",
		PolicyPeerShelter:      "peer",
		PolicyJITWithPeer:      "jit peer",
		PolicyElasticJIT:       "jit elastic",
		PolicyElasticPeer:      "jit elastic peer",
		PolicyMultiStepDisk:    "multistep",
		PolicyJITWithMultiStep: "jit multistep",
		PolicyPipeFree:         "pipefree multistep",
	}
	if len(Policies()) != len(want) {
		t.Fatalf("table has %d rows, the pinned tier lists %d", len(Policies()), len(want))
	}
	for p, w := range want {
		h := newHarness(JobConfig{WL: pipeWL(), Policy: p, Iters: 1})
		if err := h.setup(); err != nil {
			t.Errorf("%v: setup: %v", p, err)
			continue
		}
		var names []string
		for _, tr := range h.tiers {
			names = append(names, tr.name)
		}
		if got := strings.Join(names, " "); got != w {
			t.Errorf("%v: tiers = %q, want %q", p, got, w)
		}
		// The JIT flush target is the first tier that has one.
		if flushes := h.flush != nil; flushes != (p.Info().JITFlush != FlushNone) {
			t.Errorf("%v: flush target present = %v, row says %v", p, flushes, p.Info().JITFlush)
		}
	}
}

// TestTierContractComposes runs the one combination nobody hand-wired —
// user-level JIT over pipe-free bundles over multi-step generations — as a
// test-only row of the policy table, with no code of its own anywhere in
// the harness. One pipeline stage (D=1: no replica to JIT-checkpoint it)
// loses its node mid-run; the surviving stages flush just in time, the
// lost stage's position is pre-covered for the §3.3 quorum by its bundle
// on a neighbor — so the supervisor does not burn the two-minute quorum
// timeout — and the restore stitches JIT checkpoints and a stage rebuild
// into one iteration.
func TestTierContractComposes(t *testing.T) {
	row := PolicyInfo{
		Policy: Policy(len(policyTable)), Name: "UserJIT+PipeFree", Key: "jit+pipefree",
		JITFlush: FlushDisk, MultiStep: true, PipeFree: true,
	}
	policyTable = append(policyTable, row)
	t.Cleanup(func() { policyTable = policyTable[:len(policyTable)-1] })

	wl := pipeWL()
	const iters = 14
	cfg := JobConfig{
		WL: wl, Policy: row.Policy, Iters: iters, Seed: 1, CollectLoss: true,
		HangTimeout: 2 * vclock.Second, SpareNodes: 2,
	}
	twin := mustRun(t, cfg)
	if !twin.Completed || twin.Incarnations != 1 {
		t.Fatalf("failure-free twin: completed=%v incarnations=%d", twin.Completed, twin.Incarnations)
	}

	cfg.IterFailures = injectAt(wl, 5.5, 1, failure.NodeDown)
	res, _ := reconciled(t, cfg) // CheckInvariants + ReconcileAccounting
	if !res.Completed || res.Incarnations != 2 {
		t.Fatalf("completed=%v incarnations=%d, want a single restart", res.Completed, res.Incarnations)
	}
	if !lossTracesEqual(t, twin.Loss, res.Loss, iters) {
		t.Fatal("loss diverged from the failure-free twin")
	}
	if res.Pipe.Rebuilds+res.Pipe.SelfReloads < 1 {
		t.Fatalf("pipe-free tier served nothing: %+v", res.Pipe)
	}
	if len(res.RecoveryLatencies) != 1 {
		t.Fatalf("recovery episodes = %d, want 1", len(res.RecoveryLatencies))
	}
	// Without the pre-cover the dead stage's position never joins the
	// quorum and the episode carries the whole 2-minute timeout.
	if lat := res.RecoveryLatencies[0]; lat > 30*vclock.Second {
		t.Fatalf("recovery latency %v: the quorum wait was not pre-covered by the pipe-free tier", lat)
	}
}
