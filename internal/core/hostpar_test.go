package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"jitckpt/internal/failure"
	"jitckpt/internal/peerckpt"
	"jitckpt/internal/vclock"
)

// wideStripeJob is an RS(4,2) shelter job on a Hidden-128 model, the shape
// whose stripes are real byte work: one stroke at iteration 6 takes both
// owners of stage 0 and one fragment host, so the restore decodes parity.
func wideStripeJob() JobConfig {
	wl := rsWL()
	wl.Name = "wide-rs"
	wl.Hidden = 128
	var faults []IterInjection
	for _, r := range []int{0, 4, 1} {
		faults = append(faults, IterInjection{Iter: 6, Frac: 0.5, Rank: r, Kind: failure.NodeDown})
	}
	return JobConfig{
		WL: wl, Policy: PolicyPeerShelter, Iters: 12, Seed: 1,
		Peer: &peerckpt.Params{DataShards: 4, ParityShards: 2}, RackSize: 1,
		HangTimeout: 2 * vclock.Second, SpareNodes: 4,
		IterFailures: faults,
	}
}

// goldenJob returns the configuration of the named golden scenario.
func goldenJob(t *testing.T, name string) JobConfig {
	t.Helper()
	for _, sc := range goldenScenarios {
		if sc.name == name {
			return sc.cfg()
		}
	}
	t.Fatalf("no golden scenario %q", name)
	return JobConfig{}
}

// TestStripedTraceIgnoresHostParallelism: the striped shelter computes
// parity and checksums on goroutines beside the simulation, so the cores
// the host lends it must not reach a simulated value. The peer_rs golden
// job and an RS(4,2) Hidden-128 job each write the same full timeline at
// GOMAXPROCS 1 and 4.
func TestStripedTraceIgnoresHostParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, job := range []struct {
		name string
		cfg  JobConfig
		// want is a span the timeline must hold, so the run did the
		// byte work under test.
		want string
	}{
		{"peer_rs", goldenJob(t, "peer_rs"), "rs-encode iter="},
		{"rs42-h128", wideStripeJob(), "reconstruct iter="},
	} {
		t.Run(job.name, func(t *testing.T) {
			var texts [][]byte
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				rec, _ := tracedRun(t, job.cfg)
				texts = append(texts, fullText(t, rec))
			}
			if !bytes.Equal(texts[0], texts[1]) {
				t.Fatalf("GOMAXPROCS 1 and 4 wrote different timelines:\n%s", firstDiff(texts[0], texts[1]))
			}
			if !bytes.Contains(texts[0], []byte(job.want)) {
				t.Fatalf("the timeline has no %q span", job.want)
			}
		})
	}
}

// TestStripedAbortLeavesNoGoroutine: a ship whose owner dies mid-staging
// never runs, so nothing joins the goroutine its peek started; that
// goroutine finishes on its own, and once the run is over the goroutine
// count is back where it was before.
func TestStripedAbortLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := goldenJob(t, "peer_rs")
	cfg.IterFailures = injectAt(cfg.WL, 5.01, 0, failure.GPUHard)
	res := mustRun(t, cfg)
	if !res.Completed || res.Peer.AbortedCaptures == 0 {
		t.Fatalf("completed %v with %d aborted captures, want a completed run with an abort",
			res.Completed, res.Peer.AbortedCaptures)
	}
	var n int
	for i := 0; i < 2000; i++ {
		if n = runtime.NumGoroutine(); n <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("%d goroutines after the run, %d before", n, base)
}
