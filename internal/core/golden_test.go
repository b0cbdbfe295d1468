package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"jitckpt/internal/failure"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace files in testdata/")

// goldenCats filters the golden timelines to the recovery narrative:
// run/incarnation/recovery structure, checkpoint activity, failure
// injection/detection, peer sheltering, and recovery phase breakdowns.
// Per-kernel gpu/cuda/nccl noise is covered by the determinism check
// (which uses the unfiltered log) but kept out of the checked-in files.
var goldenCats = []string{"core", "ckpt", "fail", "peer", "pipe", "phase", "elastic"}

// goldenScenarios pin one representative failure-recovery timeline per
// policy family. Each must stay byte-identical across runs and across
// code changes that do not intentionally alter event ordering.
var goldenScenarios = []struct {
	name string
	cfg  func() JobConfig
}{
	{"pc_disk", func() JobConfig {
		wl := testWL()
		return JobConfig{
			WL: wl, Policy: PolicyPCDisk, Iters: 12, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 2,
			CkptInterval: 5 * wl.Minibatch,
			IterFailures: injectAt(wl, 8.5, 1, failure.GPUHard),
		}
	}},
	{"userjit", func() JobConfig {
		wl := testWL()
		return JobConfig{
			WL: wl, Policy: PolicyUserJIT, Iters: 12, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 2,
			IterFailures: injectAt(wl, 5.3, 1, failure.GPUHard),
		}
	}},
	{"peer", func() JobConfig {
		wl := peerWL()
		return JobConfig{
			WL: wl, Policy: PolicyPeerShelter, Iters: 12, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 2,
			IterFailures: injectAt(wl, 5.5, 3, failure.NodeDown),
		}
	}},
	{"jit_peer", func() JobConfig {
		wl := peerWL()
		return JobConfig{
			WL: wl, Policy: PolicyJITWithPeer, Iters: 12, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 2,
			IterFailures: injectAt(wl, 5.5, 3, failure.NodeDown),
		}
	}},
	{"peer_rs", func() JobConfig {
		// Erasure-coded shelter: RS(2,1) striping, one node per failure
		// domain; the node loss erases one fragment host, so recovery
		// reconstructs from the surviving data+parity fragments.
		wl := peerWL()
		return JobConfig{
			WL: wl, Policy: PolicyPeerShelter, Iters: 12, Seed: 1,
			Peer: rsParams(), RackSize: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 2,
			IterFailures: injectAt(wl, 5.5, 3, failure.NodeDown),
		}
	}},
	{"multistep", func() JobConfig {
		// Gradient-reconciled multi-step overlapped disk checkpointing:
		// the restore merges slices captured at different iterations and
		// replays retained gradient deltas to the generation target.
		wl := testWL()
		return JobConfig{
			WL: wl, Policy: PolicyMultiStepDisk, Iters: 12, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 2,
			CkptInterval: 4 * wl.Minibatch, MultiStepSlices: 2,
			IterFailures: injectAt(wl, 8.5, 1, failure.GPUHard),
		}
	}},
	{"pipefree", func() JobConfig {
		// Checkpoint-free pipeline recovery: the node loss takes out one
		// stage, rebuilt from a neighbor's retained bundle with zero
		// checkpoint reads.
		wl := pipeWL()
		return JobConfig{
			WL: wl, Policy: PolicyPipeFree, Iters: 12, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 2,
			IterFailures: injectAt(wl, 5.5, 1, failure.NodeDown),
		}
	}},
	{"transparent", func() JobConfig {
		wl := testWL()
		return JobConfig{
			WL: wl, Policy: PolicyTransparentJIT, Iters: 12, Seed: 1,
			HangTimeout:  2 * vclock.Second,
			IterFailures: injectAt(wl, 5.3, 1, failure.NetworkHang),
		}
	}},
	{"transparent_sticky", func() JobConfig {
		// §4.2 strategy 3, mid-backward: the failed rank's proxy restarts
		// and its state is copied from a healthy replica's device.
		wl := testWL()
		return JobConfig{
			WL: wl, Policy: PolicyTransparentJIT, Iters: 12, Seed: 1,
			HangTimeout:  2 * vclock.Second,
			IterFailures: injectAt(wl, 5.5, 1, failure.GPUSticky),
		}
	}},
	{"transparent_corrupt", func() JobConfig {
		// §4.2 strategy 2: copy-to-host around a proxy restart.
		wl := testWL()
		return JobConfig{
			WL: wl, Policy: PolicyTransparentJIT, Iters: 12, Seed: 1,
			HangTimeout:  2 * vclock.Second,
			IterFailures: injectAt(wl, 5.5, 1, failure.DriverCorrupt),
		}
	}},
	{"transparent_hard", func() JobConfig {
		// §4.3: JIT checkpoint + CRIU migration onto the one spare node.
		wl := testWL()
		return JobConfig{
			WL: wl, Policy: PolicyTransparentJIT, Iters: 12, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 1,
			IterFailures: injectAt(wl, 5.5, 1, failure.GPUHard),
		}
	}},
	{"transparent_rollfwd", func() JobConfig {
		// §4.2.2: a fault inside the optimizer step rolls the failed rank
		// forward to next-minibatch state and swallows its remaining
		// mutations for the current one.
		wl := testWL()
		return JobConfig{
			WL: wl, Policy: PolicyTransparentJIT, Iters: 12, Seed: 1,
			HangTimeout:  2 * vclock.Second,
			IterFailures: injectAt(wl, 5.95, 1, failure.GPUSticky),
		}
	}},
	{"elastic", func() JobConfig {
		// Zero spares: the node failure forces a shrink to half width, the
		// repair at iteration 9 triggers the mid-run expand back to full.
		wl := testWL()
		return JobConfig{
			WL: wl, Policy: PolicyElasticJIT, Iters: 14, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 0,
			IterFailures: append(injectAt(wl, 5.5, 1, failure.NodeDown),
				IterInjection{Iter: 9, Frac: 0.5, Rank: 0, Kind: failure.NodeRepaired}),
		}
	}},
}

// tracedRun executes cfg with a fresh recorder and returns the recorder
// plus the filtered text timeline.
func tracedRun(t *testing.T, cfg JobConfig) (*trace.Recorder, []byte) {
	t.Helper()
	rec := trace.New()
	cfg.Recorder = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatalf("run did not complete: %+v", res.Accounting)
	}
	return rec, keepCats(fullText(t, rec), goldenCats)
}

// fullText renders the unfiltered timeline (every category).
func fullText(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteText(&buf, rec); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return buf.Bytes()
}

// keepCats keeps the timeline lines whose category — the third field, after
// any multi-run "rN" prefix — is one of cats.
func keepCats(text []byte, cats []string) []byte {
	var out []byte
	for _, ln := range bytes.SplitAfter(text, []byte("\n")) {
		f := bytes.Fields(ln)
		if len(f) > 0 && f[0][0] == 'r' {
			f = f[1:]
		}
		if len(f) > 2 && slices.Contains(cats, string(f[2])) {
			out = append(out, ln...)
		}
	}
	return out
}

// TestGoldenTraces runs each pinned scenario twice in-process and
// requires (a) the two complete, unfiltered timelines to be
// byte-identical — tracing itself is deterministic and does not perturb
// virtual time — and (b) the filtered timeline to match the checked-in
// golden in testdata/. Regenerate goldens with:
//
//	go test ./internal/core -run TestGoldenTraces -update
func TestGoldenTraces(t *testing.T) {
	for _, sc := range goldenScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			rec1, filtered := tracedRun(t, sc.cfg())
			rec2, filtered2 := tracedRun(t, sc.cfg())
			if full1, full2 := fullText(t, rec1), fullText(t, rec2); !bytes.Equal(full1, full2) {
				t.Fatalf("two in-process runs produced different traces (%d vs %d bytes):\n%s",
					len(full1), len(full2), firstDiff(full1, full2))
			}
			if !bytes.Equal(filtered, filtered2) {
				t.Fatal("filtered timelines differ between identical runs")
			}

			golden := filepath.Join("testdata", sc.name+".trace")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, filtered, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", golden, len(filtered))
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden %s (run with -update to create): %v", golden, err)
			}
			if !bytes.Equal(filtered, want) {
				t.Errorf("trace differs from golden %s (re-run with -update if the change is intentional):\n%s",
					golden, firstDiff(want, filtered))
			}
		})
	}
}

// firstDiff reports the first differing line between two timelines.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: %d vs %d", len(al), len(bl))
}
