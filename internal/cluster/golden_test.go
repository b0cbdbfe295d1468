package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden fleet trace in testdata/")

// fleetGoldenCats filters the pinned fleet timeline to the cluster
// narrative: the fleet span, per-tenant run/incarnation structure,
// cluster-scoped injections and detections, and elastic shrink /
// yield / expand decisions. Kernel-level noise is covered by the
// unfiltered determinism check.
var fleetGoldenCats = []string{"cluster", "core", "fail", "elastic"}

// goldenFleetConfig pins one representative fleet timeline: three
// tenants fill the cluster, a high-priority arrival preempts the
// elastic tenant out of its lease, then a RackDown fans out to the two
// tenants holding rack 0 and repairs bring the rack back.
func goldenFleetConfig() Config {
	plan := failure.Plan{Injections: []failure.Injection{
		{At: 1500 * vclock.Millisecond, Target: 0, Kind: failure.RackDown},
	}}
	for i := 0; i < 4; i++ {
		plan.Injections = append(plan.Injections, failure.Injection{
			At: 6*vclock.Second + vclock.Time(i)*vclock.Second, Target: i, Kind: failure.NodeRepaired,
		})
	}
	hi := fleetJob("hi", core.PolicyPCDisk, 5, 10)
	hi.StartAt = 500 * vclock.Millisecond
	return Config{
		Nodes: 6, PerNode: 2, RackSize: 4, Seed: 11, Horizon: 3 * vclock.Minute,
		Jobs: []JobSpec{
			fleetJob("d0", core.PolicyPCDisk, 0, 25),
			fleetJob("el", core.PolicyElasticJIT, 0, 120),
			fleetJob("d1", core.PolicyPCDisk, 0, 25),
			hi,
		},
		Failures: plan,
	}
}

// tracedFleetRun executes cfg with a fresh recorder and returns the
// result, the recorder, and the filtered text timeline.
func tracedFleetRun(t *testing.T, cfg Config) (*Result, *trace.Recorder, []byte) {
	t.Helper()
	rec := trace.New()
	cfg.Recorder = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, rec, keepCats(fullText(t, rec), fleetGoldenCats)
}

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

// TestGoldenFleetTrace runs the pinned fleet scenario twice in-process
// and requires (a) the two complete, unfiltered merged timelines to be
// byte-identical — a fleet of concurrent tenants on one environment is
// still fully deterministic — and (b) the filtered timeline to match
// the checked-in golden. Regenerate with:
//
//	go test ./internal/cluster -run TestGoldenFleetTrace -update
func TestGoldenFleetTrace(t *testing.T) {
	res1, rec1, filtered := tracedFleetRun(t, goldenFleetConfig())
	res2, rec2, filtered2 := tracedFleetRun(t, goldenFleetConfig())
	if full1, full2 := fullText(t, rec1), fullText(t, rec2); !bytes.Equal(full1, full2) {
		t.Fatalf("two in-process fleet runs produced different traces (%d vs %d bytes):\n%s",
			len(full1), len(full2), firstDiff(full1, full2))
	}
	if !bytes.Equal(filtered, filtered2) {
		t.Fatal("filtered timelines differ between identical runs")
	}
	if err := res1.Reconcile(); err != nil {
		t.Fatal(err)
	}
	// The scenario must actually exercise the fleet paths it pins.
	if res1.Fleet.Preemptions == 0 {
		t.Error("golden scenario recorded no preemption")
	}
	if res1.Fleet.RecoveryEpisodes < 2 {
		t.Errorf("golden scenario recorded %d recovery episodes, want >=2 (rack fan-out)",
			res1.Fleet.RecoveryEpisodes)
	}
	_ = res2

	golden := filepath.Join("testdata", "fleet.trace")
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
		t.Errorf("fleet trace differs from golden %s (re-run with -update if the change is intentional):\n%s",
			golden, firstDiff(want, filtered))
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
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
