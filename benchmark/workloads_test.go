package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"jitckpt/internal/cluster"
	"jitckpt/internal/core"
	"jitckpt/internal/experiments"
	"jitckpt/internal/vclock"
)

// At seed 1 the chaos grid's first variant and the fleet are exactly what
// experiments.RunBench times, so the legacy chaos_grid_wall_ms and
// fleet500_wall_ms name the same simulations as this benchmark's.
func TestSeedOneEqualsRunBench(t *testing.T) {
	want := experiments.DefaultChaosOptions()
	want.Workers = 1
	if got := chaosOptions(1, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("chaosOptions(1, 0) = %+v, want RunBench's %+v", got, want)
	}

	jobs, err := cluster.ParseJobsSpec("250xpc_disk,150xjit+elastic,100xuserjit", experiments.FleetPolicies(), 25)
	if err != nil {
		t.Fatal(err)
	}
	wantFleet := cluster.Config{
		Nodes: 1100, PerNode: 2, RackSize: 4, Seed: 1,
		Horizon: 4 * vclock.Minute, Jobs: jobs,
	}
	got, err := fleetConfig(1, fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantFleet) {
		t.Errorf("fleetConfig(1) differs from RunBench's fleet point")
	}
	if len(got.Jobs) != 500 {
		t.Errorf("fleet has %d tenants, want 500", len(got.Jobs))
	}
}

// The seed is the only source of variation: the same seed builds the same
// inputs, another seed builds different ones, and no two (seed, variant)
// pairs of the chaos grid share a chaos seed.
func TestConfigsDeterministicInSeed(t *testing.T) {
	seen := map[int64]string{}
	for seed := int64(1); seed <= 3; seed++ {
		for v := 0; v < chaosVariants; v++ {
			a, b := chaosOptions(seed, v), chaosOptions(seed, v)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("chaosOptions(%d, %d) is not deterministic", seed, v)
			}
			for _, s := range a.Seeds {
				if prev, dup := seen[s]; dup {
					t.Errorf("chaos seed %d used by %s and by seed=%d variant=%d", s, prev, seed, v)
				}
				seen[s] = fmt.Sprintf("seed=%d variant=%d", seed, v)
			}
		}
	}

	a, b := wideConfigs(7), wideConfigs(7)
	if !reflect.DeepEqual(a, b) {
		t.Error("wideConfigs(7) is not deterministic")
	}
	if reflect.DeepEqual(wideConfigs(7), wideConfigs(8)) {
		t.Error("wideConfigs ignores the seed")
	}
	if len(a) != 4 {
		t.Fatalf("wide_state has %d jobs, want 4", len(a))
	}
	policies := []core.Policy{core.PolicyPeerShelter, core.PolicyMultiStepDisk, core.PolicyPCDisk, core.PolicyUserJIT}
	for i, cfg := range a {
		if cfg.Policy != policies[i] {
			t.Errorf("job %d policy = %v, want %v", i, cfg.Policy, policies[i])
		}
		if cfg.WL.Hidden != 128 || cfg.WL.Layers != 4 || cfg.Iters != wideIters ||
			cfg.CkptInterval != 4*cfg.WL.Minibatch || cfg.RackSize != 1 || cfg.SpareNodes != 4 || cfg.Seed != 7 {
			t.Errorf("job %d config = %+v", i, cfg)
		}
		if len(cfg.IterFailures) == 0 {
			t.Errorf("job %d has no fault", i)
		}
	}
	if a[0].Peer == nil || a[0].Peer.DataShards != 4 || a[0].Peer.ParityShards != 2 {
		t.Errorf("shelter job is not RS(4,2): %+v", a[0].Peer)
	}
	if len(a[0].IterFailures) != 3 {
		t.Errorf("shelter job downs %d nodes, want both owners of position 0 plus one shelter host", len(a[0].IterFailures))
	}
	// Every seed's faults stay where the outcome checks hold: never on the
	// loss-reporting reference rank, the shelter's early enough to decode.
	wl := wideWorkload()
	refRank := wl.Topo.Rank(0, wl.Topo.P-1, 0)
	ranks := map[int]bool{}
	for seed := int64(1); seed <= 500; seed++ {
		for i, cfg := range wideConfigs(seed) {
			lo, hi := 0.1, 0.9
			if i == 0 {
				hi = 0.7
			}
			for _, inj := range cfg.IterFailures {
				if inj.Frac < lo || inj.Frac > hi {
					t.Fatalf("seed %d job %d: fault at Frac %g, want [%g, %g]", seed, i, inj.Frac, lo, hi)
				}
				if i > 0 {
					if inj.Rank == refRank || inj.Rank < 0 || inj.Rank >= wl.Topo.World() {
						t.Fatalf("seed %d job %d: fault on rank %d (reference rank %d)", seed, i, inj.Rank, refRank)
					}
					ranks[inj.Rank] = true
				}
			}
		}
	}
	if len(ranks) != wl.Topo.World()-1 {
		t.Errorf("faults reach %d ranks over 500 seeds, want every rank but the reference", len(ranks))
	}

	f1, err := fleetConfig(1, fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fleetConfig(2, fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Seed != 1 || f2.Seed != 2 {
		t.Errorf("fleet seeds = %d, %d", f1.Seed, f2.Seed)
	}
}

func TestWorkloadTable(t *testing.T) {
	names := map[string]bool{}
	for _, w := range workloads() {
		if names[w.name] {
			t.Errorf("workload %q listed twice", w.name)
		}
		names[w.name] = true
		if w.minCycles < 1 || w.tracedCycles < 1 || w.build == nil || w.why == "" {
			t.Errorf("workload %q is incomplete: %+v", w.name, w)
		}
	}
	for _, want := range []string{"chaos_grid", "paper_tables", "fleet500", "wide_state"} {
		if !names[want] {
			t.Errorf("workload %q missing", want)
		}
	}
	if w, _ := workloadByName("fleet500"); w.warmup || w.minCycles < 3 {
		t.Errorf("fleet500 must run cold and never fewer than 3 passes: %+v", w)
	}
}

func TestPaperError(t *testing.T) {
	t4 := []experiments.Table4Row{{Model: "BERT-L-PT", Recovery: vclock.Seconds(14.8 * 1.10)}}
	t5 := []experiments.Table5Row{{Model: "GPT2-S/V100x8", Recovery: vclock.Seconds(9.1)}}
	t6 := []experiments.Table6Row{{Model: "GPT2-S/V100x8", Healthy: vclock.Seconds(23.97 * 0.90), Failed: vclock.Seconds(20.85)}}
	got, missing := paperError(t4, t5, t6)
	if len(missing) != 0 {
		t.Errorf("missing = %v", missing)
	}
	if want := (10.0 + 0 + 10.0 + 0) / 4; got < want-1e-6 || got > want+1e-6 {
		t.Errorf("paperError = %v, want %v", got, want)
	}
	_, missing = paperError([]experiments.Table4Row{{Model: "no-such-model"}}, nil, nil)
	if len(missing) != 1 {
		t.Errorf("unknown model not reported: %v", missing)
	}
	// Every model the tables can run has an embedded reference value.
	for _, m := range experiments.Table4Models() {
		if _, ok := paperTable4Recovery[m]; !ok {
			t.Errorf("no Table 4 paper value for %s", m)
		}
	}
	for _, m := range experiments.Table5Models() {
		if _, ok := paperTable5Recovery[m]; !ok {
			t.Errorf("no Table 5 paper value for %s", m)
		}
	}
	for _, m := range experiments.Table6Models() {
		if _, ok := paperTable6[m]; !ok {
			t.Errorf("no Table 6 paper value for %s", m)
		}
	}
}

// A failed check never aborts a run: it is counted, and reported with the
// configuration that produced it. A digest that changes between passes of
// the same input is a failure too.
func TestFailureAccounting(t *testing.T) {
	calls := 0
	inst := &instance{
		variants: 1, runsPerPass: 3,
		config: func(int) string { return "cfg-under-test" },
		pass: func(int, *tracer) passResult {
			calls++
			res := passResult{runs: 3, digest: 42}
			switch calls {
			case 2:
				res.fail("run %d diverged", 7)
			case 3:
				res.digest = 43
			}
			return res
		},
	}
	b := &built{inst: inst, refDigest: make([]uint64, 1), haveRef: make([]bool, 1), refKernel: make([]kernelCount, 1)}
	for i := 0; i < 4; i++ {
		b.measure(0, nil)
	}
	if b.attempted != 12 || b.failed != 2 {
		t.Fatalf("attempted=%d failed=%d, want 12 and 2", b.attempted, b.failed)
	}
	if len(b.failures) != 2 {
		t.Fatalf("failures = %v", b.failures)
	}
	for _, f := range b.failures {
		if !strings.Contains(f, "cfg-under-test") {
			t.Errorf("failure %q does not carry the run's config", f)
		}
	}
}

// -passes 1 smoke of the two cheap workloads: every run verified, every
// end-to-end metric positive, and the same seed reproduces the same
// simulated outcome.
func TestSmokeTimed(t *testing.T) {
	for _, name := range []string{"chaos_grid", "wide_state"} {
		def, _ := workloadByName(name)
		var digests [2]string
		for i := range digests {
			res, err := runTimed(def, 1, time.Hour, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s: attempted=%d failed=%d %v", name, res.Attempted, res.Failed, res.Failures)
			}
			for k, v := range res.values() {
				if !(v > 0) {
					t.Errorf("%s: %s = %v, want > 0", name, k, v)
				}
			}
			if res.Cycles != 1 || res.RunsPerPass == 0 || res.Events == 0 || res.SimTimeS == 0 {
				t.Errorf("%s: %+v", name, res)
			}
			line := res.resultLine()
			if !line.Correct || len(line.Metrics) != len(endToEnd) {
				t.Errorf("%s: result line %+v", name, line)
			}
			digests[i] = res.Digest
			if testing.Short() {
				break
			}
		}
		if !testing.Short() && digests[0] != digests[1] {
			t.Errorf("%s: two runs at seed 1 gave digests %s and %s", name, digests[0], digests[1])
		}
	}
}

// The expensive workloads and the traced phase are skipped under -short.
func TestSmokeTimedExpensive(t *testing.T) {
	if testing.Short() {
		t.Skip("paper_tables and fleet500 take tens of seconds")
	}
	for _, name := range []string{"paper_tables", "fleet500"} {
		def, _ := workloadByName(name)
		res, err := runTimed(def, 2, time.Hour, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: attempted=%d failed=%d %v", name, res.Attempted, res.Failed, res.Failures)
		}
		if name == "paper_tables" && !(res.PaperErrPct > 0 && res.PaperErrPct < 10) {
			t.Errorf("paper_err_pct = %v, want a few percent", res.PaperErrPct)
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced phase runs every probe: about a minute")
	}
	def, _ := workloadByName("wide_state")
	res, err := runTraced(def, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed=%d %v", res.Failed, res.Failures)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("traced result lacks %s", d.Name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced result has %d metrics, registry has %d", len(res.Metrics), len(perLayer))
	}
	m := res.Metrics
	if m["profile.attributed_pct"] < 95 {
		t.Errorf("attributed %.1f%% of CPU samples, want >= 95", m["profile.attributed_pct"])
	}
	if m["peerckpt.encodes"] == 0 || m["peerckpt.decodes"] == 0 || m["vclock.events"] == 0 || m["trace.events"] == 0 {
		t.Errorf("counts missing: %v", m)
	}
	if m["erasure.cpu_pct"]+m["stdlib.fnv_pct"]+m["stdlib.gob_pct"] < 25 {
		t.Errorf("wide_state byte work is %.1f%% of CPU, want > 25", m["erasure.cpu_pct"]+m["stdlib.fnv_pct"]+m["stdlib.gob_pct"])
	}
	if m["proxy.cpu_pct"] >= 1 {
		t.Errorf("proxy share on wide_state = %.2f%%, want < 1", m["proxy.cpu_pct"])
	}
	for _, probe := range []string{"vclock.sleep_cycle_ns", "proxy.rpc_roundtrip_ns", "erasure.encode_mbps_k4m2", "cluster.scale_ratio", "core.run_fixed_ms"} {
		if !(m[probe] > 0) {
			t.Errorf("probe %s = %v", probe, m[probe])
		}
	}
	if res.SpanFile == "" || len(res.ProfileFiles) == 0 {
		t.Error("traced phase wrote no span or profile file")
	}
}
