package core

import (
	"fmt"
	"math/rand"
	"testing"

	"jitckpt/internal/failure"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// reconciled runs cfg under the recorder and asserts the scalar
// accounting agrees with the trace: useful + wasted == wall time, the
// traced core/run span has the same duration, and the wasted fraction is
// a valid fraction.
func reconciled(t *testing.T, cfg JobConfig) (*RunResult, *trace.Query) {
	t.Helper()
	res, q := checkedRun(t, cfg)
	if err := trace.ReconcileAccounting(q, res.Accounting.Useful, res.Accounting.Wasted(), res.WallTime); err != nil {
		t.Fatalf("reconcile: %v (%s)", err, res.Accounting.String())
	}
	if wf := res.Accounting.WastedFraction(); wf < 0 || wf > 1 {
		t.Fatalf("wasted fraction %v outside [0,1]", wf)
	}
	return res, q
}

// TestEndAtCompletionWhenPlanOutlivesRun: a run whose failure plan still
// holds a fault when it completes ends at its completion, the end of its
// last incarnation, and the fault never lands.
func TestEndAtCompletionWhenPlanOutlivesRun(t *testing.T) {
	wl := testWL()
	res, q := reconciled(t, JobConfig{
		WL: wl, Policy: PolicyUserJIT, Iters: 12, Seed: 1,
		HangTimeout: 2 * vclock.Second, SpareNodes: 2,
		IterFailures: injectAt(wl, 5.3, 1, failure.GPUHard),
		Failures:     failure.Plan{Injections: []failure.Injection{{At: 10 * vclock.Minute, Target: 0, Kind: failure.GPUHard}}},
	})
	if !res.Completed || res.End != EndCompleted {
		t.Fatalf("completed=%v end=%v, want a completed run", res.Completed, res.End)
	}
	incs := q.Spans("core", "incarnation")
	if last := incs[len(incs)-1]; last.Args["end"] != "completed" || res.WallTime != last.End {
		t.Errorf("wall %v, want the completed incarnation's end (%v, end=%s)", res.WallTime, last.End, last.Args["end"])
	}
	for _, name := range []string{"inject", "inject-skip"} {
		for _, in := range q.Instants("fail", name) {
			if in.T > res.WallTime {
				t.Errorf("fail/%s %s at %v, after the run ended at %v", name, in.Args["kind"], in.T, res.WallTime)
			}
		}
	}
}

// TestEndAtHorizon: a private run still training at its horizon ends
// there, its incarnation closed at the horizon too, with exact accounting.
func TestEndAtHorizon(t *testing.T) {
	const horizon = 2 * vclock.Second
	res, q := reconciled(t, JobConfig{
		WL: testWL(), Policy: PolicyUserJIT, Iters: 1000, Seed: 1, Horizon: horizon,
	})
	if res.Completed || res.End != EndHorizon || res.WallTime != horizon {
		t.Fatalf("completed=%v end=%v wall=%v, want a run cut at its horizon %v", res.Completed, res.End, res.WallTime, horizon)
	}
	incs := q.Spans("core", "incarnation")
	if last := incs[len(incs)-1]; last.Open || last.End != horizon || last.Args["end"] != "horizon" {
		t.Errorf("last incarnation ends at %v with end=%s (open %v), want the horizon", last.End, last.Args["end"], last.Open)
	}
}

// TestAccountingReconcilesWithTrace checks, for one representative
// scenario per policy family, that the run's wasted-work accounting is
// exactly the traced wall time minus useful time — nothing is counted
// twice and nothing falls between the categories.
func TestAccountingReconcilesWithTrace(t *testing.T) {
	wl := testWL()
	const iters = 12
	cases := []struct {
		name string
		cfg  JobConfig
	}{
		{"none-failure-free", JobConfig{
			WL: wl, Policy: PolicyNone, Iters: iters, Seed: 1,
		}},
		{"pc_disk-hard", JobConfig{
			WL: wl, Policy: PolicyPCDisk, Iters: iters, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 2,
			CkptInterval: 5 * wl.Minibatch,
			IterFailures: injectAt(wl, 8.5, 1, failure.GPUHard),
		}},
		{"userjit-hard", JobConfig{
			WL: wl, Policy: PolicyUserJIT, Iters: iters, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 2,
			IterFailures: injectAt(wl, 5.3, 1, failure.GPUHard),
		}},
		{"transparent-hang", JobConfig{
			WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1,
			HangTimeout:  2 * vclock.Second,
			IterFailures: injectAt(wl, 5.3, 1, failure.NetworkHang),
		}},
		{"transparent-hard", JobConfig{
			WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1,
			HangTimeout: 2 * vclock.Second, SpareNodes: 2,
			IterFailures: injectAt(wl, 5.3, 1, failure.GPUHard),
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, _ := reconciled(t, tc.cfg)
			if !res.Completed {
				t.Fatal("did not complete")
			}
		})
	}
}

// TestAccountingReconcilesRandomized is the property form: across seeded
// random failure placements (kind, rank, sub-iteration timing all drawn
// from the seed), accounting must reconcile exactly with the trace for
// every run that terminates — completed or not.
func TestAccountingReconcilesRandomized(t *testing.T) {
	wl := testWL()
	const iters = 14
	kinds := []failure.Kind{
		failure.NetworkHang, failure.GPUSticky, failure.DriverCorrupt, failure.GPUHard,
	}
	n := 8
	if testing.Short() {
		n = 3
	}
	for i := 0; i < n; i++ {
		i := i
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(i)*7919 + 13))
			inj := IterInjection{
				Iter: 2 + rng.Intn(iters-4),
				Frac: 0.05 + 0.9*rng.Float64(),
				Rank: 1 + rng.Intn(wl.Topo.World()-1),
				Kind: kinds[rng.Intn(len(kinds))],
			}
			res, _ := reconciled(t, JobConfig{
				WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1,
				HangTimeout: 2 * vclock.Second, SpareNodes: 3,
				IterFailures: []IterInjection{inj},
			})
			if !res.Completed {
				t.Fatalf("did not complete (injection %+v)", inj)
			}
		})
	}
}

// TestTable7PhasesMatchTraceSpans reconciles the Table 7 recovery
// breakdown with the trace: the report's per-phase durations are the
// exemplar healthy rank's phase-timer marks, each of which is also
// emitted as a "phase"-category span on that rank's lane — so some rank's
// per-lane span sums must reproduce the report exactly.
func TestTable7PhasesMatchTraceSpans(t *testing.T) {
	wl := testWL()
	const iters = 12
	for _, tc := range []struct {
		name string
		kind failure.Kind
	}{
		{"transient", failure.NetworkHang},
		{"sticky", failure.GPUSticky},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, q := reconciled(t, JobConfig{
				WL: wl, Policy: PolicyTransparentJIT, Iters: iters, Seed: 1,
				HangTimeout: 2 * vclock.Second, SpareNodes: 2,
				IterFailures: injectAt(wl, 5.3, 1, tc.kind),
			})
			if !res.Completed || len(res.Reports) != 1 {
				t.Fatalf("completed=%v reports=%d", res.Completed, len(res.Reports))
			}
			rep := res.Reports[0]
			if len(rep.Phases) == 0 {
				t.Fatal("report has no phase breakdown")
			}
			matched := false
			for r := 0; r < wl.Topo.World(); r++ {
				sums := q.SpanSums("phase", trace.Rank(r))
				ok := len(sums) > 0
				for _, ph := range rep.Phases {
					if sums[ph.Name] != ph.Dur {
						ok = false
						break
					}
				}
				if ok {
					matched = true
					break
				}
			}
			if !matched {
				t.Fatalf("no rank's traced phase spans reproduce the report %+v", rep.Phases)
			}
		})
	}
}
