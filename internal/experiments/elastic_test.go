package experiments

import (
	"strings"
	"testing"
)

// TestRunElasticSweep runs the MTBF × spare-count grid (one seed in
// short mode) and pins its structural invariants: every cell has rows
// for both policies, the elastic policy is the only one that shrinks,
// and any expand is preceded by at least one shrink in the same cell.
func TestRunElasticSweep(t *testing.T) {
	opt := DefaultElasticOptions()
	if testing.Short() {
		opt.Seeds = opt.Seeds[:1]
		opt.MTBFs = opt.MTBFs[:1]
	}
	rows, err := RunElasticSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(opt.MTBFs) * len(opt.Spares) * len(ElasticPolicies()); len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	sawShrink := false
	for _, r := range rows {
		if r.Runs != len(opt.Seeds) {
			t.Errorf("%v mtbf=%v spares=%d: runs = %d, want %d",
				r.Policy, r.MTBF, r.Spares, r.Runs, len(opt.Seeds))
		}
		if !r.Policy.Info().Elastic && (r.Shrinks > 0 || r.Expands > 0 || r.DegradedIters > 0) {
			t.Errorf("fixed-width %v mtbf=%v spares=%d recorded elastic transitions: %+v",
				r.Policy, r.MTBF, r.Spares, r)
		}
		if r.Expands > 0 && r.Shrinks == 0 {
			t.Errorf("%v mtbf=%v spares=%d expanded without shrinking", r.Policy, r.MTBF, r.Spares)
		}
		if r.Policy.Info().Elastic && r.Shrinks > 0 {
			sawShrink = true
		}
		if r.Completed > r.Runs || r.FullWidth > r.Completed {
			t.Errorf("inconsistent counts: %+v", r)
		}
	}
	if !sawShrink {
		t.Error("no elastic cell ever shrank — the sweep is not exercising degraded mode")
	}
	out := RenderElasticSweep(rows).Render()
	for _, p := range ElasticPolicies() {
		if !strings.Contains(out, p.String()) {
			t.Errorf("render missing policy %v", p)
		}
	}
	t.Logf("\n%s", out)
}
