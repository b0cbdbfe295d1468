package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"jitckpt/internal/core"
	"jitckpt/internal/vclock"
)

var updateDocs = flag.Bool("update", false, "rewrite docs/jitbench_output.txt and EXPERIMENTS.md's generated tables")

const (
	jitbenchOutput = "../../docs/jitbench_output.txt"
	experimentsDoc = "../../EXPERIMENTS.md"
)

// TestJitbenchOutput renders every registry entry at full size, as
// `jitbench` with no flags does, and compares each with its section of
// the checked-in output. Table 12's 500-tenant headline cell is the slow
// one (about 22 s serial, 15 s on two workers), so -short skips that
// entry. Regenerate with
//
//	go test ./internal/experiments -run TestJitbenchOutput -update
func TestJitbenchOutput(t *testing.T) {
	b, err := os.ReadFile(jitbenchOutput)
	if err != nil {
		t.Fatal(err)
	}
	// jitbench prints each table followed by one blank line.
	golden := strings.SplitAfter(string(b), "\n\n")
	if !*updateDocs && len(golden) != len(Tables())+1 {
		t.Fatalf("%s holds %d tables, the registry %d", jitbenchOutput, len(golden)-1, len(Tables()))
	}
	opt := DefaultOptions()
	opt.Workers = 2
	var out strings.Builder
	for i, e := range Tables() {
		if testing.Short() && e.Num == 12 && !*updateDocs {
			continue
		}
		tab, err := e.Run(TableRun{Options: opt})
		if err != nil {
			t.Fatalf("%s: %v", e.Title, err)
		}
		got := tab.Render() + "\n"
		out.WriteString(got)
		if !*updateDocs && got != golden[i] {
			t.Errorf("%s differs from %s (re-run with -update if the change is intentional):\n%s",
				e.Title, jitbenchOutput, got)
		}
	}
	if *updateDocs {
		if err := os.WriteFile(jitbenchOutput, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// paperTable3 is the paper's Table 3 as printed: PC_disk, PC_mem,
// CheckFreq, PC_1/day and JIT-C overheads in percent.
var paperTable3 = map[string][5]string{
	"GPT2-S":    {"0.042", "0.042", "0.024", "0.004", "0.0024"},
	"GPT2-XL":   {"0.093", "0.078", "0.047", "0.007", "0"},
	"GPT2-8B":   {"0.216", "0.186", "0.111", "0.02", "0"},
	"GPT2-18B":  {"0.330", "0.275", "0.166", "0.02", "0"},
	"BERT-L-PT": {"0.070", "0.068", "0.031", "0.005", "0.0076"},
	"BERT-B-FT": {"0.039", "0.036", "0.026", "0.0016", "0"},
}

// paperTable4 is the paper's Table 4 as printed: checkpoint, restore and
// JIT recovery in seconds.
var paperTable4 = map[string][3]string{
	"BERT-L-PT": {"5.0", "9.9", "14.8"},
	"BERT-B-FT": {"1.4", "8.8", "10.1"},
	"GPT2-S":    {"3.8", "7.2", "10.35"},
	"GPT2-XL":   {"6.7", "14.0", "20.6"},
	"GPT2-8B":   {"18.8", "28.6", "46.9"},
	"GPT2-18B":  {"20.5", "34.2", "54.8"},
	"T5-3B":     {"7.6", "35.25", "42.65"},
	"ViT":       {"4.6", "20.2", "24.4"},
}

// paperTable8 is the paper's Table 8 as printed: c* (/hr) and the periodic
// wasted fraction at each of Table8Ns.
var paperTable8 = map[string][]string{
	"BERT-L-PT": {"0.34", "0.096%", "5.54", "1.53%", "15.6", "4.5%"},
	"BERT-B-FT": {"0.65", "0.05%", "10.47", "0.83%", "29.62", "2.41%"},
	"GPT2-S":    {"0.39", "0.08%", "6.35", "1.34%", "17.98", "3.78%"},
	"GPT2-8B":   {"0.17", "0.18%", "2.85", "2.96%", "8.08", "8.24%"},
}

// paperTable5 is the paper's Table 5 as printed: transient recovery in
// seconds.
var paperTable5 = map[string]string{
	"BERT-B-FT/V100x8": "2.1", "GPT2-S/V100x8": "9.1", "GPT2-S-3D": "16.4", "PyramidNet/V100x8": "1.9",
	"BERT-B-FT/A100x4": "2.6", "GPT2-S/A100x4": "11.8",
}

// paperTable6 is the paper's Table 6 as printed: healthy-rank and
// failed-rank recovery in seconds.
var paperTable6 = map[string][2]string{
	"BERT-B-FT/V100x8":  {"25.72", "21.02"},
	"GPT2-S/V100x8":     {"23.97", "20.85"},
	"GPT2-S-3D":         {"23.07", "18.11"},
	"PyramidNet/V100x8": {"38.42", "30.34"},
	"BERT-B-FT/A100x4":  {"17.19", "9.09"},
	"GPT2-S/A100x4":     {"14.68", "8.55"},
	"PyramidNet/A100x4": {"28.79", "17.56"},
}

// paperTable7 is the paper's Table 7 as printed: one rank's transient
// recovery steps in seconds, by phase, in Table7Models' order.
var paperTable7 = map[string][4]string{
	"teardown":         {"1.013", "0.779", "0.831", "0.850"},
	"reset-buffers":    {"0.001", "0.001", "0.001", "0.002"},
	"recreate-handles": {"0.006", "0.004", "0.004", "0.027"},
	"comm-init":        {"1.054", "8.340", "15.54", "1.038"},
	"replay":           {"0.006", "0.004", "0.002", "0.004"},
}

// Factor ranges of EXPERIMENTS.md's and README.md's Table 8 claim: at the
// largest N, optimal-frequency periodic wastes this many times what user
// JIT and transparent JIT waste.
const (
	userJITFactorLo, userJITFactorHi         = 14, 27
	transparentFactorLo, transparentFactorHi = 290, 1100
)

// claim is one of EXPERIMENTS.md's shape claims as a predicate over the
// rows: nil when it holds, else the row that breaks it.
type claim[R any] struct {
	name  string
	check func([]R) error
}

// Table 3's claims. In the ordering, a ≫ b means a is at least
// muchGreater times b: CheckFreq ÷ PC_1/day is 6.6 at its lowest (GPT2-8B),
// and JIT-C measures zero. The magnitudes: every PC_disk, PC_mem, CheckFreq
// and PC_1/day cell within table3Tol of the paper, except CheckFreq on
// BERT-L-PT, which must be 40–50% high (it measures 0.0455 against 0.031).
const (
	muchGreater = 5
	table3Tol   = 0.17
)

var table3Claims = []claim[Table3Row]{
	{"PC_disk ≥ PC_mem > CheckFreq ≫ PC_1/day ≫ JIT-C on every model", func(rows []Table3Row) error {
		for _, r := range rows {
			if !(r.PCDisk >= r.PCMem && r.PCMem > r.CheckFreq &&
				r.CheckFreq >= muchGreater*r.PCDaily && r.PCDaily >= muchGreater*r.JITC) {
				return fmt.Errorf("%s: %.4g, %.4g, %.4g, %.4g, %.4g", r.Model, r.PCDisk, r.PCMem, r.CheckFreq, r.PCDaily, r.JITC)
			}
		}
		return nil
	}},
	{fmt.Sprintf("within %.0f%% of the paper but CheckFreq on BERT-L-PT", 100*table3Tol), func(rows []Table3Row) error {
		for _, r := range rows {
			p := paperTable3[r.Model]
			for i, ours := range []float64{r.PCDisk, r.PCMem, r.CheckFreq, r.PCDaily} {
				off := 100*ours/paperVal(p[i]) - 1
				lo, hi := -table3Tol, table3Tol
				if r.Model == "BERT-L-PT" && i == 2 {
					lo, hi = 0.40, 0.50
				}
				if off < lo || off > hi {
					return fmt.Errorf("%s column %d: %.4g%% is %+.0f%% off the paper's %s%%", r.Model, i+1, 100*ours, 100*off, p[i])
				}
			}
		}
		return nil
	}},
}

var table4Claims = []claim[Table4Row]{
	{"checkpoint and restore within 0.1 s of the paper", func(rows []Table4Row) error {
		for _, r := range rows {
			p := paperTable4[r.Model]
			if d := math.Abs(r.Ckpt.Sec() - paperVal(p[0])); d > 0.1 {
				return fmt.Errorf("%s checkpoint %.2f is %.2f s off %s", r.Model, r.Ckpt.Sec(), d, p[0])
			}
			if d := math.Abs(r.Restore.Sec() - paperVal(p[1])); d > 0.1 {
				return fmt.Errorf("%s restore %.2f is %.2f s off %s", r.Model, r.Restore.Sec(), d, p[1])
			}
		}
		return nil
	}},
	{"recovery within 1 s of the paper", func(rows []Table4Row) error {
		for _, r := range rows {
			p := paperTable4[r.Model]
			if d := math.Abs(r.Recovery.Sec() - paperVal(p[2])); d > 1 {
				return fmt.Errorf("%s recovery %.2f is %.2f s off %s", r.Model, r.Recovery.Sec(), d, p[2])
			}
		}
		return nil
	}},
}

var table5Claims = []claim[Table5Row]{
	{"steady-state overhead ≤10 µs per minibatch", func(rows []Table5Row) error {
		for _, r := range rows {
			if r.Overhead > 10e-6 {
				return fmt.Errorf("%s: %.1f µs per minibatch", r.Model, 1e6*r.Overhead)
			}
		}
		return nil
	}},
}

// table6HealthyTol bounds Table 6's healthy-rank times on the V100 node
// against the paper's, in seconds.
const table6HealthyTol = 0.5

var table6Claims = []claim[Table6Row]{
	{"healthy > failed on every row", func(rows []Table6Row) error {
		for _, r := range rows {
			if r.Healthy <= r.Failed {
				return fmt.Errorf("%s: healthy %.2f ≤ failed %.2f", r.Model, r.Healthy.Sec(), r.Failed.Sec())
			}
		}
		return nil
	}},
	{fmt.Sprintf("healthy within %.1f s of the paper on the V100 rows", table6HealthyTol), func(rows []Table6Row) error {
		for _, r := range rows {
			p := paperTable6[r.Model][0]
			if d := math.Abs(r.Healthy.Sec() - paperVal(p)); strings.HasPrefix(r.GPU, "V100") && d > table6HealthyTol {
				return fmt.Errorf("%s healthy %.2f is %.2f s off %s", r.Model, r.Healthy.Sec(), d, p)
			}
		}
		return nil
	}},
}

var table7Claims = []claim[Table7Breakdown]{
	{"communicator re-initialization is the largest step", func(rows []Table7Breakdown) error {
		for _, b := range rows {
			for _, ph := range Table7PhaseOrder {
				if ph != "comm-init" && step(b, ph) >= step(b, "comm-init") {
					return fmt.Errorf("%s: %s %.3f ≥ comm-init %.3f", b.Model, ph, step(b, ph).Sec(), step(b, "comm-init").Sec())
				}
			}
		}
		return nil
	}},
	{"replay takes under 10 ms", func(rows []Table7Breakdown) error {
		for _, b := range rows {
			if d := step(b, "replay"); d >= 10*vclock.Millisecond {
				return fmt.Errorf("%s: replay %.4f s", b.Model, d.Sec())
			}
		}
		return nil
	}},
}

var table8Claims = []claim[Table8Row]{
	{"user JIT wastes less than periodic at every N", func(rows []Table8Row) error {
		for _, r := range rows {
			if r.WfUserJIT >= r.WfPeriodic {
				return fmt.Errorf("%s N=%d: user JIT %.4g ≥ periodic %.4g", r.Model, r.N, r.WfUserJIT, r.WfPeriodic)
			}
		}
		return nil
	}},
	{"transparent JIT wastes at most user JIT", func(rows []Table8Row) error {
		for _, r := range rows {
			if r.WfTransparentJIT > r.WfUserJIT {
				return fmt.Errorf("%s N=%d: transparent JIT %.4g > user JIT %.4g", r.Model, r.N, r.WfTransparentJIT, r.WfUserJIT)
			}
		}
		return nil
	}},
	{fmt.Sprintf("user JIT wastes %s less than periodic at the largest N", factorRange(userJITFactorLo, userJITFactorHi)), func(rows []Table8Row) error {
		return factorAtLargestN(rows, func(r Table8Row) float64 { return r.WfUserJIT }, userJITFactorLo, userJITFactorHi)
	}},
	{fmt.Sprintf("transparent JIT wastes %s less than periodic at the largest N", factorRange(transparentFactorLo, transparentFactorHi)), func(rows []Table8Row) error {
		return factorAtLargestN(rows, func(r Table8Row) float64 { return r.WfTransparentJIT }, transparentFactorLo, transparentFactorHi)
	}},
}

// fleetSpare is one of Table 12's spare-effect claims as EXPERIMENTS.md
// quotes it: on the periodic rows at mtbf, going from no spares to the
// largest spare fraction, the completions (none quoted when empty) and the
// worst p95 recovery latency in seconds, to the digits quoted.
type fleetSpare struct {
	mtbf      vclock.Time
	completed [2]string
	p95       [2]string
}

var (
	fleetSpare20 = fleetSpare{20 * vclock.Second, [2]string{"3/24", "5/24"}, [2]string{"27", "3.8"}}
	fleetSpare90 = fleetSpare{90 * vclock.Second, [2]string{}, [2]string{"14", "1.4"}}
)

// Table 12's other quoted figures: the completion range at 90 s MTBF, and
// the preemptions at the failure-heavy corner (the mixed fleet at the
// shortest MTBF with no spares).
const (
	fleetCompleted90       = "17–24/24"
	fleetCornerPreemptions = 9
)

// prose is how the documents quote the claim.
func (f fleetSpare) prose() string { return fmt.Sprintf("≈%s s → ≈%s s", f.p95[0], f.p95[1]) }

// check holds the claim over rows.
func (f fleetSpare) check(rows []FleetRow) error {
	fracs := DefaultFleetOptions().SpareFracs
	for i, frac := range []float64{fracs[0], fracs[len(fracs)-1]} {
		r, err := fleetRow(rows, "periodic", f.mtbf, frac)
		if err != nil {
			return err
		}
		if got := fmt.Sprintf("%d/%d", r.Completed, r.Jobs*r.Runs); f.completed[i] != "" && got != f.completed[i] {
			return fmt.Errorf("periodic at %v, %.0f%% spare: %s completed, not %s", f.mtbf, 100*frac, got, f.completed[i])
		}
		digits := 0
		if _, frac, ok := strings.Cut(f.p95[i], "."); ok {
			digits = len(frac)
		}
		if got := fmt.Sprintf("%.*f", digits, r.P95Latency.Sec()); got != f.p95[i] {
			return fmt.Errorf("periodic at %v, %.0f%% spare: p95 %v is not ≈%s s", f.mtbf, 100*frac, r.P95Latency, f.p95[i])
		}
	}
	return nil
}

// fleetRow finds the sweep's row for one cell of the 12-tenant grid.
func fleetRow(rows []FleetRow, mix string, mtbf vclock.Time, frac float64) (FleetRow, error) {
	for _, r := range rows {
		if r.Mix == mix && r.MTBF == mtbf && r.SpareFrac == frac && r.Jobs == DefaultFleetOptions().Jobs {
			return r, nil
		}
	}
	return FleetRow{}, fmt.Errorf("no %s row at %v, %.0f%% spare", mix, mtbf, 100*frac)
}

var table12Claims = []claim[FleetRow]{
	{fmt.Sprintf("at 20 s MTBF spares take periodic completions from %s to %s and the p95 from %s",
		fleetSpare20.completed[0], fleetSpare20.completed[1], fleetSpare20.prose()), fleetSpare20.check},
	{fmt.Sprintf("at 90 s MTBF completions are %s and spares take the periodic p95 from %s", fleetCompleted90, fleetSpare90.prose()), func(rows []FleetRow) error {
		lo, hi := math.MaxInt, 0
		var total int
		for _, r := range rows {
			if r.MTBF == fleetSpare90.mtbf && r.Jobs == DefaultFleetOptions().Jobs {
				lo, hi, total = min(lo, r.Completed), max(hi, r.Completed), r.Jobs*r.Runs
			}
		}
		if got := fmt.Sprintf("%d–%d/%d", lo, hi, total); got != fleetCompleted90 {
			return fmt.Errorf("completions at %v span %s", fleetSpare90.mtbf, got)
		}
		return fleetSpare90.check(rows)
	}},
	{"preemptions appear only in the mixed rows", func(rows []FleetRow) error {
		mixed := 0
		for _, r := range rows {
			if r.Mix != "mixed" && r.Preemptions > 0 {
				return fmt.Errorf("%s at %v, %.0f%% spare: %d preemptions", r.Mix, r.MTBF, 100*r.SpareFrac, r.Preemptions)
			}
			if r.Mix == "mixed" {
				mixed += r.Preemptions
			}
		}
		if mixed == 0 {
			return fmt.Errorf("no preemption in any mixed row")
		}
		return nil
	}},
	{fmt.Sprintf("%d preemptions at the failure-heavy corner", fleetCornerPreemptions), func(rows []FleetRow) error {
		opt := DefaultFleetOptions()
		r, err := fleetRow(rows, "mixed", opt.MTBFs[0], opt.SpareFracs[0])
		if err == nil && r.Preemptions != fleetCornerPreemptions {
			err = fmt.Errorf("mixed at %v, no spares: %d preemptions", r.MTBF, r.Preemptions)
		}
		return err
	}},
}

// table14Claims are Table 14's shape claims. The first is which families
// the checkpoint-interval axis leaves alone: of the four with no periodic
// writer only TransparentJIT, the one family with no heartbeat, whose
// stall threshold carries the configured interval.
var table14Claims = []claim[RecoveryRow]{
	{"only TransparentJIT's rows are the same at both intervals", func(rows []RecoveryRow) error {
		for _, p := range []core.Policy{core.PolicyUserJIT, core.PolicyTransparentJIT, core.PolicyPeerShelter, core.PolicyElasticJIT} {
			if same := intervalInvariant(rows, p); same != (p == core.PolicyTransparentJIT) {
				return fmt.Errorf("%v: rows the same at every interval: %v", p, same)
			}
		}
		return nil
	}},
}

// intervalInvariant reports whether p's rows agree at every interval, in
// each (size, MTBF) cell.
func intervalInvariant(rows []RecoveryRow, p core.Policy) bool {
	type cell struct {
		size string
		mtbf vclock.Time
	}
	first := map[cell]RecoveryRow{}
	for _, r := range rows {
		if r.Policy != p {
			continue
		}
		f, ok := first[cell{r.Size, r.MTBF}]
		if !ok {
			first[cell{r.Size, r.MTBF}] = r
			continue
		}
		if f.Interval = r.Interval; f != r {
			return false
		}
	}
	return true
}

// factorRange spells a claimed factor range as the documents do.
func factorRange(lo, hi int) string { return fmt.Sprintf("%d–%d×", lo, hi) }

// factorAtLargestN checks periodic ÷ jit within [lo, hi] on every model's
// row at the largest of Table8Ns.
func factorAtLargestN(rows []Table8Row, jit func(Table8Row) float64, lo, hi float64) error {
	largest := Table8Ns[len(Table8Ns)-1]
	for _, r := range rows {
		if r.N != largest {
			continue
		}
		if f := r.WfPeriodic / jit(r); !(f >= lo && f <= hi) {
			return fmt.Errorf("%s N=%d: periodic wastes %.1f× as much", r.Model, r.N, f)
		}
	}
	return nil
}

func checkClaims[R any](t *testing.T, claims []claim[R], rows []R) {
	t.Helper()
	for _, c := range claims {
		if err := c.check(rows); err != nil {
			t.Errorf("claim %q no longer holds: %v", c.name, err)
		}
	}
}

// paperVal parses a figure as the paper prints it.
func paperVal(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(err)
	}
	return v
}

// TestExperimentsDoc regenerates the paper → ours blocks under
// EXPERIMENTS.md's Table 3 to Table 8 headings from the paper's
// digits and the rows the registry measures, fails if the checked-in file
// differs, and checks each shape claim the prose makes. Regenerate with
//
//	go test ./internal/experiments -run TestExperimentsDoc -update
func TestExperimentsDoc(t *testing.T) {
	t3, err := RunTable3(Table3Models(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t4, err := RunTable4(Table4Models(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t5, err := RunTable5(Table5Models(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t6, err := RunTable6(Table6Models(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t7, err := RunTable7(Table7Models(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t8, err := measureTable8(Table8Models(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Table 12's 12-tenant grid, the rows its claims are about (the
	// 500-tenant headline cell is TestJitbenchOutput's).
	fleetOpt := DefaultFleetOptions()
	fleetOpt.HeadlineJobs, fleetOpt.Workers = 0, 2
	t12, err := RunFleetSweep(fleetOpt)
	if err != nil {
		t.Fatal(err)
	}
	recOpt := DefaultRecoveryFamiliesOptions()
	recOpt.Workers = 2
	t14, err := RunRecoveryFamilies(recOpt)
	if err != nil {
		t.Fatal(err)
	}
	checkClaims(t, table3Claims, t3)
	checkClaims(t, table4Claims, t4)
	checkClaims(t, table5Claims, t5)
	checkClaims(t, table6Claims, t6)
	checkClaims(t, table7Claims, t7)
	checkClaims(t, table8Claims, t8)
	checkClaims(t, table12Claims, t12)
	checkClaims(t, table14Claims, t14)

	b, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	for _, blk := range []struct{ heading, body string }{
		{"## Table 3", table3Block(t3)},
		{"## Table 4", table4Block(t4)},
		{"## Table 5", table5Block(t5)},
		{"## Table 6", table6Block(t6)},
		{"## Table 7", table7Block(t7)},
		{"## Table 8", table8Block(t8)},
	} {
		start, end := tableBlock(t, doc, blk.heading)
		if doc[start:end] != blk.body {
			if !*updateDocs {
				t.Errorf("%s's block under %q differs from the run (re-run with -update if the change is intentional); want:\n%s",
					experimentsDoc, blk.heading, blk.body)
			}
			doc = doc[:start] + blk.body + doc[end:]
		}
	}
	if *updateDocs {
		if err := os.WriteFile(experimentsDoc, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The prose quotes what the claims check: the meaning of ≫ and the
	// magnitude tolerance (Table 3), the overhead bound (Table 5), the
	// healthy-rank tolerance (Table 6) and the replay bound (Table 7).
	for _, f := range []string{fmt.Sprintf("≫: at least %d×", muchGreater), fmt.Sprintf("within %.0f%%", 100*table3Tol),
		"≤10 µs per minibatch", fmt.Sprintf("within %.1f s", table6HealthyTol), "replay under 10 ms"} {
		if !quotes(doc, f) {
			t.Errorf("%s does not quote Table 3's checked %q", experimentsDoc, f)
		}
	}
	// The fleet sweep's prose quotes the figures table12Claims checks.
	for _, f := range []string{fleetSpare20.completed[0], fleetSpare20.completed[1], fleetSpare20.prose(),
		fleetCompleted90, fleetSpare90.prose(), fmt.Sprintf("%d at the failure-heavy corner", fleetCornerPreemptions)} {
		if !quotes(doc, f) {
			t.Errorf("%s does not quote Table 12's checked %q", experimentsDoc, f)
		}
	}
	// The prose quotes the factor ranges table8Claims checks.
	for _, file := range []string{experimentsDoc, "../../README.md"} {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []string{factorRange(userJITFactorLo, userJITFactorHi), factorRange(transparentFactorLo, transparentFactorHi)} {
			if !quotes(string(b), f) {
				t.Errorf("%s does not quote Table 8's checked factor %s", file, f)
			}
		}
	}
}

// quotes reports whether prose says figure, where a run of whitespace in
// either reads as one space: a figure the text wraps across a line break
// is still quoted.
func quotes(prose, figure string) bool {
	fold := func(s string) string { return strings.Join(strings.Fields(s), " ") }
	return strings.Contains(fold(prose), fold(figure))
}

func TestQuotesFoldsWhitespace(t *testing.T) {
	prose := "Preemptions reach 9 at the\n  failure-heavy corner, and\tnone elsewhere."
	for _, tc := range []struct {
		figure string
		want   bool
	}{
		{"9 at the failure-heavy corner", true}, // wrapped across a line break
		{"9 at  the failure-heavy corner", true},
		{"and none elsewhere", true},
		{"10 at the failure-heavy corner", false}, // not in the prose
		{"9 at the failure heavy corner", false},
	} {
		if got := quotes(prose, tc.figure); got != tc.want {
			t.Errorf("quotes(%q, %q) = %v, want %v", prose, tc.figure, got, tc.want)
		}
	}
}

// tableBlock locates the first run of `|` lines after heading.
func tableBlock(t *testing.T, doc, heading string) (start, end int) {
	t.Helper()
	h := strings.Index(doc, "\n"+heading)
	if h < 0 {
		t.Fatalf("%s has no %q heading", experimentsDoc, heading)
	}
	start = h + strings.Index(doc[h:], "\n|") + 1
	if start <= h {
		t.Fatalf("%s has no table under %q", experimentsDoc, heading)
	}
	end = start
	for end < len(doc) && doc[end] == '|' {
		end += strings.IndexByte(doc[end:], '\n') + 1
	}
	return start, end
}

func table3Block(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("| Model | PC_disk paper → ours | PC_mem | CheckFreq | PC_1/day | JIT-C |\n|---|---|---|---|---|---|\n")
	for _, r := range rows {
		p := paperTable3[r.Model]
		fmt.Fprintf(&b, "| %s | %s → %.3f | %s → %.3f | %s → %.3f | %s → %.4f | %s → %.4f |\n",
			r.Model, p[0], 100*r.PCDisk, p[1], 100*r.PCMem, p[2], 100*r.CheckFreq, p[3], 100*r.PCDaily, p[4], 100*r.JITC)
	}
	return b.String()
}

func table4Block(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("| Model | Ckpt paper → ours | Restore paper → ours | JIT Recovery paper → ours |\n|---|---|---|---|\n")
	for _, r := range rows {
		p := paperTable4[r.Model]
		fmt.Fprintf(&b, "| %s | %s → %.2f | %s → %.2f | %s → %.2f |\n",
			r.Model, p[0], r.Ckpt.Sec(), p[1], r.Restore.Sec(), p[2], r.Recovery.Sec())
	}
	return b.String()
}

// step returns the time b spent in phase, summed as RenderTable7 sums it.
func step(b Table7Breakdown, phase string) vclock.Time {
	var d vclock.Time
	for _, ph := range b.Phases {
		if ph.Name == phase {
			d += ph.Dur
		}
	}
	return d
}

// docModel names a Tables 5–7 model as EXPERIMENTS.md does:
// "GPT2-S/A100x4" is "GPT2-S (4×A100)", and GPT2-S-3D runs on the V100 node.
func docModel(name string) string {
	m, node, ok := strings.Cut(name, "/")
	if !ok {
		node = "V100x8"
	}
	gpu, n, _ := strings.Cut(node, "x")
	return fmt.Sprintf("%s (%s×%s)", m, n, gpu)
}

func table5Block(rows []Table5Row) string {
	var b strings.Builder
	b.WriteString("| Model (node) | paper → ours |\n|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s → %.2f |\n", docModel(r.Model), paperTable5[r.Model], r.Recovery.Sec())
	}
	return b.String()
}

func table6Block(rows []Table6Row) string {
	var b strings.Builder
	b.WriteString("| Model (node) | Healthy paper → ours | Failed paper → ours |\n|---|---|---|\n")
	for _, r := range rows {
		p := paperTable6[r.Model]
		fmt.Fprintf(&b, "| %s | %s → %.2f | %s → %.2f |\n", docModel(r.Model), p[0], r.Healthy.Sec(), p[1], r.Failed.Sec())
	}
	return b.String()
}

func table7Block(rows []Table7Breakdown) string {
	var b strings.Builder
	b.WriteString("| Step |")
	for _, r := range rows {
		m, _, _ := strings.Cut(r.Model, "/")
		fmt.Fprintf(&b, " %s |", m)
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(rows)) + "\n")
	for _, ph := range Table7PhaseOrder {
		fmt.Fprintf(&b, "| %s |", Table7PhaseLabels[ph])
		for i, r := range rows {
			fmt.Fprintf(&b, " %s → %.3f |", paperTable7[ph][i], step(r, ph).Sec())
		}
		b.WriteString("\n")
	}
	return b.String()
}

func table8Block(rows []Table8Row) string {
	var b strings.Builder
	b.WriteString("| Model |")
	for _, n := range Table8Ns {
		fmt.Fprintf(&b, " N=%d c* | N=%d w_f |", n, n)
	}
	b.WriteString("\n|---|" + strings.Repeat("---|---|", len(Table8Ns)) + "\n")
	for i := 0; i < len(rows); i += len(Table8Ns) {
		p := paperTable8[rows[i].Model]
		fmt.Fprintf(&b, "| %s |", rows[i].Model)
		for j, r := range rows[i : i+len(Table8Ns)] {
			fmt.Fprintf(&b, " %s → %.2f | %s → %.2f%% |", p[2*j], r.CStarPerHour, p[2*j+1], 100*r.WfPeriodic)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestClaimsCatchBrokenRows feeds every claim one row that breaks it, so
// a predicate that cannot fail fails here.
func TestClaimsCatchBrokenRows(t *testing.T) {
	// good3 is BERT-L-PT at the paper's digits, but CheckFreq 45% high.
	good3 := Table3Row{Model: "BERT-L-PT", PCDisk: 0.070e-2, PCMem: 0.068e-2, CheckFreq: 1.45 * 0.031e-2, PCDaily: 0.005e-2}
	for _, c := range table3Claims {
		if err := c.check([]Table3Row{good3}); err != nil {
			t.Errorf("claim %q rejects a row that keeps it: %v", c.name, err)
		}
		broken := 0
		for _, mutate := range []func(*Table3Row){
			func(r *Table3Row) { r.PCMem = 1.1 * r.PCDisk },      // PC_mem above PC_disk
			func(r *Table3Row) { r.JITC = r.PCDaily / 2 },        // PC_1/day only twice JIT-C
			func(r *Table3Row) { r.PCDisk *= 1.3 },               // 30% off the paper
			func(r *Table3Row) { r.CheckFreq = 0.031e-2 * 1.05 }, // the outlier back near the paper
		} {
			bad := good3
			mutate(&bad)
			if c.check([]Table3Row{good3, bad}) != nil {
				broken++
			}
		}
		if broken == 0 {
			t.Errorf("claim %q accepts every broken row", c.name)
		}
	}
	good4 := Table4Row{Model: "BERT-L-PT", Ckpt: 5e9, Restore: 99e8, Recovery: 148e8}
	for _, c := range table4Claims {
		bad := good4
		bad.Restore += 2e9 // 2 s off: breaks both the 0.1 s and the 1 s claim
		bad.Recovery += 2e9
		if err := c.check([]Table4Row{good4}); err != nil {
			t.Errorf("claim %q rejects a row matching the paper: %v", c.name, err)
		}
		if c.check([]Table4Row{good4, bad}) == nil {
			t.Errorf("claim %q accepts a row 2 s off the paper", c.name)
		}
	}
	for _, c := range table5Claims {
		good, bad := Table5Row{Model: "GPT2-S/V100x8", Overhead: 6e-6}, Table5Row{Model: "GPT2-S/A100x4", Overhead: 11e-6}
		if err := c.check([]Table5Row{good}); err != nil {
			t.Errorf("claim %q rejects a row that keeps it: %v", c.name, err)
		}
		if c.check([]Table5Row{good, bad}) == nil {
			t.Errorf("claim %q accepts 11 µs", c.name)
		}
	}
	good6 := Table6Row{Model: "GPT2-S/V100x8", GPU: "V100-32GB", Healthy: 2397e7, Failed: 2085e7}
	for _, c := range table6Claims {
		if err := c.check([]Table6Row{good6}); err != nil {
			t.Errorf("claim %q rejects a row matching the paper: %v", c.name, err)
		}
		broken := 0
		for _, mutate := range []func(*Table6Row){
			func(r *Table6Row) { r.Failed = r.Healthy },           // failed no faster
			func(r *Table6Row) { r.Healthy += 6e8; r.Failed = 0 }, // 0.6 s off the paper
		} {
			bad := good6
			mutate(&bad)
			if c.check([]Table6Row{good6, bad}) != nil {
				broken++
			}
		}
		if broken == 0 {
			t.Errorf("claim %q accepts every broken row", c.name)
		}
	}
	good7 := Table7Breakdown{Model: "GPT2-S/V100x8", Phases: []core.PhaseDur{
		{Name: "teardown", Dur: 779 * vclock.Millisecond}, {Name: "comm-init", Dur: 8340 * vclock.Millisecond},
		{Name: "replay", Dur: 4 * vclock.Millisecond}}}
	for _, c := range table7Claims {
		if err := c.check([]Table7Breakdown{good7}); err != nil {
			t.Errorf("claim %q rejects a breakdown matching the paper: %v", c.name, err)
		}
		broken := 0
		for _, extra := range []core.PhaseDur{
			{Name: "teardown", Dur: 8 * vclock.Second},    // teardown now the largest
			{Name: "replay", Dur: 6 * vclock.Millisecond}, // replay 10 ms in all
		} {
			bad := good7
			bad.Phases = append(append([]core.PhaseDur(nil), good7.Phases...), extra)
			if c.check([]Table7Breakdown{good7, bad}) != nil {
				broken++
			}
		}
		if broken == 0 {
			t.Errorf("claim %q accepts every broken breakdown", c.name)
		}
	}
	last := Table8Ns[len(Table8Ns)-1]
	good8 := Table8Row{Model: "GPT2-S"}
	good8.N, good8.WfPeriodic, good8.WfUserJIT, good8.WfTransparentJIT = last, 0.04, 0.002, 0.00005
	for _, c := range table8Claims {
		if err := c.check([]Table8Row{good8}); err != nil {
			t.Errorf("claim %q rejects a row that keeps it: %v", c.name, err)
		}
		broken := 0
		for _, mutate := range []func(*Table8Row){
			func(r *Table8Row) { r.WfUserJIT = r.WfPeriodic },
			func(r *Table8Row) { r.WfTransparentJIT = 2 * r.WfUserJIT },
		} {
			bad := good8
			mutate(&bad)
			if c.check([]Table8Row{good8, bad}) != nil {
				broken++
			}
		}
		if broken == 0 {
			t.Errorf("claim %q accepts every broken row", c.name)
		}
	}
	// good12 holds the cells the Table 12 claims read, at the reference
	// run's figures; each mutation breaks the claim at its index.
	opt := DefaultFleetOptions()
	cell := func(mix string, mtbf vclock.Time, frac float64, done, preempt int, p95 float64) FleetRow {
		return FleetRow{Mix: mix, MTBF: mtbf, SpareFrac: frac, Jobs: opt.Jobs, Runs: len(opt.Seeds), Completed: done,
			Preemptions: preempt, P95Latency: vclock.Seconds(p95)}
	}
	m20, m90, spare := opt.MTBFs[0], opt.MTBFs[1], opt.SpareFracs[1]
	good12 := []FleetRow{
		cell("periodic", m20, 0, 3, 0, 26.919), cell("periodic", m20, spare, 5, 0, 3.781),
		cell("periodic", m90, 0, 17, 0, 14.183), cell("periodic", m90, spare, 22, 0, 1.446),
		cell("jit", m90, spare, 24, 0, 1.446), cell("mixed", m20, 0, 5, 9, 24.462),
	}
	broken12 := []func([]FleetRow){
		func(rows []FleetRow) { rows[1].Completed = 4 },                  // spares gain one completion less
		func(rows []FleetRow) { rows[3].P95Latency = vclock.Seconds(2) }, // 2 s is not ≈1.4 s
		func(rows []FleetRow) { rows[4].Preemptions = 1 },                // a jit fleet preempts
		func(rows []FleetRow) { rows[5].Preemptions = 10 },               // the corner's count moved
	}
	if len(broken12) != len(table12Claims) {
		t.Fatalf("%d broken Table 12 rows for %d claims", len(broken12), len(table12Claims))
	}
	for i, c := range table12Claims {
		if err := c.check(good12); err != nil {
			t.Errorf("claim %q rejects rows that keep it: %v", c.name, err)
		}
		bad := append([]FleetRow(nil), good12...)
		broken12[i](bad)
		if c.check(bad) == nil {
			t.Errorf("claim %q accepts its broken row", c.name)
		}
	}
	// good14 is the small, 12 s cell at the reference run's figures; every
	// mutation at a claim's index breaks that claim.
	var good14 []RecoveryRow
	for _, r := range []struct {
		p      core.Policy
		wasted [2]float64 // at 0.2 s, 0.6 s
	}{
		{core.PolicyUserJIT, [2]float64{0.370, 0.411}}, {core.PolicyTransparentJIT, [2]float64{0.579, 0.579}},
		{core.PolicyPeerShelter, [2]float64{0.363, 0.406}}, {core.PolicyElasticJIT, [2]float64{0.370, 0.411}},
	} {
		for i, interval := range DefaultRecoveryFamiliesOptions().Intervals {
			good14 = append(good14, RecoveryRow{Size: "small", MTBF: 12 * vclock.Second, Interval: interval, Policy: r.p,
				Runs: 2, Completed: 2, WastedFrac: r.wasted[i]})
		}
	}
	broken14 := [][]func([]RecoveryRow){
		{
			func(rows []RecoveryRow) { rows[3].WastedFrac = 0.6 },                // TransparentJIT moves with the interval
			func(rows []RecoveryRow) { rows[1].WastedFrac = rows[0].WastedFrac }, // UserJIT does not
		},
	}
	if len(broken14) != len(table14Claims) {
		t.Fatalf("%d broken Table 14 row sets for %d claims", len(broken14), len(table14Claims))
	}
	for i, c := range table14Claims {
		if err := c.check(good14); err != nil {
			t.Errorf("claim %q rejects rows that keep it: %v", c.name, err)
		}
		for j, mutate := range broken14[i] {
			bad := append([]RecoveryRow(nil), good14...)
			mutate(bad)
			if c.check(bad) == nil {
				t.Errorf("claim %q accepts its broken row %d", c.name, j)
			}
		}
	}
}
