package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
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

var table4Claims = []claim[Table4Row]{
	{"checkpoint and restore within 0.1 s of the paper", func(rows []Table4Row) error {
		for _, r := range rows {
			p := paperTable4[r.Model]
			if d := math.Abs(r.Ckpt.Sec() - paperSec(p[0])); d > 0.1 {
				return fmt.Errorf("%s checkpoint %.2f is %.2f s off %s", r.Model, r.Ckpt.Sec(), d, p[0])
			}
			if d := math.Abs(r.Restore.Sec() - paperSec(p[1])); d > 0.1 {
				return fmt.Errorf("%s restore %.2f is %.2f s off %s", r.Model, r.Restore.Sec(), d, p[1])
			}
		}
		return nil
	}},
	{"recovery within 1 s of the paper", func(rows []Table4Row) error {
		for _, r := range rows {
			p := paperTable4[r.Model]
			if d := math.Abs(r.Recovery.Sec() - paperSec(p[2])); d > 1 {
				return fmt.Errorf("%s recovery %.2f is %.2f s off %s", r.Model, r.Recovery.Sec(), d, p[2])
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

func paperSec(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(err)
	}
	return v
}

// TestExperimentsDoc regenerates the paper → ours blocks under
// EXPERIMENTS.md's Table 4 and Table 8 headings from the paper's digits
// and the rows the registry measures, fails if the checked-in file
// differs, and checks each shape claim the prose makes. Regenerate with
//
//	go test ./internal/experiments -run TestExperimentsDoc -update
func TestExperimentsDoc(t *testing.T) {
	t4, err := RunTable4(Table4Models(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t8, err := measureTable8(Table8Models(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkClaims(t, table4Claims, t4)
	checkClaims(t, table8Claims, t8)

	b, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	for _, blk := range []struct{ heading, body string }{
		{"## Table 4", table4Block(t4)},
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
	// The prose quotes the factor ranges table8Claims checks.
	for _, file := range []string{experimentsDoc, "../../README.md"} {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []string{factorRange(userJITFactorLo, userJITFactorHi), factorRange(transparentFactorLo, transparentFactorHi)} {
			if !strings.Contains(string(b), f) {
				t.Errorf("%s does not quote Table 8's checked factor %s", file, f)
			}
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
}
