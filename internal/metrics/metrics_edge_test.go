package metrics

import (
	"strings"
	"testing"

	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// TestTableRenderRaggedRows pins Render's handling of rows that are
// shorter or longer than the header: short rows pad with empty cells,
// extra cells beyond the header columns are dropped, and column widths
// grow to the widest cell.
func TestTableRenderRaggedRows(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.Row("only-a")
	tb.Row("x", "y", "overflow-ignored")
	tb.Row("a-very-wide-first-cell", "b")
	out := tb.Render()
	if strings.Contains(out, "overflow-ignored") {
		t.Fatalf("cells beyond the header leaked:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header, separator, 3 rows (no title line)
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// Every rendered line is equally wide: widths come from the widest cell.
	width := len(lines[0])
	for _, ln := range lines {
		if len(ln) != width {
			t.Fatalf("ragged render widths:\n%s", out)
		}
	}
	if !strings.Contains(lines[1], "-") {
		t.Fatalf("separator missing:\n%s", out)
	}
}

// TestTableRenderEmpty renders a table with no rows and no title.
func TestTableRenderEmpty(t *testing.T) {
	tb := NewTable("", "H1", "H2")
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("empty table should render header+separator only:\n%s", out)
	}
	if tb.Rows() != 0 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
}

// TestTableRowFormatting pins the cell formatters: float64 as %.4g,
// vclock.Time as seconds with two decimals, everything else via %v.
func TestTableRowFormatting(t *testing.T) {
	tb := NewTable("", "C")
	tb.Row(0.000123456)
	tb.Row(1234567.8)
	tb.Row(1500 * vclock.Millisecond)
	tb.Row(42)
	tb.Row("str")
	out := tb.Render()
	for _, want := range []string{"0.0001235", "1.235e+06", "1.50", "42", "str"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestPhaseTimerSkip: skipped intervals are excluded from phases, Sum,
// and Get, but Total still runs construction-to-last-mark.
func TestPhaseTimerSkip(t *testing.T) {
	env := vclock.NewEnv(1)
	env.Go("w", func(p *vclock.Proc) {
		pt := NewPhaseTimerLane(env, trace.LaneSim)
		p.Sleep(vclock.Second)
		pt.Skip() // barrier: not a phase
		p.Sleep(2 * vclock.Second)
		pt.Mark("work")
		if got := pt.Sum(); got != 2*vclock.Second {
			t.Errorf("Sum = %v, want 2s", got)
		}
		if got := pt.Total(); got != 3*vclock.Second {
			t.Errorf("Total = %v, want 3s", got)
		}
		if len(pt.Phases()) != 1 {
			t.Errorf("phases = %+v", pt.Phases())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPhaseTimerZeroMarks: a timer that never marks has zero Sum, zero
// Total, no phases, and Get returns 0 for anything.
func TestPhaseTimerZeroMarks(t *testing.T) {
	env := vclock.NewEnv(1)
	env.Go("w", func(p *vclock.Proc) {
		pt := NewPhaseTimerLane(env, trace.LaneSim)
		p.Sleep(vclock.Second)
		if pt.Sum() != 0 || pt.Total() != 0 || len(pt.Phases()) != 0 || pt.Get("x") != 0 {
			t.Errorf("fresh timer not empty: sum=%v total=%v", pt.Sum(), pt.Total())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPhaseTimerEmitsTraceSpans: with a recorder attached, every Mark
// becomes a "phase" span on the timer's lane covering [last, now] — the
// bridge the Table 7 reconciliation tests depend on.
func TestPhaseTimerEmitsTraceSpans(t *testing.T) {
	env := vclock.NewEnv(1)
	rec := trace.New()
	trace.Attach(env, rec)
	env.Go("w", func(p *vclock.Proc) {
		pt := NewPhaseTimerLane(env, trace.Rank(3))
		p.Sleep(vclock.Second)
		pt.Mark("restore")
		p.Sleep(2 * vclock.Second)
		pt.Mark("replay")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	q := trace.NewQuery(rec)
	sums := q.SpanSums("phase", trace.Rank(3))
	if sums["restore"] != vclock.Second || sums["replay"] != 2*vclock.Second {
		t.Fatalf("traced phase sums: %v", sums)
	}
	spans := q.Spans("phase", "restore")
	if len(spans) != 1 || spans[0].Start != 0 || spans[0].End != vclock.Second {
		t.Fatalf("restore span: %+v", spans)
	}
}
