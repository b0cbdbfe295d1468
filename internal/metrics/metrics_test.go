package metrics

import (
	"strings"
	"testing"

	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

func TestAccountingFractions(t *testing.T) {
	a := &Accounting{N: 8, Useful: 90 * vclock.Second, CkptStall: 5 * vclock.Second,
		RecoveryFixed: 3 * vclock.Second, RedoWork: 2 * vclock.Second}
	if a.Wasted() != 10*vclock.Second {
		t.Fatalf("Wasted = %v", a.Wasted())
	}
	if wf := a.WastedFraction(); wf < 0.099 || wf > 0.101 {
		t.Fatalf("wf = %v, want 0.1", wf)
	}
	// The §5 headline unit is wasted time summed across the N GPUs.
	gpuHours := a.Wasted().Sec() / 3600 * float64(a.N)
	want := 10.0 / 3600 * 8
	if gpuHours < want*0.99 || gpuHours > want*1.01 {
		t.Fatalf("wasted GPU-hours = %v, want %v", gpuHours, want)
	}
}

func TestAccountingEmpty(t *testing.T) {
	a := &Accounting{N: 4}
	if a.WastedFraction() != 0 {
		t.Fatal("empty accounting should be zero")
	}
}

func TestPhaseTimer(t *testing.T) {
	env := vclock.NewEnv(1)
	var phases []Phase
	var total vclock.Time
	env.Go("w", func(p *vclock.Proc) {
		pt := NewPhaseTimerLane(env, trace.LaneSim)
		p.Sleep(vclock.Second)
		pt.Mark("teardown")
		p.Sleep(2 * vclock.Second)
		pt.Mark("comm-init")
		p.Sleep(500 * vclock.Millisecond)
		pt.Mark("teardown") // repeated names sum in Get
		phases = pt.Phases()
		total = pt.Total()
		if pt.Get("teardown") != 1500*vclock.Millisecond {
			t.Errorf("Get(teardown) = %v", pt.Get("teardown"))
		}
		if pt.Get("missing") != 0 {
			t.Error("missing phase should be zero")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 || phases[1].Dur != 2*vclock.Second {
		t.Fatalf("phases = %+v", phases)
	}
	if total != 3500*vclock.Millisecond {
		t.Fatalf("total = %v", total)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Table X", "Model", "Overhead", "Time")
	tb.Row("GPT2-S", 0.0024, 3*vclock.Second)
	tb.Row("BERT-L", 0.0076, 5*vclock.Second)
	out := tb.Render()
	if !strings.Contains(out, "Table X") || !strings.Contains(out, "GPT2-S") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if !strings.Contains(out, "0.0024") || !strings.Contains(out, "3.00") {
		t.Fatalf("formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
}
