package experiments

import (
	"fmt"

	"jitckpt/internal/analysis"
	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/metrics"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// Table5Row is one transparent transient-recovery measurement.
type Table5Row struct {
	Model     string
	GPU       string
	Recovery  vclock.Time
	Minibatch vclock.Time
	Overhead  float64 // seconds per minibatch
}

// Table5Models lists the paper's Table 5 workload variants, grouped as in
// the paper (8x V100 node first, then 4x A100 node).
func Table5Models() []string {
	return []string{
		"BERT-B-FT/V100x8", "GPT2-S/V100x8", "GPT2-S-3D", "PyramidNet/V100x8",
		"BERT-B-FT/A100x4", "GPT2-S/A100x4",
	}
}

// RunTable5 measures transparent recovery from a transient network fault:
// no GPU state is copied; communicators are re-created and the minibatch
// replayed.
func RunTable5(models []string, opt Options) ([]Table5Row, error) {
	return sweep(models, opt.Workers, opt.Recorder, func(name string, rec *trace.Recorder) (row Table5Row, err error) {
		f, err := oneFault(name, core.PolicyTransparentJIT, failure.NetworkHang, true, opt, rec)
		if err != nil {
			return row, err
		}
		return Table5Row{
			Model:     name,
			GPU:       f.wl.GPU,
			Recovery:  f.res.Reports[0].HealthyAvg,
			Minibatch: f.res.Minibatch,
			Overhead:  f.over,
		}, nil
	})
}

// RenderTable5 formats Table 5.
func RenderTable5(rows []Table5Row) *metrics.Table {
	t := metrics.NewTable("Table 5: Transparent transient-error recovery (s)",
		"Model", "GPU", "Recovery Time", "Minibatch", "Overhead")
	for _, r := range rows {
		t.Row(r.Model, r.GPU, r.Recovery,
			fmt.Sprintf("%.3f", r.Minibatch.Sec()),
			fmt.Sprintf("%.5f", r.Overhead))
	}
	return t
}

// Table6Row is one transparent hard-error recovery measurement.
type Table6Row struct {
	Model     string
	GPU       string
	Healthy   vclock.Time
	Failed    vclock.Time
	Minibatch vclock.Time
}

// Table6Models lists the paper's Table 6 workload variants.
func Table6Models() []string {
	return []string{
		"BERT-B-FT/V100x8", "GPT2-S/V100x8", "GPT2-S-3D", "PyramidNet/V100x8",
		"BERT-B-FT/A100x4", "GPT2-S/A100x4", "PyramidNet/A100x4",
	}
}

// RunTable6 measures transparent hard-error recovery: healthy ranks
// JIT-checkpoint their GPU state and CRIU-checkpoint, the job migrates,
// and state is restored from the checkpoint files.
func RunTable6(models []string, opt Options) ([]Table6Row, error) {
	return sweep(models, opt.Workers, opt.Recorder, func(name string, rec *trace.Recorder) (row Table6Row, err error) {
		f, err := oneFault(name, core.PolicyTransparentJIT, failure.GPUHard, false, opt, rec)
		if err != nil {
			return row, err
		}
		return Table6Row{
			Model:     name,
			GPU:       f.wl.GPU,
			Healthy:   f.res.Reports[0].HealthyAvg,
			Failed:    f.res.Reports[0].FailedAvg,
			Minibatch: f.res.Minibatch,
		}, nil
	})
}

// RenderTable6 formats Table 6.
func RenderTable6(rows []Table6Row) *metrics.Table {
	t := metrics.NewTable("Table 6: Transparent hard-error recovery (s)",
		"Model", "GPU", "Healthy GPU", "Failed GPU", "Minibatch")
	for _, r := range rows {
		t.Row(r.Model, r.GPU, r.Healthy, r.Failed, fmt.Sprintf("%.3f", r.Minibatch.Sec()))
	}
	return t
}

// Table7Breakdown is one model's transient-recovery step breakdown.
type Table7Breakdown struct {
	Model  string
	Phases []core.PhaseDur
}

// Table7Models lists the paper's Table 7 workloads (8x V100).
func Table7Models() []string {
	return []string{"BERT-B-FT/V100x8", "GPT2-S/V100x8", "GPT2-S-3D", "PyramidNet/V100x8"}
}

// Table7PhaseOrder fixes the row order of the rendered breakdown.
var Table7PhaseOrder = []string{"teardown", "reset-buffers", "recreate-handles", "comm-init", "replay"}

// Table7PhaseLabels maps internal phase names to the paper's row labels.
var Table7PhaseLabels = map[string]string{
	"teardown":         "Delete communicators and GPU handles",
	"reset-buffers":    "Reset GPU buffers",
	"recreate-handles": "Recreate GPU handles",
	"comm-init":        "Recreate NCCL communicators",
	"replay":           "Replay minibatch APIs",
}

// RunTable7 measures the per-step breakdown of transparent transient
// recovery on one healthy rank worker.
func RunTable7(models []string, opt Options) ([]Table7Breakdown, error) {
	return sweep(models, opt.Workers, opt.Recorder, func(name string, rec *trace.Recorder) (row Table7Breakdown, err error) {
		f, err := oneFault(name, core.PolicyTransparentJIT, failure.NetworkHang, false, opt, rec)
		if err != nil {
			return row, err
		}
		return Table7Breakdown{Model: name, Phases: f.res.Reports[0].Phases}, nil
	})
}

// RenderTable7 formats the breakdown with steps as rows and models as
// columns, like the paper.
func RenderTable7(breakdowns []Table7Breakdown) *metrics.Table {
	headers := []string{"Step"}
	for _, b := range breakdowns {
		headers = append(headers, b.Model)
	}
	t := metrics.NewTable("Table 7: Transparent transient recovery step breakdown (s, one rank worker)", headers...)
	for _, phase := range Table7PhaseOrder {
		row := []interface{}{Table7PhaseLabels[phase]}
		for _, b := range breakdowns {
			var d vclock.Time
			for _, ph := range b.Phases {
				if ph.Name == phase {
					d += ph.Dur
				}
			}
			row = append(row, fmt.Sprintf("%.3f", d.Sec()))
		}
		t.Row(row...)
	}
	return t
}

// Table8Row is one model's scaling entry at one N.
type Table8Row struct {
	Model string
	analysis.Scaling
}

// Table8Ns are the GPU counts the paper's Table 8 evaluates.
var Table8Ns = []int{4, 1024, 8192}

// Table8Models lists the models with measured constants in Tables 4–5.
func Table8Models() []string {
	return []string{"BERT-L-PT", "BERT-B-FT", "GPT2-S", "GPT2-8B"}
}

// RunTable8 combines the §5 analytical model with measured constants:
// o and r from the user-level measurements (Table 4), m from Table 2's
// minibatch times, and o_jit from the measured steady-state overhead.
func RunTable8(t4 []Table4Row, t3 []Table3Row) []Table8Row {
	byName4 := map[string]Table4Row{}
	for _, r := range t4 {
		byName4[r.Model] = r
	}
	byName3 := map[string]Table3Row{}
	for _, r := range t3 {
		byName3[r.Model] = r
	}
	var out []Table8Row
	for _, name := range Table8Models() {
		wl, err := workload.ByName(name)
		if err != nil {
			continue
		}
		m4, ok := byName4[name]
		if !ok {
			continue
		}
		base := analysis.Params{
			O:    m4.Ckpt.Sec(),
			F:    analysis.PerDay(FailureRate),
			R:    m4.Restore.Sec(),
			M:    wl.Minibatch.Sec(),
			OJit: byName3[name].JITC,
		}
		for _, sc := range analysis.ScaleModel(base, Table8Ns) {
			out = append(out, Table8Row{Model: name, Scaling: sc})
		}
	}
	return out
}

// RenderTable8 formats the scaling comparison.
func RenderTable8(rows []Table8Row) *metrics.Table {
	t := metrics.NewTable("Table 8: Scaling of wasted GPU time (optimal-frequency periodic vs JIT)",
		"Model", "N", "c* (/hr)", "wf Periodic", "wf UserJIT", "wf TransparentJIT")
	for _, r := range rows {
		t.Row(r.Model, r.N,
			fmt.Sprintf("%.2f", r.CStarPerHour),
			fmt.Sprintf("%.2f%%", 100*r.WfPeriodic),
			fmt.Sprintf("%.2f%%", 100*r.WfUserJIT),
			fmt.Sprintf("%.2f%%", 100*r.WfTransparentJIT))
	}
	return t
}

// DollarCostTable reproduces the §5.1 cost estimates.
func DollarCostTable() *metrics.Table {
	t := metrics.NewTable("§5.1: Monthly dollar cost of failures under periodic checkpointing",
		"GPUs", "Errors/day", "Lost h/error", "$/GPU-h", "Cost/month")
	for _, c := range []struct {
		n      int
		perDay float64
		lost   float64
		price  float64
	}{
		{1000, 1, 0.25, 4},
		{10000, 10, 0.25, 4},
	} {
		t.Row(c.n, c.perDay, c.lost, c.price,
			fmt.Sprintf("$%.0f", analysis.DollarCost(c.n, c.perDay, c.lost, c.price)))
	}
	return t
}

// BertWorkedExample reproduces eqs. 9–10: the BERT-L-PT optimal frequency
// and wasted-work expansion.
func BertWorkedExample() *metrics.Table {
	t := metrics.NewTable("§6.5: BERT-L-PT worked example (eqs. 9-10)",
		"N", "c* (/hr)", "interval", "w*", "wf")
	for _, n := range []int{4, 64, 1024, 8192} {
		c, w := analysis.BertExample(n)
		interval := "inf"
		if c > 0 {
			interval = vclock.Seconds(3600 / c).String()
		}
		t.Row(n, fmt.Sprintf("%.2f", c), interval,
			fmt.Sprintf("%.2e", w),
			fmt.Sprintf("%.3f%%", 100*analysis.WastedFraction(w)))
	}
	return t
}
