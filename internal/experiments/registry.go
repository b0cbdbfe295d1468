package experiments

import (
	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/metrics"
)

// TableRun is what a registry entry reads: the measurement options, the
// -quick trim, and the two filters jitbench passes through.
type TableRun struct {
	Options
	// Quick trims every table to a small subset (jitbench -quick).
	Quick bool
	// Policies filters tables 9 and 10 (nil = each table's own set).
	Policies []core.Policy
	// Mix weights table 10's fault draw (nil = failure.DefaultMix).
	Mix map[failure.Kind]float64
}

// Table is one entry of the table registry.
type Table struct {
	// Num is the jitbench -table number; 0 marks an entry only a full run
	// prints.
	Num int
	// Title names the entry in errors and benchmark names.
	Title string
	// Run measures and renders the table, applying the entry's own -quick
	// trim.
	Run func(TableRun) (*metrics.Table, error)
}

// Tables returns the registry in print order: the paper's Tables 1–8, this
// repository's tables 9–14, then the §5.1 dollar cost and the §6.5 worked
// example.
func Tables() []Table {
	return []Table{
		{1, "table 1", static(Table1)},
		{2, "table 2", static(Table2)},
		{3, "table 3", perModel(Table3Models, RunTable3, RenderTable3)},
		{4, "table 4", perModel(Table4Models, RunTable4, RenderTable4)},
		{5, "table 5", perModel(Table5Models, RunTable5, RenderTable5)},
		{6, "table 6", perModel(Table6Models, RunTable6, RenderTable6)},
		{7, "table 7", perModel(Table7Models, RunTable7, RenderTable7)},
		{8, "table 8", perModel(Table8Models, measureTable8, RenderTable8)},
		{9, "peer comparison", func(r TableRun) (*metrics.Table, error) {
			rows, err := RunPeerComparison(trim(PeerModels(), 1, r.Quick), r.Policies, r.Options)
			return render(rows, err, RenderPeerComparison)
		}},
		{10, "chaos suite", func(r TableRun) (*metrics.Table, error) {
			opt := DefaultChaosOptions()
			opt.Mix, opt.Policies = r.Mix, r.Policies
			opt.Recorder, opt.Workers = r.Recorder, r.Workers
			opt.Seeds = trim(opt.Seeds, 1, r.Quick)
			rows, err := RunChaos(opt)
			return render(rows, err, RenderChaos)
		}},
		{11, "elastic sweep", func(r TableRun) (*metrics.Table, error) {
			opt := DefaultElasticOptions()
			opt.Recorder, opt.Workers = r.Recorder, r.Workers
			opt.Seeds, opt.MTBFs = trim(opt.Seeds, 1, r.Quick), trim(opt.MTBFs, 1, r.Quick)
			rows, err := RunElasticSweep(opt)
			return render(rows, err, RenderElasticSweep)
		}},
		{12, "fleet sweep", func(r TableRun) (*metrics.Table, error) {
			opt := DefaultFleetOptions()
			opt.Recorder, opt.Workers = r.Recorder, r.Workers
			opt.Seeds, opt.MTBFs = trim(opt.Seeds, 1, r.Quick), trim(opt.MTBFs, 1, r.Quick)
			if r.Quick {
				opt.HeadlineJobs = 0
			}
			rows, err := RunFleetSweep(opt)
			return render(rows, err, RenderFleetSweep)
		}},
		{13, "erasure sweep", func(r TableRun) (*metrics.Table, error) {
			rows, err := RunErasureSweep(trim(ErasureSchemes(), 3, r.Quick), r.Options)
			return render(rows, err, RenderErasureSweep)
		}},
		{14, "recovery-family sweep", func(r TableRun) (*metrics.Table, error) {
			opt := DefaultRecoveryFamiliesOptions()
			opt.Recorder, opt.Workers = r.Recorder, r.Workers
			opt.Seeds, opt.MTBFs = trim(opt.Seeds, 1, r.Quick), trim(opt.MTBFs, 1, r.Quick)
			opt.Intervals, opt.Sizes = trim(opt.Intervals, 1, r.Quick), trim(opt.Sizes, 1, r.Quick)
			rows, err := RunRecoveryFamilies(opt)
			return render(rows, err, RenderRecoveryFamilies)
		}},
		{0, "dollar cost", static(DollarCostTable)},
		{0, "worked example", static(BertWorkedExample)},
	}
}

// static adapts a table that measures nothing.
func static(table func() *metrics.Table) func(TableRun) (*metrics.Table, error) {
	return func(TableRun) (*metrics.Table, error) { return table(), nil }
}

// perModel adapts a table measured one model at a time; -quick keeps the
// first two models.
func perModel[R any](models func() []string, run func([]string, Options) ([]R, error), rend func([]R) *metrics.Table) func(TableRun) (*metrics.Table, error) {
	return func(r TableRun) (*metrics.Table, error) {
		rows, err := run(trim(models(), 2, r.Quick), r.Options)
		return render(rows, err, rend)
	}
}

// measureTable8 measures Table 8's constants on its own models (Tables 3
// and 4's runs) and composes them with the §5 model.
func measureTable8(models []string, opt Options) ([]Table8Row, error) {
	t3, err := RunTable3(models, opt)
	if err != nil {
		return nil, err
	}
	t4, err := RunTable4(models, opt)
	if err != nil {
		return nil, err
	}
	return RunTable8(t4, t3), nil
}

// trim keeps the first n elements of s when quick is set.
func trim[T any](s []T, n int, quick bool) []T {
	if quick {
		return s[:n]
	}
	return s
}

func render[R any](rows []R, err error, rend func([]R) *metrics.Table) (*metrics.Table, error) {
	if err != nil {
		return nil, err
	}
	return rend(rows), nil
}
