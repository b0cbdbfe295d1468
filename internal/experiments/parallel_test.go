package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"jitckpt/internal/trace"
)

// traceBytes renders a recorder's deterministic text timeline, the byte
// representation the equivalence tests compare.
func traceBytes(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteText(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosParallelMatchesSerial pins the parallel sweep runner's core
// contract: farming the policy×seed grid across workers changes nothing
// observable. Rows (results, metrics, fault plans) are deeply equal and
// the merged event trace is byte-identical to the serially recorded one,
// for every chaos policy.
func TestChaosParallelMatchesSerial(t *testing.T) {
	run := func(workers int) ([]ChaosRow, []byte) {
		opt := DefaultChaosOptions()
		opt.Seeds = []int64{3, 7}
		opt.Workers = workers
		opt.Recorder = trace.New()
		rows, err := RunChaos(opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rows, traceBytes(t, opt.Recorder)
	}
	serialRows, serialTrace := run(1)
	parallelRows, parallelTrace := run(4)
	if !reflect.DeepEqual(serialRows, parallelRows) {
		t.Errorf("chaos rows differ between serial and parallel runs:\nserial:   %+v\nparallel: %+v",
			serialRows, parallelRows)
	}
	if !bytes.Equal(serialTrace, parallelTrace) {
		t.Errorf("chaos traces differ: serial %d bytes, parallel %d bytes",
			len(serialTrace), len(parallelTrace))
	}
}

// TestElasticParallelMatchesSerial extends the equivalence to the elastic
// sweep, whose rows are aggregated across seeds, and adds the recorder
// kinds: table 11 is the same untraced, traced, and under a retention-free
// recorder (the -serve configuration), whose log is always empty.
func TestElasticParallelMatchesSerial(t *testing.T) {
	run := func(workers int, rec *trace.Recorder) ([]ElasticRow, []byte) {
		opt := DefaultElasticOptions()
		opt.Seeds = opt.Seeds[:2]
		opt.MTBFs = opt.MTBFs[:1]
		opt.Workers = workers
		opt.Recorder = rec
		rows, err := RunElasticSweep(opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rows, traceBytes(t, opt.Recorder)
	}
	serialRows, serialTrace := run(1, trace.New())
	parallelRows, parallelTrace := run(4, trace.New())
	if !reflect.DeepEqual(serialRows, parallelRows) {
		t.Errorf("elastic rows differ between serial and parallel runs:\nserial:   %+v\nparallel: %+v",
			serialRows, parallelRows)
	}
	if !bytes.Equal(serialTrace, parallelTrace) {
		t.Errorf("elastic traces differ: serial %d bytes, parallel %d bytes",
			len(serialTrace), len(parallelTrace))
	}

	untraced, _ := run(1, nil)
	noRetain := trace.New()
	noRetain.SetRetain(false)
	streamed, _ := run(1, noRetain)
	want := RenderElasticSweep(untraced).Render()
	if got := RenderElasticSweep(serialRows).Render(); got != want {
		t.Errorf("table 11 traced differs from untraced:\ntraced:\n%s\nuntraced:\n%s", got, want)
	}
	if got := RenderElasticSweep(streamed).Render(); got != want {
		t.Errorf("table 11 under a retention-free recorder differs from untraced:\nretention-free:\n%s\nuntraced:\n%s", got, want)
	}
}

// TestTableSweepParallelMatchesSerial covers the per-model table grids
// (steady-state measurement path, no fault injection).
func TestTableSweepParallelMatchesSerial(t *testing.T) {
	models := Table3Models()[:2]
	run := func(workers int) ([]Table3Row, []byte) {
		opt := DefaultOptions()
		opt.Workers = workers
		opt.Recorder = trace.New()
		rows, err := RunTable3(models, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rows, traceBytes(t, opt.Recorder)
	}
	serialRows, serialTrace := run(1)
	parallelRows, parallelTrace := run(4)
	if !reflect.DeepEqual(serialRows, parallelRows) {
		t.Errorf("table 3 rows differ between serial and parallel runs")
	}
	if !bytes.Equal(serialTrace, parallelTrace) {
		t.Errorf("table 3 traces differ: serial %d bytes, parallel %d bytes",
			len(serialTrace), len(parallelTrace))
	}
}

// TestParallelUntracedStaysUntraced pins that a parallel sweep with no
// recorder attaches no private recorders either: runs must not pay the
// tracing cost just because they run on a worker pool.
func TestParallelUntracedStaysUntraced(t *testing.T) {
	opt := DefaultChaosOptions()
	opt.Seeds = []int64{3}
	opt.Workers = 4
	rows, err := RunChaos(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if !row.Completed {
			t.Errorf("policy %v seed %d did not complete", row.Policy, row.Seed)
		}
	}
}
