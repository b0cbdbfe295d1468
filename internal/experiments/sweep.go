package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"jitckpt/internal/trace"
)

// DefaultWorkers returns the sweep worker count used when callers ask for
// "parallel" without a specific number: one per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// sweep runs one simulation cell per element of cells through runGrid and
// returns the results in cell order — the one way a table or grid is
// written: the cell list is the grid, run is one cell.
func sweep[C, R any](cells []C, workers int, rec *trace.Recorder, run func(C, *trace.Recorder) (R, error)) ([]R, error) {
	rows := make([]R, len(cells))
	err := runGrid(len(cells), workers, rec, func(i int, rec *trace.Recorder) (err error) {
		rows[i], err = run(cells[i], rec)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// runGrid executes n independent simulation runs, farming them across up
// to `workers` goroutines (≤1 means serial, in the caller's goroutine).
//
// Every run is an isolated simulation with its own vclock environment, so
// runs may execute in any order — but observable output must not depend on
// that order. Serial mode records straight into the shared recorder;
// parallel mode hands each run a private recorder and splices them into
// the shared one in index order afterwards (trace.Recorder.Merge), which
// renumbers sequence and run IDs so the merged log is byte-identical to a
// serial sweep's. Callers must likewise write per-run results into
// index-addressed slots, never append from inside job.
//
// The job receives the recorder to pass to core.Run: the shared one in
// serial mode (possibly nil), a private one in parallel mode (nil when
// shared is nil, so untraced sweeps stay untraced). On error, the runs
// before the lowest failing index are still merged, and that error is
// returned — the same one a serial sweep would have stopped at.
func runGrid(n, workers int, shared *trace.Recorder, job func(i int, rec *trace.Recorder) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i, shared); err != nil {
				return err
			}
		}
		return nil
	}

	recs := make([]*trace.Recorder, n)
	errs := make([]error, n)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				var rec *trace.Recorder
				if shared != nil {
					rec = trace.New()
					recs[i] = rec
				}
				errs[i] = job(i, rec)
			}
		}()
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			for j := 0; j < i; j++ {
				shared.Merge(recs[j])
			}
			return errs[i]
		}
	}
	if shared != nil {
		for _, rec := range recs {
			shared.Merge(rec)
		}
	}
	return nil
}
