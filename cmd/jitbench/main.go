// Command jitbench prints the entries of the table registry
// (experiments.Tables): the paper's evaluation Tables 1–8 from the
// simulation in the paper's layout, this repository's tables 9–14, and,
// on a full run, the §5.1 cost estimates and the §6.5 worked example.
//
// Usage:
//
//	jitbench                              # all tables
//	jitbench -table 5                     # one table (9 = peer comparison,
//	                                      #            10 = chaos suite,
//	                                      #            11 = elastic sweep,
//	                                      #            12 = fleet sweep,
//	                                      #            13 = erasure sweep,
//	                                      #            14 = recovery families)
//	jitbench -iters 20                    # longer measurement runs
//	jitbench -quick                       # small model subset (fast smoke run)
//	jitbench -table 9 -policies PeerShelter,UserJIT+Peer
//	                                      # filter the comparison's policies
//	jitbench -table 10 -mix "gpu-hard:0.3,network-hang:0.7"
//	                                      # chaos suite under a custom fault mix
//	jitbench -table 4 -trace bench.json   # Chrome trace of every measurement run
//	jitbench -parallel 0                  # sweep runs across all CPUs
//	                                      # (results identical to serial)
//	jitbench -serve-check                 # prove live streaming observability
//	                                      # leaves tables 12/13 byte-identical
//
// The checked-in reference output lives at docs/jitbench_output.txt, and
// experiments.TestJitbenchOutput holds it to the code; regenerate it after
// changing the simulation with:
//
//	go test ./internal/experiments -run TestJitbenchOutput -update
package main

import (
	"flag"
	"fmt"
	"os"

	"jitckpt/internal/experiments"
	"jitckpt/internal/failure"
	"jitckpt/internal/trace"
)

func main() {
	table := flag.Int("table", 0, "table number to regenerate (0 = all)")
	iters := flag.Int("iters", 10, "minibatches per measurement run (tables 3–9 and 13)")
	seed := flag.Int64("seed", 1, "simulation seed (tables 3–9 and 13)")
	quick := flag.Bool("quick", false, "run a small subset of every table")
	policySpec := flag.String("policies", "", "comma-separated policy filter for table 9 (peer comparison) and table 10 (chaos suite), e.g. PeerShelter,UserJIT+Peer")
	mixSpec := flag.String("mix", "", "failure-kind mix for table 10 (chaos suite), e.g. \"gpu-hard:0.2,network-hang:0.5\" (empty = paper default)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of every measurement run (one trace pid per run)")
	parallel := flag.Int("parallel", 1, "worker count for sweep grids (0 = GOMAXPROCS, 1 = serial); results are identical either way")
	serveCheck := flag.Bool("serve-check", false, "differentially verify the live streaming layer: run a table-12 and table-13 sweep cell post-hoc and streamed; rows must be byte-identical")
	flag.Parse()

	workers := *parallel
	if workers == 0 {
		workers = experiments.DefaultWorkers()
	}

	if *serveCheck {
		if err := runServeCheck(); err != nil {
			fatal(1, err)
		}
		return
	}

	last := 0
	for _, t := range experiments.Tables() {
		last = max(last, t.Num)
	}
	if *table < 0 || *table > last {
		fatal(2, fmt.Errorf("no table %d: -table takes 1 to %d, or 0 for all", *table, last))
	}
	policies, err := experiments.ParsePolicies(*policySpec)
	if err != nil {
		fatal(2, err)
	}
	mix, err := failure.ParseMix(*mixSpec)
	if err != nil {
		fatal(2, err)
	}
	opt := experiments.Options{Iters: *iters, Seed: *seed, Workers: workers}
	if *traceOut != "" {
		opt.Recorder = trace.New()
	}
	runErr := run(*table, experiments.TableRun{Options: opt, Quick: *quick, Policies: policies, Mix: mix})
	if opt.Recorder != nil {
		// Export whatever was recorded even when a table errored: the
		// trace is most valuable exactly then.
		if err := writeTrace(opt.Recorder, *traceOut); err != nil {
			fatal(1, err)
		}
	}
	if runErr != nil {
		fatal(1, runErr)
	}
}

func fatal(code int, err error) {
	fmt.Fprintf(os.Stderr, "jitbench: %v\n", err)
	os.Exit(code)
}

// runServeCheck proves the streaming observability layer cannot perturb
// the evaluation: one fleet-sweep cell (table 12) and the erasure sweep
// (table 13) each run twice, post-hoc and observed live by a
// tracestream sink, and the rendered rows must be byte-identical.
func runServeCheck() error {
	for _, check := range []func() (experiments.ServeCheckReport, error){
		experiments.FleetServeCheck,
		experiments.ErasureServeCheck,
	} {
		rep, err := check()
		if err != nil {
			return err
		}
		fmt.Printf("serve-check %s\n", rep)
		if !rep.Identical() {
			return fmt.Errorf("streaming perturbed the %s rows", rep.Table)
		}
	}
	return nil
}

// writeTrace exports the recorded events as Chrome trace-event JSON.
func writeTrace(rec *trace.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "jitbench: wrote %d trace events (%d runs) to %s\n",
		rec.Len(), trace.NewQuery(rec).Runs(), path)
	return nil
}

// run prints every registry entry the -table selection names; 0 names
// them all, including the entries numbered 0.
func run(table int, r experiments.TableRun) error {
	for _, t := range experiments.Tables() {
		if table != 0 && table != t.Num {
			continue
		}
		tab, err := t.Run(r)
		if err != nil {
			return fmt.Errorf("%s: %w", t.Title, err)
		}
		fmt.Println(tab.Render())
	}
	return nil
}
