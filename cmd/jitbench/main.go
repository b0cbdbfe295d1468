// Command jitbench regenerates the paper's evaluation tables (Tables 1–8
// plus the §5.1 cost estimates and the §6.5 worked example) from the
// simulation and prints them in the paper's layout, followed by the
// peer-shelter comparison (table 9): steady-state overhead versus
// catastrophic-failure cost for PC_disk, UserJIT+PC_1/day, PeerShelter
// and UserJIT+Peer.
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
// The checked-in reference output lives at docs/jitbench_output.txt;
// regenerate it after changing the simulation with:
//
//	go run ./cmd/jitbench > docs/jitbench_output.txt
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
	iters := flag.Int("iters", 10, "minibatches per measurement run")
	seed := flag.Int64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "run a small model subset")
	policySpec := flag.String("policies", "", "comma-separated policy filter for the peer comparison (e.g. PeerShelter,UserJIT+Peer)")
	mixSpec := flag.String("mix", "", "failure-kind mix for the chaos suite, e.g. \"gpu-hard:0.2,network-hang:0.5\" (empty = paper default)")
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
			fmt.Fprintf(os.Stderr, "jitbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *table < 0 || *table > 14 {
		fmt.Fprintf(os.Stderr, "jitbench: no table %d: -table takes 1 to 14, or 0 for all\n", *table)
		os.Exit(2)
	}
	policies, err := experiments.ParsePolicies(*policySpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jitbench: %v\n", err)
		os.Exit(2)
	}
	mix, err := failure.ParseMix(*mixSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jitbench: %v\n", err)
		os.Exit(2)
	}
	opt := experiments.Options{Iters: *iters, Seed: *seed, Workers: workers}
	if *traceOut != "" {
		opt.Recorder = trace.New()
	}
	runErr := run(*table, opt, *quick, policies, mix)
	if opt.Recorder != nil {
		// Export whatever was recorded even when a table errored: the
		// trace is most valuable exactly then.
		if err := writeTrace(opt.Recorder, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "jitbench: %v\n", err)
			os.Exit(1)
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "jitbench: %v\n", runErr)
		os.Exit(1)
	}
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

func run(table int, opt experiments.Options, quick bool, policies []experiments.Policy, mix map[failure.Kind]float64) error {
	want := func(n int) bool { return table == 0 || table == n }

	t3models := experiments.Table3Models()
	t4models := experiments.Table4Models()
	t5models := experiments.Table5Models()
	t6models := experiments.Table6Models()
	t7models := experiments.Table7Models()
	if quick {
		t3models = t3models[:2]
		t4models = t4models[:2]
		t5models = t5models[:2]
		t6models = t6models[:2]
		t7models = t7models[:2]
	}

	if want(1) {
		fmt.Println(experiments.Table1().Render())
	}
	if want(2) {
		fmt.Println(experiments.Table2().Render())
	}

	var t3rows []experiments.Table3Row
	var t4rows []experiments.Table4Row
	var err error
	if want(3) || want(8) {
		if t3rows, err = experiments.RunTable3(t3models, opt); err != nil {
			return fmt.Errorf("table 3: %w", err)
		}
	}
	if want(3) {
		fmt.Println(experiments.RenderTable3(t3rows).Render())
	}
	if want(4) || want(8) {
		if t4rows, err = experiments.RunTable4(t4models, opt); err != nil {
			return fmt.Errorf("table 4: %w", err)
		}
	}
	if want(4) {
		fmt.Println(experiments.RenderTable4(t4rows).Render())
	}
	if want(5) {
		rows, err := experiments.RunTable5(t5models, opt)
		if err != nil {
			return fmt.Errorf("table 5: %w", err)
		}
		fmt.Println(experiments.RenderTable5(rows).Render())
	}
	if want(6) {
		rows, err := experiments.RunTable6(t6models, opt)
		if err != nil {
			return fmt.Errorf("table 6: %w", err)
		}
		fmt.Println(experiments.RenderTable6(rows).Render())
	}
	if want(7) {
		rows, err := experiments.RunTable7(t7models, opt)
		if err != nil {
			return fmt.Errorf("table 7: %w", err)
		}
		fmt.Println(experiments.RenderTable7(rows).Render())
	}
	if want(8) {
		fmt.Println(experiments.RenderTable8(experiments.RunTable8(t4rows, t3rows)).Render())
	}
	if want(9) {
		pmodels := experiments.PeerModels()
		if quick {
			pmodels = pmodels[:1]
		}
		rows, err := experiments.RunPeerComparison(pmodels, policies, opt)
		if err != nil {
			return fmt.Errorf("peer comparison: %w", err)
		}
		fmt.Println(experiments.RenderPeerComparison(rows).Render())
	}
	if want(10) {
		copt := experiments.DefaultChaosOptions()
		copt.Mix = mix
		copt.Policies = policies
		copt.Recorder = opt.Recorder
		copt.Workers = opt.Workers
		if quick {
			copt.Seeds = copt.Seeds[:1]
		}
		rows, err := experiments.RunChaos(copt)
		if err != nil {
			return fmt.Errorf("chaos suite: %w", err)
		}
		fmt.Println(experiments.RenderChaos(rows).Render())
	}
	if want(11) {
		eopt := experiments.DefaultElasticOptions()
		eopt.Recorder = opt.Recorder
		eopt.Workers = opt.Workers
		if quick {
			eopt.Seeds = eopt.Seeds[:1]
			eopt.MTBFs = eopt.MTBFs[:1]
		}
		rows, err := experiments.RunElasticSweep(eopt)
		if err != nil {
			return fmt.Errorf("elastic sweep: %w", err)
		}
		fmt.Println(experiments.RenderElasticSweep(rows).Render())
	}
	if want(12) {
		fopt := experiments.DefaultFleetOptions()
		fopt.Recorder = opt.Recorder
		fopt.Workers = opt.Workers
		if quick {
			fopt.Seeds = fopt.Seeds[:1]
			fopt.MTBFs = fopt.MTBFs[:1]
			fopt.HeadlineJobs = 0
		}
		rows, err := experiments.RunFleetSweep(fopt)
		if err != nil {
			return fmt.Errorf("fleet sweep: %w", err)
		}
		fmt.Println(experiments.RenderFleetSweep(rows).Render())
	}
	if want(13) {
		schemes := experiments.ErasureSchemes()
		if quick {
			schemes = schemes[:3]
		}
		rows, err := experiments.RunErasureSweep(schemes, opt)
		if err != nil {
			return fmt.Errorf("erasure sweep: %w", err)
		}
		fmt.Println(experiments.RenderErasureSweep(rows).Render())
	}
	if want(14) {
		ropt := experiments.DefaultRecoveryFamiliesOptions()
		ropt.Recorder = opt.Recorder
		ropt.Workers = opt.Workers
		if quick {
			ropt.Seeds = ropt.Seeds[:1]
			ropt.MTBFs = ropt.MTBFs[:1]
			ropt.Intervals = ropt.Intervals[:1]
			ropt.Sizes = ropt.Sizes[:1]
		}
		rows, err := experiments.RunRecoveryFamilies(ropt)
		if err != nil {
			return fmt.Errorf("recovery-family sweep: %w", err)
		}
		fmt.Println(experiments.RenderRecoveryFamilies(rows).Render())
	}
	if table == 0 {
		fmt.Println(experiments.DollarCostTable().Render())
		fmt.Println(experiments.BertWorkedExample().Render())
	}
	return nil
}
