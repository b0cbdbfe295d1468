// Command jitsim runs one simulated training job under a chosen
// checkpointing policy with an optional injected failure, and reports the
// outcome: wall time, wasted-work accounting, recovery episodes with their
// step breakdown, and the loss trace tail.
//
// Examples:
//
//	jitsim -workload BERT-B-FT -policy transparent -fail network-hang -fail-iter 5
//	jitsim -workload GPT2-18B -policy userjit -fail gpu-hard -iters 12
//	jitsim -workload GPT2-S -policy pc_disk -iters 30 -trace-text -
//	jitsim -workload BERT-B-FT -policy userjit -chaos -fail gpu-hard
//	jitsim -policy pc_disk -fail-rate 200 -mix "gpu-hard:0.5,network-hang:0.5"
//	jitsim -seed 1 -policy jit -trace out.json
//	jitsim -policy userjit -fail gpu-hard -trace-text timeline.txt
//	jitsim -workload GPT2-8B -policy jit+elastic -spares 0 -fail node-down
//	                                  # no spares: shrink + degraded finish
//	jitsim -workload GPT2-18B -policy peer -rs 2,1 -rack 1 -fail node-down
//	                                  # erasure-coded shelter: each rank's
//	                                  # state striped into k=2 data + m=1
//	                                  # parity fragments; restore decodes
//	jitsim -fleet "6xjit+elastic,3xpc_disk,1xpc_disk@5" -fail-rate 200
//	                                  # fleet mode: many concurrent jobs
//	                                  # leasing one arbitrated cluster
//	jitsim -fleet "4xjit+elastic,4xpc_disk" -fail-rate 300 -serve :8080
//	                                  # live observability: GET /metrics,
//	                                  # /fleet, /jobs/{id}/timeline while
//	                                  # the fleet runs (and after)
//
// In -fleet mode the value is a jobs spec of COUNTxPOLICY[@PRIORITY][:ITERS]
// groups; every job runs the fleet-tiny workload on a shared node pool with
// cluster-scoped failures (-fail-rate is per node-day, kinds drawn from the
// node mix), and the report shows per-tenant outcomes plus the exact
// cluster-wide accounting.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"time"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/cluster"
	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/peerckpt"
	"jitckpt/internal/trace"
	"jitckpt/internal/tracestream"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// policies is the shared registry's key/alias map: any policy added to
// core.Policies is immediately runnable here and in -fleet job specs.
var policies = core.PolicyKeys()

// policyHelp renders the canonical keys in registry order for -policy's
// usage string.
func policyHelp() string {
	keys := make([]string, 0, len(policies))
	for _, pi := range core.Policies() {
		keys = append(keys, pi.Key)
	}
	return strings.Join(keys, "|")
}

// singleJobFlags and fleetFlags name the flags only one of the two modes
// reads; every other flag is shared.
var (
	singleJobFlags = flagSet("workload policy spares fail fail-iter fail-frac fail-rank rs rack chaos chaos-p loss")
	fleetFlags     = flagSet("fleet-nodes fleet-rack fleet-horizon repair")
)

func flagSet(names string) map[string]bool {
	set := make(map[string]bool)
	for _, n := range strings.Fields(names) {
		set[n] = true
	}
	return set
}

// The flags. Those only one of the two modes reads are named in
// singleJobFlags and fleetFlags below.
var (
	wlName       = flag.String("workload", "BERT-B-FT", "workload name (see jitbench -table 2)")
	policy       = flag.String("policy", "transparent", policyHelp())
	iters        = flag.Int("iters", 12, "useful minibatches to complete")
	spares       = flag.Int("spares", -1, "spare nodes in the pool (-1 = nodes+1; 0 with an elastic policy exercises shrink)")
	seed         = flag.Int64("seed", 1, "simulation seed")
	failKind     = flag.String("fail", "", "inject failure: gpu-hard|gpu-sticky|driver-corrupt|network-hang|network-error|node-down|storage-fault|rack-down")
	failIter     = flag.Int("fail-iter", 5, "iteration the failure fires in")
	failFrac     = flag.Float64("fail-frac", 0.4, "fraction of the minibatch before the failure fires")
	failRank     = flag.Int("fail-rank", -1, "rank to fail (-1 = last data-parallel replica)")
	failRate     = flag.Float64("fail-rate", 0, "Poisson failure rate in failures per GPU-day (0 = off); kinds drawn from -mix")
	mixSpec      = flag.String("mix", "", "failure-kind mix for -fail-rate, e.g. \"gpu-hard:0.2,network-hang:0.5\" (empty = paper default)")
	rsSpec       = flag.String("rs", "", "Reed-Solomon stripe geometry \"k,m\" for peer-shelter policies (empty = whole-entry replication)")
	rackSize     = flag.Int("rack", 0, "failure-domain width in nodes for single-job runs (0 = default 2)")
	chaos        = flag.Bool("chaos", false, "chaos mode: randomly fail/tear/bit-flip checkpoint-store writes (seeded by -seed)")
	chaosP       = flag.Float64("chaos-p", 0.12, "per-write fault probability in -chaos mode")
	traceOut     = flag.String("trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing or Perfetto)")
	traceText    = flag.String("trace-text", "", "write the compact deterministic text timeline to a file (\"-\" = stdout)")
	lossTail     = flag.Int("loss", 5, "loss-trace entries to print")
	stats        = flag.Bool("stats", false, "print simulation-kernel event counters and wall-clock throughput")
	fleetSpec    = flag.String("fleet", "", "fleet mode: jobs spec of COUNTxPOLICY[@PRIORITY][:ITERS] groups, e.g. \"6xjit+elastic,3xpc_disk@5:20\"")
	fleetNodes   = flag.Int("fleet-nodes", 0, "cluster nodes in -fleet mode (0 = 2 per job + 2 spares)")
	fleetRack    = flag.Int("fleet-rack", 4, "failure-domain width in nodes for -fleet rack-down faults")
	fleetHorizon = flag.Float64("fleet-horizon", 120, "-fleet simulation horizon in seconds (jobs still running end there)")
	repairSec    = flag.Float64("repair", 10, "mean node-repair turnaround in seconds for -fleet -fail-rate faults (0 = nodes stay down)")
	serveAddr    = flag.String("serve", "", "serve live streaming observability (/metrics, /fleet, /jobs/{id}/timeline) on this address, e.g. \":8080\"; keeps serving after the run until interrupted")
)

func main() {
	flag.Parse()
	// A flag only the other mode reads would be silently ignored: refuse it.
	flag.Visit(func(f *flag.Flag) {
		switch {
		case *fleetSpec != "" && singleJobFlags[f.Name]:
			usage(fmt.Errorf("-%s is a single-job flag; -fleet mode does not read it", f.Name))
		case *fleetSpec == "" && fleetFlags[f.Name]:
			usage(fmt.Errorf("-%s is a fleet flag; it needs -fleet", f.Name))
		}
	})

	// A value outside its range would be ignored, or panic after the run.
	for _, bad := range []struct {
		is  bool
		msg string
	}{
		{*lossTail < 0, "-loss must not be negative"},
		{*chaosP < 0 || *chaosP > 1, "-chaos-p must be within [0,1]"},
		{*failRate < 0, "-fail-rate must not be negative"},
		{*rackSize < 0, "-rack must not be negative"},
		{*failFrac < 0, "-fail-frac must not be negative"},
		{*failKind != "" && *failIter >= *iters, "-fail-iter must be below -iters, or the failure never fires"},
	} {
		if bad.is {
			usage(errors.New(bad.msg))
		}
	}

	if *fleetSpec != "" {
		if err := runFleet(); err != nil {
			fatal(err)
		}
		return
	}

	wl, err := workload.ByName(*wlName)
	if err != nil {
		usage(err)
	}
	pol, ok := policies[*policy]
	if !ok {
		usage(fmt.Errorf("unknown policy %q", *policy))
	}
	cfg := core.JobConfig{
		WL: wl, Policy: pol, Iters: *iters, Seed: *seed,
		SpareNodes: wl.Nodes + 1, CollectLoss: true, RackSize: *rackSize,
	}
	if *spares >= 0 {
		cfg.SpareNodes = *spares
	}
	if *rsSpec != "" {
		if !pol.Info().Peer {
			usage(fmt.Errorf("-rs needs a peer-shelter policy (peer, jit+peer or peer+elastic), got %q", *policy))
		}
		var k, m int
		if n, err := fmt.Sscanf(*rsSpec, "%d,%d", &k, &m); err != nil || n != 2 {
			usage(fmt.Errorf("bad -rs %q (want \"k,m\", e.g. \"2,1\")", *rsSpec))
		}
		cfg.Peer = &peerckpt.Params{DataShards: k, ParityShards: m}
	}
	rec, census := observe()
	cfg.Recorder = rec
	if *failKind != "" {
		kind, ok := failure.KindByName(*failKind)
		if !ok {
			usage(fmt.Errorf("unknown failure kind %q", *failKind))
		}
		rank := *failRank
		if rank < 0 {
			rank = wl.Topo.Rank(wl.Topo.D-1, 0, 0)
		}
		cfg.IterFailures = []core.IterInjection{{Iter: *failIter, Frac: *failFrac, Rank: rank, Kind: kind}}
	}
	if *failRate > 0 {
		mix, err := failure.ParseMix(*mixSpec)
		if err != nil {
			usage(err)
		}
		horizon := vclock.Time(*iters) * wl.Minibatch * 3
		cfg.Failures = failure.PoissonPlan(rand.New(rand.NewSource(*seed)), wl.GPUs(), *failRate, horizon, mix)
		fmt.Fprintf(os.Stderr, "jitsim: sampled %d failures over %v (MTBF %v)\n",
			len(cfg.Failures.Injections), horizon, failure.MTBF(wl.GPUs(), *failRate))
	} else if *mixSpec != "" {
		usage(fmt.Errorf("-mix requires -fail-rate"))
	}
	if *chaos {
		cfg.Chaos = &core.ChaosConfig{
			DiskChaos:    checkpoint.RandomChaos(rand.New(rand.NewSource(*seed*17)), *chaosP),
			ShelterChaos: checkpoint.RandomChaos(rand.New(rand.NewSource(*seed*29)), *chaosP),
		}
	}

	start := time.Now()
	res, err := core.Run(cfg)
	elapsed := time.Since(start)
	if rec != nil {
		// Export whatever was recorded even when the run errored: the
		// trace is most valuable exactly then.
		if werr := writeTraces(rec, *traceOut, *traceText); werr != nil {
			fatal(werr)
		}
	}
	if err != nil {
		fatal(err)
	}
	report(res, *lossTail)
	if *stats {
		printStats(res.SimStats, census, res.WallTime, elapsed)
	}
	if *serveAddr != "" {
		awaitInterrupt()
	}
	if !res.Completed {
		os.Exit(2)
	}
}

// printStats is -stats: the simulation kernel's event counters, the
// dispatch census by process kind, and how fast the host got through them.
func printStats(s vclock.Stats, c dispatchCensus, simWall vclock.Time, elapsed time.Duration) {
	sec := elapsed.Seconds()
	fmt.Printf("kernel:       %d dispatches, %d timer fires, %d triggers, %d spawns\n",
		s.Dispatches, s.TimerFires, s.Triggers, s.Spawns)
	kinds := make([]string, 0, len(c.kinds))
	for k := range c.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("kernel:         %-30s callback=%d coroutine=%d\n", k, c.kinds[k][0], c.kinds[k][1])
	}
	fmt.Printf("throughput:   %.0f events/s, %.0f sim-s per wall-s (%.1fms wall)\n",
		float64(s.Events())/sec, simWall.Sec()/sec, 1000*sec)
}

// observe builds the run's one observability input: a recorder that
// retains the log when -trace or -trace-text will export it, feeds a live
// stream when -serve is set, and under -stats takes the dispatch census
// (nil when none is asked for).
func observe() (*trace.Recorder, dispatchCensus) {
	export := *traceOut != "" || *traceText != ""
	c := dispatchCensus{kinds: map[string]*[2]uint64{}}
	if !export && *serveAddr == "" && !*stats {
		return nil, c
	}
	rec := trace.New()
	rec.SetRetain(export)
	if *serveAddr != "" {
		c.next = startServe(*serveAddr)
	}
	if *stats {
		rec.SetSink(c)
	} else if c.next != nil {
		rec.SetSink(c.next)
	}
	return rec, c
}

// dispatchCensus is -stats' sink: per process kind (its name with each run
// of digits folded to '#'), the dispatches its processes took as a callback
// and as a coroutine (vclock.DispatchRecorder). It consumes no trace
// category, so a recorder that keeps no log formats no event for it; under
// -serve it hands every event on to the live stream.
type dispatchCensus struct {
	next  *tracestream.Stream
	kinds map[string]*[2]uint64
}

var digitRuns = regexp.MustCompile(`[0-9]+`)

func (c dispatchCensus) Event(ev *trace.Ev) {
	if c.next != nil {
		c.next.Event(ev)
	}
}

// SinkCats implements trace.FilteringSink: the live stream's categories, or
// none.
func (c dispatchCensus) SinkCats() map[string]bool {
	if c.next != nil {
		return c.next.SinkCats()
	}
	return map[string]bool{}
}

func (c dispatchCensus) ProcDispatches(_ int, name string, callback, coroutine uint64) {
	k := digitRuns.ReplaceAllString(name, "#")
	if c.kinds[k] == nil {
		c.kinds[k] = new([2]uint64)
	}
	c.kinds[k][0] += callback
	c.kinds[k][1] += coroutine
}

// startServe serves a live stream's HTTP endpoints in the background.
func startServe(addr string) *tracestream.Stream {
	st := tracestream.New(tracestream.Options{})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	go http.Serve(ln, tracestream.NewServer(st))
	fmt.Fprintf(os.Stderr, "jitsim: serving live metrics on http://%s (endpoints: /metrics /fleet /jobs/{id}/timeline)\n", ln.Addr())
	return st
}

// awaitInterrupt is -serve's linger after the run: it blocks until
// interrupted, so the snapshots stay inspectable after the simulation
// finishes.
func awaitInterrupt() {
	// Listen for the signal before inviting it: a supervisor that acts on
	// the line below must find the handler installed.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintln(os.Stderr, "jitsim: run finished; still serving final snapshots — interrupt to exit")
	<-sig
}

// runFleet runs many concurrent jobs leasing one arbitrated cluster in a
// single shared simulation and reports per-tenant outcomes plus the
// cluster-wide accounting, which must reconcile exactly.
func runFleet() error {
	jobs, err := cluster.ParseJobsSpec(*fleetSpec, policies, *iters)
	if err != nil {
		usage(err)
	}
	nodes := *fleetNodes
	if nodes == 0 {
		nodes = len(jobs)*2 + 2
	}
	horizon := vclock.Time(*fleetHorizon * float64(vclock.Second))
	cfg := cluster.Config{
		Nodes: nodes, PerNode: 2, RackSize: *fleetRack,
		Seed: *seed, Horizon: horizon, Jobs: jobs,
	}
	rec, census := observe()
	cfg.Recorder = rec
	if *failRate > 0 {
		// An empty -mix means the node-granular default here, not the
		// rank-level paper mix ParseMix substitutes.
		mix := failure.DefaultNodeMix()
		if *mixSpec != "" {
			if mix, err = failure.ParseMix(*mixSpec); err != nil {
				usage(err)
			}
		}
		plan := failure.PoissonPlan(rand.New(rand.NewSource(*seed)), nodes, *failRate, horizon, mix)
		if *repairSec > 0 {
			plan = plan.WithRepairs(rand.New(rand.NewSource(*seed*31)),
				vclock.Time(*repairSec*float64(vclock.Second)), cfg.RackSize)
		}
		cfg.Failures = plan
		fmt.Fprintf(os.Stderr, "jitsim: sampled %d cluster faults over %v\n", len(plan.Injections), horizon)
	} else if *mixSpec != "" {
		usage(fmt.Errorf("-mix requires -fail-rate"))
	}

	start := time.Now()
	res, err := cluster.Run(cfg)
	elapsed := time.Since(start)
	if rec != nil {
		if werr := writeTraces(rec, *traceOut, *traceText); werr != nil {
			return werr
		}
	}
	if err != nil {
		return err
	}
	if err := res.Reconcile(); err != nil {
		return err
	}
	reportFleet(res)
	if *stats {
		printStats(res.Fleet.SimStats, census, res.Fleet.Wall, elapsed)
	}
	if *serveAddr != "" {
		awaitInterrupt()
	}
	if res.Fleet.JobsCompleted != res.Fleet.JobsTotal {
		os.Exit(2)
	}
	return nil
}

// reportFleet prints the fleet summary followed by one line per tenant.
func reportFleet(res *cluster.Result) {
	f := &res.Fleet
	fmt.Printf("fleet:        %d jobs on %d nodes (%d GPUs), wall %v\n",
		f.JobsTotal, f.Nodes, f.GPUs, f.Wall)
	total := float64(vclock.Time(f.Nodes) * f.Wall)
	if total > 0 {
		fmt.Printf("node-time:    %.1f%% leased, %.1f%% idle-spare, %.1f%% down\n",
			100*float64(f.UsedNodeTime)/total,
			100*float64(f.IdleNodeTime)/total,
			100*float64(f.DownNodeTime)/total)
	}
	fmt.Printf("goodput:      %.1f%% of cluster capacity\n", 100*f.Goodput)
	fmt.Printf("completed:    %d/%d jobs, %d preemptions, %d recovery episodes\n",
		f.JobsCompleted, f.JobsTotal, f.Preemptions, f.RecoveryEpisodes)
	if d := f.RecoveryLatency; d.Count > 0 {
		fmt.Printf("recovery:     mean=%v p50=%v p95=%v max=%v (%d episodes)\n",
			d.Mean, d.P50, d.P95, d.Max, d.Count)
	}
	if f.AppliedInjections+f.SkippedInjections > 0 {
		fmt.Printf("injections:   %d applied, %d skipped\n", f.AppliedInjections, f.SkippedInjections)
	}
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if j.Err != nil {
			fmt.Printf("  %-10s pri=%d FAILED: %v\n", j.Name, j.Priority, j.Err)
			continue
		}
		r := j.Res
		fmt.Printf("  %-10s pri=%d %-16v end=%-9v wall=%-9v useful=%-9v recoveries=%d node-time=%v\n",
			j.Name, j.Priority, r.Policy, r.End, r.WallTime,
			r.Accounting.Useful, len(r.RecoveryLatencies), j.NodeTime)
	}
}

// writeTraces exports the recorded events to the requested files.
func writeTraces(rec *trace.Recorder, chromePath, textPath string) error {
	if chromePath != "" {
		f, err := os.Create(chromePath)
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
		fmt.Fprintf(os.Stderr, "jitsim: wrote %d trace events to %s\n", rec.Len(), chromePath)
	}
	if textPath != "" {
		w := os.Stdout
		if textPath != "-" {
			f, err := os.Create(textPath)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := trace.WriteText(w, rec); err != nil {
			return err
		}
	}
	return nil
}

func report(res *core.RunResult, lossTail int) {
	fmt.Printf("policy:       %v\n", res.Policy)
	fmt.Printf("completed:    %v\n", res.Completed)
	fmt.Printf("end:          %v\n", res.End)
	fmt.Printf("wall time:    %v\n", res.WallTime)
	fmt.Printf("minibatch:    %v\n", res.Minibatch)
	fmt.Printf("iterations:   %d executed (incl. redone)\n", res.ItersExecuted)
	fmt.Printf("incarnations: %d\n", res.Incarnations)
	fmt.Printf("accounting:   %s\n", res.Accounting.String())
	if res.JITCheckpointTime > 0 {
		fmt.Printf("jit ckpt:     %v, restore: %v\n", res.JITCheckpointTime, res.RestoreTime)
	}
	if p := res.Peer; p.Encodes > 0 || p.Decodes > 0 {
		fmt.Printf("peer codec:   %d encodes (%v), %d decodes (%v), %d fragment erasures\n",
			p.Encodes, p.EncodeTime, p.Decodes, p.DecodeTime, p.FragErasures)
	}
	for i, rep := range res.Reports {
		fmt.Printf("recovery #%d:  kind=%s total=%v healthy=%v failed=%v\n",
			i+1, rep.Kind, rep.Total(), rep.HealthyAvg, rep.FailedAvg)
		var steps []string
		for _, ph := range rep.Phases {
			steps = append(steps, fmt.Sprintf("%s=%v", ph.Name, ph.Dur))
		}
		fmt.Printf("              %s\n", strings.Join(steps, " "))
	}
	if len(res.Loss) > 0 {
		iters := make([]int, 0, len(res.Loss))
		for it := range res.Loss {
			iters = append(iters, it)
		}
		sort.Ints(iters)
		if len(iters) > lossTail {
			iters = iters[len(iters)-lossTail:]
		}
		fmt.Printf("loss tail:   ")
		for _, it := range iters {
			fmt.Printf(" [%d]=%.6f", it, res.Loss[it])
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "jitsim: %v\n", err)
	os.Exit(1)
}

// usage reports a malformed flag value and exits 2, the status the flag
// package itself uses for an undefined flag.
func usage(err error) {
	fmt.Fprintf(os.Stderr, "jitsim: %v\n", err)
	os.Exit(2)
}
