package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds; a test keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	What   string  // one-line definition
	// Moves is, for a per-layer metric, which end-to-end metric on which
	// workload a change to it should move (the prediction table's row).
	Moves string
}

// endToEnd are the metrics a user of the simulator would see, measured in
// the timed phase with tracing off. Every workload reports every one.
var endToEnd = []metricDef{
	{Name: "wall_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		What: "host wall time of one untraced pass at nominal machine speed: median per input variant, mean over variants"},
	{Name: "cpu_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		What: "process user+sys CPU time (Getrusage delta) of one pass, same estimator; catches faster-by-burning-the-second-core"},
	{Name: "runs_per_s", Unit: "runs/s", Better: "higher", Bound: 0.25,
		What: "verified simulation runs per host second: runs per pass / wall_ms"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10,
		What: "VmHWM of the workload's process at the end of the timed phase"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		What: "config build, failure-free reference runs and one warm-up cycle (fleet500: a 20-tenant shakedown instead); median of 3 set-ups, at nominal machine speed"},
}

// Prediction rows shared by several per-layer metrics.
const (
	movesKernel  = "wall_ms, cpu_ms on chaos_grid (most), fleet500, paper_tables; wide_state by less than its ~20% scheduler share"
	movesFleet   = "wall_ms and peak_rss_mb on fleet500; not chaos_grid or wide_state"
	movesProxy   = "wall_ms on paper_tables; nothing else (proxy share is 0 elsewhere)"
	movesBytes   = "wall_ms on wide_state; not chaos_grid or fleet500 (byte work < 5% there)"
	movesTrace   = "tracestream.wall_streamed_ms and tracestream.overhead_pct on chaos_grid; no wall_ms"
	movesAlloc   = "wall_ms everywhere (15-20% malloc+GC) and peak_rss_mb on fleet500"
	movesFixed   = "wall_ms on chaos_grid (13 short runs per pass); not fleet500"
	movesOutcome = "nothing: a change meant only to speed the simulator must leave it identical"
)

// perLayer are the single-layer metrics, measured in the traced phase.
// Layers are the internal/ package names. Three sources: probes (timed
// calls into one layer on fixed inputs), CPU attribution (the traced
// passes' profile charged to the innermost layer frame and to
// runtime/stdlib symbol groups) and counts (public results plus a counting
// trace sink; exact unless named *overhead*).
var perLayer = []metricDef{
	// Probes.
	{Name: "vclock.sleep_cycle_ns", Unit: "ns", Better: "lower", Moves: movesKernel,
		What: "one Sleep: timer push, heap pop, clock advance, process dispatch"},
	{Name: "vclock.sleep_cycle_p1_ns", Unit: "ns", Better: "lower", Moves: movesKernel,
		What: "the same at GOMAXPROCS 1: the handoff without cross-core wakeups"},
	{Name: "vclock.event_pingpong_ns", Unit: "ns", Better: "lower", Moves: movesKernel,
		What: "one Event Trigger+Wait handoff between two processes"},
	{Name: "vclock.queue_handoff_ns", Unit: "ns", Better: "lower", Moves: movesKernel,
		What: "one Queue Push+Pop handoff between two processes"},
	{Name: "vclock.timer_heap_ns_10k", Unit: "ns", Better: "lower", Moves: movesFleet,
		What: "one Sleep with 10k processes sleeping: the deep timer heap"},
	{Name: "vclock.spawn_ns", Unit: "ns", Better: "lower", Moves: movesFixed,
		What: "one process spawned, run and reaped"},
	{Name: "cuda.launch_sync_ns", Unit: "ns", Better: "lower", Moves: movesKernel,
		What: "one async kernel launch, synchronized every 256"},
	{Name: "nccl.allreduce_round_ns", Unit: "ns", Better: "lower", Moves: movesKernel,
		What: "one 4-rank all-reduce round (rendezvous + completion)"},
	{Name: "nccl.comm_init_ns", Unit: "ns", Better: "lower", Moves: movesFixed,
		What: "one 8-rank communicator bootstrap"},
	{Name: "intercept.call_overhead_ns", Unit: "ns", Better: "lower", Moves: movesProxy,
		What: "what the transparent interception layer adds to one launch (virtual handles, replay log)"},
	{Name: "proxy.rpc_roundtrip_ns", Unit: "ns", Better: "lower", Moves: movesProxy,
		What: "one synchronous device-proxy call (Client.EventQuery): gob encode, handoff, decode, and back"},
	{Name: "proxy.launch_ns", Unit: "ns", Better: "lower", Moves: movesProxy,
		What: "one asynchronous launch through the device proxy, synchronized every 256"},
	{Name: "train.iter_ns_h8", Unit: "ns", Better: "lower", Moves: movesKernel,
		What: "marginal host time of one 4-rank minibatch at Hidden 8 (40- vs 240-iteration delta)"},
	{Name: "train.iter_ns_h128", Unit: "ns", Better: "lower", Moves: movesBytes,
		What: "the same at Hidden 128: the real float math"},
	{Name: "train.allocs_per_iter", Unit: "allocs", Better: "lower", Moves: movesAlloc,
		What: "marginal heap allocations per 4-rank minibatch (exact)"},
	{Name: "train.bytes_per_iter", Unit: "bytes", Better: "lower", Moves: movesAlloc,
		What: "marginal heap bytes per 4-rank minibatch"},
	{Name: "train.state_encode_mbps", Unit: "MB/s", Better: "higher", Moves: movesBytes,
		What: "ModelState.Encode of a Hidden-128 rank state, real bytes per host second"},
	{Name: "train.state_decode_mbps", Unit: "MB/s", Better: "higher", Moves: movesBytes,
		What: "DecodeModelState of the same"},
	{Name: "checkpoint.write_rank_mbps", Unit: "MB/s", Better: "higher", Moves: movesBytes,
		What: "checkpoint.WriteRank of that state: encode + FNV + two-phase commit"},
	{Name: "checkpoint.read_rank_mbps", Unit: "MB/s", Better: "higher", Moves: movesBytes,
		What: "checkpoint.ReadRank: read + FNV verify + decode"},
	{Name: "erasure.encode_mbps_k4m2", Unit: "MB/s", Better: "higher", Moves: movesBytes,
		What: "RS(4,2) Encode of 1 MiB shards, data bytes per host second"},
	{Name: "erasure.reconstruct_mbps_k4m2", Unit: "MB/s", Better: "higher", Moves: movesBytes,
		What: "RS(4,2) Reconstruct with two data shards erased"},
	{Name: "erasure.encode_mbps_k2m1", Unit: "MB/s", Better: "higher", Moves: movesBytes,
		What: "RS(2,1) Encode of 1 MiB shards"},
	{Name: "trace.record_ns", Unit: "ns", Better: "lower", Moves: movesTrace,
		What: "one Instant with two args into a retaining Recorder"},
	{Name: "trace.record_noretain_ns", Unit: "ns", Better: "lower", Moves: movesTrace,
		What: "the same with retention off (format only)"},
	{Name: "tracestream.ingest_ns", Unit: "ns", Better: "lower", Moves: movesTrace,
		What: "one event ingested by a tracestream.Stream (begin/end pairs)"},
	{Name: "tracestream.metrics_snapshot_us", Unit: "us", Better: "lower", Moves: movesTrace,
		What: "one Stream.Metrics snapshot"},
	{Name: "scheduler.alloc_ns", Unit: "ns", Better: "lower", Moves: movesFleet,
		What: "one 2-node Allocate+Release on a half-leased 1100-node pool"},
	{Name: "cluster.job_ms_100", Unit: "ms", Better: "lower", Moves: movesFleet,
		What: "host time per tenant of a 100-tenant failure-free fleet"},
	{Name: "cluster.job_ms_500", Unit: "ms", Better: "lower", Moves: movesFleet,
		What: "host time per tenant of the 500-tenant fleet"},
	{Name: "cluster.scale_ratio", Unit: "x", Better: "lower", Moves: movesFleet,
		What: "job_ms_500 / job_ms_100: 1.0 is linear scaling in tenants"},
	{Name: "core.run_fixed_ms", Unit: "ms", Better: "lower", Moves: movesFixed,
		What: "a 1-iteration failure-free job: the fixed cost of any run"},

	// CPU attribution of the traced passes.
	{Name: "vclock.cpu_pct", Unit: "%", Better: "lower", Moves: movesKernel, What: "CPU samples whose innermost layer frame is vclock"},
	{Name: "gpu.cpu_pct", Unit: "%", Better: "lower", Moves: movesKernel, What: "… gpu"},
	{Name: "cuda.cpu_pct", Unit: "%", Better: "lower", Moves: movesKernel, What: "… cuda"},
	{Name: "nccl.cpu_pct", Unit: "%", Better: "lower", Moves: movesKernel, What: "… nccl"},
	{Name: "train.cpu_pct", Unit: "%", Better: "lower", Moves: movesBytes, What: "… train (and tensor)"},
	{Name: "checkpoint.cpu_pct", Unit: "%", Better: "lower", Moves: movesBytes, What: "… checkpoint"},
	{Name: "peerckpt.cpu_pct", Unit: "%", Better: "lower", Moves: movesBytes, What: "… peerckpt"},
	{Name: "erasure.cpu_pct", Unit: "%", Better: "lower", Moves: movesBytes, What: "… erasure"},
	{Name: "pipefree.cpu_pct", Unit: "%", Better: "lower", Moves: movesBytes, What: "… pipefree"},
	{Name: "intercept.cpu_pct", Unit: "%", Better: "lower", Moves: movesProxy, What: "… intercept"},
	{Name: "proxy.cpu_pct", Unit: "%", Better: "lower", Moves: movesProxy, What: "… proxy (and replay)"},
	{Name: "cluster.cpu_pct", Unit: "%", Better: "lower", Moves: movesFleet, What: "… cluster (and scheduler, elastic, failure)"},
	{Name: "core.cpu_pct", Unit: "%", Better: "lower", Moves: movesFixed, What: "… core (and metrics, workload)"},
	{Name: "trace.cpu_pct", Unit: "%", Better: "lower", Moves: movesTrace, What: "… trace"},
	{Name: "tracestream.cpu_pct", Unit: "%", Better: "lower", Moves: movesTrace, What: "… tracestream"},
	{Name: "experiments.cpu_pct", Unit: "%", Better: "lower", Moves: movesFixed, What: "… experiments (and analysis)"},
	{Name: "runtime.sched_pct", Unit: "%", Better: "lower", Moves: movesKernel,
		What: "CPU samples whose innermost grouped frame is goroutine scheduling or channel handoff"},
	{Name: "runtime.malloc_pct", Unit: "%", Better: "lower", Moves: movesAlloc, What: "… heap allocation"},
	{Name: "runtime.gc_pct", Unit: "%", Better: "lower", Moves: movesAlloc, What: "… garbage collection"},
	{Name: "stdlib.gob_pct", Unit: "%", Better: "lower", Moves: movesProxy + "; " + movesBytes, What: "… encoding/gob or reflect"},
	{Name: "stdlib.fnv_pct", Unit: "%", Better: "lower", Moves: movesBytes, What: "… hash/fnv"},
	{Name: "profile.samples", Unit: "count", Better: "higher", Moves: "nothing: the attribution's sample size",
		What: "CPU samples in the traced passes' profile"},
	{Name: "profile.attributed_pct", Unit: "%", Better: "higher", Moves: "nothing: the attribution's coverage",
		What: "samples charged to a layer or a runtime/stdlib group"},

	// Counts and simulated outcome, per pass.
	{Name: "vclock.events", Unit: "count", Better: "lower", Moves: movesOutcome + "; a change that removes kernel events shows here and in wall_ms",
		What: "kernel events (dispatches + timer fires + triggers) per pass; 0 on paper_tables, whose rows do not carry them"},
	{Name: "vclock.dispatches", Unit: "count", Better: "lower", Moves: movesOutcome, What: "process wakeups per pass"},
	{Name: "vclock.timer_fires", Unit: "count", Better: "lower", Moves: movesOutcome, What: "clock advances per pass"},
	{Name: "vclock.ns_per_event", Unit: "ns", Better: "lower", Moves: movesKernel,
		What: "untraced host time per simulated kernel event"},
	{Name: "core.sim_time_s", Unit: "s", Better: "lower", Moves: movesOutcome, What: "simulated seconds per pass, summed over runs"},
	{Name: "core.sim_redo_iters", Unit: "iters", Better: "lower", Moves: movesOutcome,
		What: "re-executed minibatches per pass: the paper's redo-at-most-one-minibatch outcome"},
	{Name: "core.runs", Unit: "count", Better: "higher", Moves: movesOutcome, What: "simulation runs per pass, by trace run id"},
	{Name: "experiments.paper_err_pct", Unit: "%", Better: "lower", Moves: movesOutcome,
		What: "paper_tables: mean |ours-paper|/paper over Table 4 Recovery, Table 5 Recovery, Table 6 Healthy/Failed"},
	{Name: "trace.events", Unit: "count", Better: "lower", Moves: movesTrace, What: "trace events the program's recorder emitted per pass"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: movesTrace,
		What: "traced pass (spans + profile + recorder) vs untraced pass, same process"},
	{Name: "tracestream.wall_streamed_ms", Unit: "ms", Better: "lower", Moves: movesTrace,
		What: "chaos_grid: wall time of one pass streamed through tracestream"},
	{Name: "tracestream.overhead_pct", Unit: "%", Better: "lower", Moves: movesTrace,
		What: "chaos_grid: median per-pair streamed/plain ratio, ABBA order"},
	{Name: "tracestream.dropped", Unit: "count", Better: "lower", Moves: movesTrace, What: "chaos_grid: events the stream's rings evicted per pass"},
	{Name: "peerckpt.encodes", Unit: "count", Better: "lower", Moves: movesOutcome, What: "Reed-Solomon encodes per pass"},
	{Name: "peerckpt.decodes", Unit: "count", Better: "lower", Moves: movesOutcome, What: "Reed-Solomon decodes per pass"},
	{Name: "peerckpt.bytes_sheltered", Unit: "bytes", Better: "lower", Moves: movesOutcome, What: "modelled bytes written into peer memory per pass"},
	{Name: "checkpoint.read_mb", Unit: "MB", Better: "lower", Moves: movesOutcome, What: "modelled MB read by restores per pass (restore-done read_bytes)"},
	{Name: "runtime.allocs_per_pass", Unit: "allocs", Better: "lower", Moves: movesAlloc, What: "heap allocations per untraced pass"},
	{Name: "runtime.alloc_mb_per_pass", Unit: "MB", Better: "lower", Moves: movesAlloc, What: "heap MB allocated per untraced pass"},
	{Name: "runtime.gc_cycles_per_pass", Unit: "count", Better: "lower", Moves: movesAlloc, What: "GC cycles inside one untraced pass"},
}

func (r *timedResult) values() map[string]float64 {
	return map[string]float64{
		"wall_ms": r.WallMs, "cpu_ms": r.CPUMs, "runs_per_s": r.RunsPerS,
		"peak_rss_mb": r.PeakRSSMB, "setup_s": r.SetupS,
	}
}

func (r *timedResult) resultLine() resultLine {
	line := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	v := r.values()
	for _, d := range endToEnd {
		line.Metrics[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	return line
}

func (r *tracedResult) resultLine() resultLine {
	line := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range perLayer {
		line.Metrics[d.Name] = metricValue{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return line
}

func printFailures(w io.Writer, failures []string) {
	for _, f := range failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func (t timing) String() string {
	s := fmt.Sprintf("median %.3f n=%d", t.Median, t.N)
	if t.TailPct > 0 {
		return s + fmt.Sprintf(" p%g %.3f", t.TailPct, t.Tail)
	}
	return s + fmt.Sprintf(" min %.3f max %.3f", t.Min, t.Max)
}

// printTimed prints every end-to-end metric by name with unit and bound.
func printTimed(w io.Writer, r *timedResult) {
	fmt.Fprintf(w, "== %s  timed phase (tracing off)  seed=%d\n", r.Workload, r.Seed)
	fmt.Fprintf(w, "  env: %s\n", r.Env)
	flag := ""
	if r.Noisy {
		flag = "  NOISY: canary moved more than 5% across this workload"
	}
	fmt.Fprintf(w, "  calib_ms: before %.2f after %.2f%s\n", r.CalibBefore, r.CalibAfter, flag)
	fmt.Fprintf(w, "  %d cycles x %d variants, %d runs/pass; every pass as measured: wall %s ms; cpu %s ms\n",
		r.Cycles, r.Variants, r.RunsPerPass, r.Wall, r.CPU)
	fmt.Fprintf(w, "  as measured: wall_ms %.4f cpu_ms %.4f setup_s %.6f; pulse %.3f ms (nominal %.1f): the times below are at nominal machine speed\n",
		r.RawWallMs, r.RawCPUMs, r.RawSetupS, r.PulseMs, pulseNominalMs)
	v := r.values()
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-14s %14.4f %-7s (%s is better, bound %.0f%%)\n", d.Name, v[d.Name], d.Unit, d.Better, 100*d.Bound)
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  sim_digest %s\n", r.Attempted, r.Failed, r.Digest)
	fmt.Fprintf(w, "  per cycle: sim_redo_iters %d  vclock_events %d  sim_time_s %.6f  paper_err_pct %.6f\n",
		r.RedoIters, r.Events, r.SimTimeS, r.PaperErrPct)
	printFailures(w, r.Failures)
	for _, u := range r.Unstable {
		fmt.Fprintf(w, "  UNSTABLE (simulator nondeterminism, not a failed check): %s\n", u)
	}
}

// printTraced prints every per-layer metric by name with unit.
func printTraced(w io.Writer, r *tracedResult) {
	fmt.Fprintf(w, "== %s  traced phase  seed=%d\n", r.Workload, r.Seed)
	fmt.Fprintf(w, "  env: %s\n", r.Env)
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-32s %16.4f %-6s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	names := make([]string, 0, len(r.SpanSelfMs))
	for n := range r.SpanSelfMs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.1f", n, r.SpanSelfMs[n])
	}
	fmt.Fprintf(w, "  span self ms:%s\n", b.String())
	if r.SpanFile != "" {
		fmt.Fprintf(w, "  spans: %s  profiles: %s\n", r.SpanFile, strings.Join(r.ProfileFiles, " "))
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  sim_digest %s\n", r.Attempted, r.Failed, r.Digest)
	printFailures(w, r.Failures)
}
