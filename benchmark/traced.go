package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"

	"jitckpt/internal/trace"
	"jitckpt/internal/tracestream"
)

// tracedResult is everything the traced phase measured: every per-layer
// metric by name, plus where the span and profile files went.
type tracedResult struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Env      envBlock           `json:"env"`
	Metrics  map[string]float64 `json:"metrics"`

	Attempted int      `json:"ops_attempted"`
	Failed    int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	Digest    string   `json:"sim_digest"`

	// SpanSelfMs is each benchmark-side span's self time, summed by name.
	SpanSelfMs map[string]float64 `json:"span_self_ms"`
	SpanFile   string             `json:"span_file,omitempty"`
	// ProfileFiles are the CPU profiles, one per traced cycle (the
	// profiler is off during the untraced cycles in between).
	ProfileFiles []string `json:"profile_files,omitempty"`

	profiles [][]byte
}

// countingSink is the traced pass's trace.EventSink: it counts what the
// program's own recorder emits without keeping any of it.
type countingSink struct {
	events    uint64
	runs      int
	readBytes int64 // Σ read_bytes of ckpt/restore-done instants
}

func (c *countingSink) Event(ev *trace.Ev) {
	c.events++
	if ev.Run > c.runs {
		c.runs = ev.Run
	}
	if ev.Ph == 'i' && ev.Cat == "ckpt" && ev.Name == "restore-done" {
		for _, a := range ev.Args {
			if a.K == "read_bytes" {
				if n, err := strconv.ParseInt(a.V, 10, 64); err == nil {
					c.readBytes += n
				}
			}
		}
	}
}

// noRetainRecorder builds the recorder TestStreamingOverheadGuard uses:
// retention off, so it costs formatting and forwarding only.
func noRetainRecorder(sink trace.EventSink) *trace.Recorder {
	rec := trace.New()
	rec.SetRetain(false)
	if sink != nil {
		rec.SetSink(sink)
	}
	return rec
}

// runTraced is the traced phase. Untraced cycles (the reference for the
// tracing overhead, and the allocation counts) alternate with the same
// cycles under benchmark-side spans, a CPU profile and the program's own
// trace.Recorder feeding a counting sink; then, for workloads with a
// stream arm, plain-vs-streamed pairs in ABBA order; then the per-layer
// probes.
func runTraced(def workloadDef, seed int64, outDir string) (*tracedResult, error) {
	out := &tracedResult{Workload: def.name, Seed: seed, Env: readEnv(), Metrics: map[string]float64{}}
	m := out.Metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}

	b, err := setUp(def, seed, 1) // setup_s is a timed-phase metric: once is enough here
	if err != nil {
		return nil, err
	}
	inst := b.inst
	spans := newSpanRecorder()

	// Untraced and traced cycles alternate (and swap order every cycle), so
	// machine drift lands on both arms of the overhead estimate alike.
	plain := make([][]float64, inst.variants)
	traced := make([][]float64, inst.variants)
	var mallocs, allocBytes, gcCycles, passes float64
	var samples []profSample
	var counts countingSink
	var first passResult // the first traced cycle's simulated outcome
	plainCycle := func() {
		// Allocation counters are read around each pass, outside its timed
		// region.
		for v := 0; v < inst.variants; v++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			s, _ := b.measure(v, nil)
			runtime.ReadMemStats(&after)
			plain[v] = append(plain[v], s.wallMs)
			mallocs += float64(after.Mallocs - before.Mallocs)
			allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
			gcCycles += float64(after.NumGC - before.NumGC)
			passes++
		}
	}
	tracedCycle := func(keep bool) error {
		var profile bytes.Buffer
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return fmt.Errorf("%s: cpu profile: %w", def.name, err)
		}
		for v := 0; v < inst.variants; v++ {
			sink := &countingSink{}
			t := &tracer{spans: spans, rec: noRetainRecorder(sink)}
			spans.nextPass()
			var s passSample
			var res passResult
			spans.do("pass/"+def.name, func() { s, res = b.measure(v, t) })
			traced[v] = append(traced[v], s.wallMs)
			if !keep {
				continue // counts are per cycle and repeat exactly
			}
			counts.events += sink.events
			counts.runs += sink.runs
			counts.readBytes += sink.readBytes
			first.redoIters += res.redoIters
			first.sim.Add(res.sim)
			first.simTime += res.simTime
			first.peer.Encodes += res.peer.Encodes
			first.peer.Decodes += res.peer.Decodes
			first.peer.BytesSheltered += res.peer.BytesSheltered
			first.paperErr = res.paperErr
		}
		pprof.StopCPUProfile()
		part, err := parseProfile(profile.Bytes())
		if err != nil {
			return fmt.Errorf("%s: %w", def.name, err)
		}
		samples = append(samples, part...)
		out.profiles = append(out.profiles, profile.Bytes())
		return nil
	}
	for c := 0; c < def.tracedCycles; c++ {
		if c%2 == 0 {
			plainCycle()
		}
		if err := tracedCycle(c == 0); err != nil {
			return nil, err
		}
		if c%2 == 1 {
			plainCycle()
		}
	}
	plainMs := variantMedians(plain)
	m["runtime.allocs_per_pass"] = mallocs / passes
	m["runtime.alloc_mb_per_pass"] = allocBytes / passes / 1e6
	m["runtime.gc_cycles_per_pass"] = gcCycles / passes
	m["trace.overhead_pct"] = 100 * (variantMedians(traced)/plainMs - 1)

	passesPerCycle := float64(inst.variants)
	m["vclock.events"] = float64(first.sim.Events()) / passesPerCycle
	m["vclock.dispatches"] = float64(first.sim.Dispatches) / passesPerCycle
	m["vclock.timer_fires"] = float64(first.sim.TimerFires) / passesPerCycle
	if ev := first.sim.Events(); ev > 0 {
		m["vclock.ns_per_event"] = plainMs * 1e6 * passesPerCycle / float64(ev)
	}
	m["core.sim_time_s"] = first.simTime.Sec() / passesPerCycle
	m["core.sim_redo_iters"] = float64(first.redoIters) / passesPerCycle
	m["core.runs"] = float64(counts.runs) / passesPerCycle
	m["trace.events"] = float64(counts.events) / passesPerCycle
	m["checkpoint.read_mb"] = float64(counts.readBytes) / 1e6 / passesPerCycle
	m["peerckpt.encodes"] = float64(first.peer.Encodes) / passesPerCycle
	m["peerckpt.decodes"] = float64(first.peer.Decodes) / passesPerCycle
	m["peerckpt.bytes_sheltered"] = float64(first.peer.BytesSheltered) / passesPerCycle
	m["experiments.paper_err_pct"] = first.paperErr

	att := attribute(samples)
	for _, layer := range cpuLayers {
		m[layer+".cpu_pct"] = att.pct(att.layers[layer])
	}
	for _, g := range symbolGroups {
		m[g.name+"_pct"] = att.pct(att.groups[g.name])
	}
	m["profile.samples"] = float64(att.total)
	m["profile.attributed_pct"] = att.pct(att.attributed)

	if def.streamArm {
		streamArm(b, spans, m)
	}

	probeValues, probeFailures := runProbes(&tracer{spans: spans})
	for k, v := range probeValues {
		m[k] = v
	}

	out.Attempted, out.Failed = b.attempted, b.failed+len(probeFailures)
	out.Failures = append(b.failures, probeFailures...)
	out.Digest = fmt.Sprintf("%016x", b.digest())
	out.SpanSelfMs = map[string]float64{}
	for name, d := range spans.selfTimes() {
		out.SpanSelfMs[name] = d.Seconds() * 1000
	}
	if outDir != "" {
		if err := writeTraceFiles(out, outDir, spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// streamArm measures the streaming layer where it sits on the measured
// path: every variant is run plain, streamed, streamed, plain (ABBA), both
// arms through a retention-free recorder and the streamed one with a live
// tracestream sink attached. The overhead is the median of the per-pair
// streamed/plain ratios, so drift between pairs cancels.
func streamArm(b *built, spans *spanRecorder, m map[string]float64) {
	inst := b.inst
	streamed := make([][]float64, inst.variants)
	var ratios []float64
	var dropped uint64
	for v := 0; v < inst.variants; v++ {
		var pair [2]float64
		for i, stream := range []bool{false, true, true, false} {
			var sink trace.EventSink
			var st *tracestream.Stream
			name := "pass/plain"
			if stream {
				st = tracestream.New(tracestream.Options{})
				sink, name = st, "pass/streamed"
			}
			t := &tracer{spans: spans, rec: noRetainRecorder(sink)}
			spans.nextPass()
			var s passSample
			spans.do(name, func() { s, _ = b.measure(v, t) })
			if stream {
				streamed[v] = append(streamed[v], s.wallMs)
				dropped += st.Metrics().DroppedEvents
				pair[1] = s.wallMs
			} else {
				pair[0] = s.wallMs
			}
			if i%2 == 1 {
				ratios = append(ratios, pair[1]/pair[0])
			}
		}
	}
	m["tracestream.wall_streamed_ms"] = variantMedians(streamed)
	m["tracestream.overhead_pct"] = 100 * (median(ratios) - 1)
	m["tracestream.dropped"] = float64(dropped) / float64(2*inst.variants)
}

func writeTraceFiles(out *tracedResult, dir string, spans *spanRecorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("traced output: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", out.Workload, out.Seed))
	out.SpanFile = base + ".spans.json"
	f, err := os.Create(out.SpanFile)
	if err != nil {
		return fmt.Errorf("traced output: %w", err)
	}
	if err := spans.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("traced output: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("traced output: %w", err)
	}
	for i, p := range out.profiles {
		name := fmt.Sprintf("%s.cycle%d.cpu.pprof", base, i)
		if err := os.WriteFile(name, p, 0o644); err != nil {
			return fmt.Errorf("traced output: %w", err)
		}
		out.ProfileFiles = append(out.ProfileFiles, name)
	}
	return nil
}
