package experiments

import (
	"fmt"
	"strings"

	"jitckpt/internal/analysis"
	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/metrics"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// PeerComparisonPolicies lists the policies the peer-shelter comparison
// covers, in presentation order: the classical periodic baseline, the
// paper's recommended JIT-plus-daily combination, and the two
// peer-shelter configurations that replace the daily-disk fallback.
func PeerComparisonPolicies() []core.Policy {
	return []core.Policy{core.PolicyPCDisk, core.PolicyJITWithDaily, core.PolicyPeerShelter, core.PolicyJITWithPeer}
}

// ParsePolicies resolves a comma-separated list of policy names (any
// spelling the shared registry accepts: presentation name, CLI key, or
// alias, case-insensitive). An empty spec selects defaults (returned as
// nil).
func ParsePolicies(spec string) ([]core.Policy, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []core.Policy
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		p, ok := core.ParsePolicy(tok)
		if !ok {
			names := make([]string, 0, len(core.Policies()))
			for _, pi := range core.Policies() {
				names = append(names, pi.Name)
			}
			return nil, fmt.Errorf("experiments: unknown policy %q (have: %s)", tok, strings.Join(names, ", "))
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// PeerModels lists the multi-node workloads the comparison runs on (the
// peer tier needs at least two failure domains).
func PeerModels() []string { return []string{"GPT2-8B", "T5-3B"} }

// PeerRow is one model×policy cell of the peer-shelter comparison.
type PeerRow struct {
	Model  string
	Policy core.Policy
	// SteadyOverhead is the steady-state checkpointing overhead fraction
	// (per unit useful time, failure-free).
	SteadyOverhead float64
	// RedoIters is how many minibatches were re-executed after a
	// catastrophic failure destroyed every replica of one position.
	RedoIters int
	// WastedGPUSec is the GPU time the catastrophe cost across all N
	// GPUs (redone minibatches × minibatch × N).
	WastedGPUSec float64
	// Recovered reports whether the job completed after the catastrophe.
	Recovered bool
	// ReplShare is peer-replication traffic relative to gradient
	// all-reduce traffic (0 for non-peer policies) — the tier's
	// interconnect bandwidth cost.
	ReplShare float64
}

// catastrophicKill returns injections that hard-fail every rank holding a
// replica of rank 0's position mid-run: after this, no healthy rank holds
// that state and no JIT checkpoint of it can be taken. GPU-hard failures
// (not whole-node) keep host RAM — and with it the peer shelter — alive,
// which is exactly the failure class the tier is built for.
func catastrophicKill(wl workload.Workload, atIter int) []core.IterInjection {
	ranks := append([]int{0}, wl.Topo.ReplicaRanks(0)...)
	out := make([]core.IterInjection, 0, len(ranks))
	for _, r := range ranks {
		out = append(out, core.IterInjection{Iter: atIter, Frac: 0.5, Rank: r, Kind: failure.GPUHard})
	}
	return out
}

// RunPeerComparison measures, for each model×policy, the steady-state
// overhead and the cost of one catastrophic (all-replica-loss) failure.
// Intervals are scaled to simulation length as elsewhere in the harness:
// PC_disk checkpoints every 4 minibatches; the "daily" fallback interval
// is longer than the whole run, so — like a real 24 h cadence between
// checkpoints — no periodic checkpoint exists when the catastrophe
// strikes. Peer-shelter rollback is one minibatch when the replication
// transfer fits inside a minibatch; when it does not (T5-3B), alternate
// offers are skipped and the rollback grows to two — the staleness side
// of the Checkmate trade.
func RunPeerComparison(models []string, policies []core.Policy, opt Options) ([]PeerRow, error) {
	if len(policies) == 0 {
		policies = PeerComparisonPolicies()
	}
	// One cell per model: its policies run back to back in one recorder.
	perModel, err := sweep(models, opt.Workers, opt.Recorder, func(name string, rec *trace.Recorder) (rows []PeerRow, err error) {
		mopt := opt
		mopt.Recorder = rec
		wl, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		base, err := steadyMinibatch(wl, core.PolicyNone, mopt)
		if err != nil {
			return nil, err
		}
		for _, policy := range policies {
			row := PeerRow{Model: name, Policy: policy}
			info := policy.Info()
			// A purely periodic policy: no JIT library to take the failure.
			periodicOnly := info.Periodic && info.JITFlush == core.FlushNone

			// Steady-state overhead, measured failure-free.
			if periodicOnly {
				// Per-checkpoint stall composed with the optimal frequency,
				// as in Table 3.
				res, err := core.Run(core.JobConfig{
					WL: wl, Policy: policy, Iters: opt.Iters, Seed: opt.Seed,
					Recorder:     rec,
					CkptInterval: 4 * wl.Minibatch,
				})
				if err != nil {
					return nil, err
				}
				if !res.Completed || res.Accounting.Checkpoints == 0 {
					return nil, fmt.Errorf("experiments: %s %v steady run incomplete", name, policy)
				}
				o := res.Accounting.CkptStall.Sec() / float64(res.Accounting.Checkpoints)
				p := analysis.Params{O: o, F: analysis.PerDay(FailureRate), N: wl.GPUs()}
				row.SteadyOverhead = o * analysis.OptimalFrequency(p)
			} else {
				res, err := core.Run(core.JobConfig{
					WL: wl, Policy: policy, Iters: opt.Iters, Seed: opt.Seed,
					Recorder: rec,
				})
				if err != nil {
					return nil, err
				}
				if !res.Completed {
					return nil, fmt.Errorf("experiments: %s %v steady run incomplete", name, policy)
				}
				row.SteadyOverhead = max((res.Minibatch-base).Sec(), 0) / base.Sec()
				if info.Peer && res.Peer.PiggybackBytes > 0 {
					// Replication never stalls the critical path: an offer
					// arriving while the previous transfer is in flight is
					// skipped, trading shelter staleness (the redo column)
					// for overhead. Its real cost is interconnect traffic.
					row.ReplShare = float64(res.Peer.BytesSheltered) / float64(res.Peer.PiggybackBytes)
				}
			}

			// One catastrophic failure mid-run.
			cfg := core.JobConfig{
				WL: wl, Policy: policy, Iters: opt.Iters, Seed: opt.Seed,
				Recorder:     rec,
				SpareNodes:   spareNodesFor(wl),
				IterFailures: catastrophicKill(wl, opt.Iters/2),
			}
			if policy == core.PolicyJITWithDaily {
				// Three run-lengths away: a scaled stand-in for a 1/day
				// cadence whose next checkpoint is still far off.
				cfg.CkptInterval = vclock.Time(3*opt.Iters) * wl.Minibatch
			} else if periodicOnly {
				cfg.CkptInterval = 4 * wl.Minibatch
			}
			res, err := core.Run(cfg)
			if err != nil {
				return nil, err
			}
			row.Recovered = res.Completed
			if res.Completed {
				row.RedoIters = res.ItersExecuted - opt.Iters
				row.WastedGPUSec = float64(row.RedoIters) * res.Minibatch.Sec() * float64(wl.GPUs())
			}
			rows = append(rows, row)
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []PeerRow
	for _, r := range perModel {
		rows = append(rows, r...)
	}
	return rows, nil
}

// RenderPeerComparison formats the comparison table.
func RenderPeerComparison(rows []PeerRow) *metrics.Table {
	t := metrics.NewTable("Peer-shelter comparison: steady-state overhead vs. catastrophic-failure cost",
		"Model", "Policy", "Steady overhead", "Redo minibatches", "Wasted GPU-min", "Repl/AllReduce", "Recovered")
	for _, r := range rows {
		repl := "-"
		if r.ReplShare > 0 {
			repl = fmt.Sprintf("%.2fx", r.ReplShare)
		}
		rec := "yes"
		if !r.Recovered {
			rec = "NO"
		}
		t.Row(r.Model, r.Policy.String(),
			fmt.Sprintf("%.3f%%", 100*r.SteadyOverhead),
			r.RedoIters,
			fmt.Sprintf("%.1f", r.WastedGPUSec/60),
			repl, rec)
	}
	return t
}
