package core

import (
	"testing"

	"jitckpt/internal/failure"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// TestRankSaveChargesOnce pins what one whole-rank save costs on every
// path that takes one: the span covers D2H + serialization + the META-last
// write exactly once each. The literals were recorded before the save
// sequence moved behind checkpoint.SaveRank; they also pin Periodic.Run
// serializing StateBytes while writing ModelStateBytes(), and the
// CheckFreq hidden fraction in the accounted stall.
func TestRankSaveChargesOnce(t *testing.T) {
	wl, err := workload.ByName("GPT2-8B")
	if err != nil {
		t.Fatal(err)
	}
	periodic := func(pol Policy) JobConfig {
		return JobConfig{WL: wl, Policy: pol, Iters: 8, Seed: 1, CkptInterval: 3 * wl.Minibatch}
	}
	cases := []struct {
		name  string
		cfg   JobConfig
		span  string
		n     int         // spans of that name in the run
		first vclock.Time // duration of the first one
		sum   vclock.Time // total over all of them
		stall vclock.Time // Accounting.CkptStall
	}{
		{"PC_disk", periodic(PolicyPCDisk), "pc-save", 32, 18804006998, 601728223936, 37608013996},
		{"PC_mem", periodic(PolicyPCMem), "pc-save", 32, 16256873665, 520219957280, 32513747330},
		{"CheckFreq", periodic(PolicyCheckFreq), "pc-save", 32, 16256873665, 520219957280, 16533741332},
		{"UserJIT", JobConfig{
			WL: wl, Policy: PolicyUserJIT, Iters: 8, Seed: 1, SpareNodes: 2,
			IterFailures: []IterInjection{{Iter: 4, Frac: 0.4, Rank: 15, Kind: failure.GPUHard}},
		}, "jit-save", 15, 18804008999, 282058794985, 0},
		{"elastic-stop", JobConfig{
			WL: wl, Policy: PolicyElasticJIT, Iters: 12, Seed: 1, SpareNodes: 0,
			IterFailures: []IterInjection{
				{Iter: 3, Frac: 0.3, Rank: 15, Kind: failure.NodeDown},
				{Iter: 6, Frac: 0.5, Rank: 0, Kind: failure.NodeRepaired},
			},
		}, "elastic-save", 8, 18804006999, 150432055992, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.New()
			tc.cfg.Recorder = rec
			res := mustRun(t, tc.cfg)
			if !res.Completed {
				t.Fatalf("run did not complete (incarnations=%d)", res.Incarnations)
			}
			spans := trace.NewQuery(rec).Spans("ckpt", tc.span)
			var first, sum vclock.Time
			for i, s := range spans {
				if s.Open || s.Args["err"] != "" {
					t.Fatalf("%s span %d did not finish cleanly: %+v", tc.span, i, s)
				}
				if i == 0 {
					first = s.Dur()
				}
				sum += s.Dur()
			}
			stall := res.Accounting.CkptStall
			if len(spans) != tc.n || first != tc.first || sum != tc.sum || stall != tc.stall {
				t.Fatalf("%s: n=%d first=%d sum=%d stall=%d; want n=%d first=%d sum=%d stall=%d",
					tc.span, len(spans), int64(first), int64(sum), int64(stall),
					tc.n, int64(tc.first), int64(tc.sum), int64(tc.stall))
			}
		})
	}
}
