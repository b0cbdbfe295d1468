package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/vclock"
)

// fleetJob builds one tenant with the fleet test workload.
func fleetJob(name string, pol core.Policy, pri, iters int) JobSpec {
	return JobSpec{
		Name:     name,
		Priority: pri,
		Config: core.JobConfig{
			WL: FleetWorkload(), Policy: pol, Iters: iters,
			CkptInterval: vclock.Second, HangTimeout: 2 * vclock.Second,
		},
	}
}

// checkTimeline asserts the utilization timeline is monotone in time and
// that every point partitions the cluster exactly.
func checkTimeline(t *testing.T, res *Result) {
	t.Helper()
	last := vclock.Time(-1)
	for i, pt := range res.Fleet.Timeline {
		if pt.At < last {
			t.Fatalf("timeline point %d at %v before previous %v", i, pt.At, last)
		}
		last = pt.At
		if pt.Used+pt.Idle+pt.Down != res.Fleet.Nodes {
			t.Fatalf("timeline point %d: used %d + idle %d + down %d != nodes %d",
				i, pt.Used, pt.Idle, pt.Down, res.Fleet.Nodes)
		}
	}
}

func TestFleetSmoke(t *testing.T) {
	res, err := Run(Config{
		Nodes: 6, PerNode: 2, Seed: 1, Horizon: 2 * vclock.Minute,
		Jobs: []JobSpec{
			fleetJob("a", core.PolicyPCDisk, 0, 10),
			fleetJob("b", core.PolicyUserJIT, 0, 10),
			fleetJob("c", core.PolicyElasticJIT, 0, 10),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.JobsCompleted != 3 {
		for _, j := range res.Jobs {
			t.Logf("job %s: err=%v res=%+v", j.Name, j.Err, j.Res)
		}
		t.Fatalf("completed %d/3 jobs", res.Fleet.JobsCompleted)
	}
	if err := res.Reconcile(); err != nil {
		t.Fatal(err)
	}
	checkTimeline(t, res)
	if res.Fleet.Goodput <= 0 {
		t.Fatalf("goodput = %v, want > 0", res.Fleet.Goodput)
	}
	if res.Fleet.UsedNodeTime <= 0 || res.Fleet.IdleNodeTime <= 0 {
		t.Fatalf("used=%v idle=%v, want both positive", res.Fleet.UsedNodeTime, res.Fleet.IdleNodeTime)
	}
	if res.Fleet.DownNodeTime != 0 {
		t.Fatalf("down=%v on a failure-free run", res.Fleet.DownNodeTime)
	}
	for _, j := range res.Jobs {
		if j.NodeTime <= 0 {
			t.Fatalf("job %s leased no node-time", j.Name)
		}
	}
}

// TestRackDownFansOut is the shared-failure-domain scenario: one RackDown
// destroys a 6-node rack hosting three tenants at once. Every victim
// records its own recovery episode, capacity comes back through repairs
// in admission-priority order, and the cluster accounting still
// reconciles exactly.
func TestRackDownFansOut(t *testing.T) {
	plan := failure.Plan{Injections: []failure.Injection{
		{At: vclock.Second, Target: 0, Kind: failure.RackDown},
	}}
	for i := 0; i < 6; i++ {
		plan.Injections = append(plan.Injections, failure.Injection{
			At: 30*vclock.Second + vclock.Time(i)*vclock.Second, Target: i, Kind: failure.NodeRepaired,
		})
	}
	res, err := Run(Config{
		Nodes: 8, PerNode: 2, RackSize: 6, Seed: 7, Horizon: 10 * vclock.Minute,
		Jobs: []JobSpec{
			fleetJob("v0", core.PolicyPCDisk, 0, 40),
			fleetJob("v1", core.PolicyPCDisk, 0, 40),
			fleetJob("v2", core.PolicyPCDisk, 0, 40),
			fleetJob("bystander", core.PolicyPCDisk, 0, 40),
		},
		Failures: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	victims := 0
	for _, j := range res.Jobs[:3] {
		if j.Res == nil {
			t.Fatalf("job %s has no result (err=%v)", j.Name, j.Err)
		}
		if len(j.Res.RecoveryLatencies) >= 1 {
			victims++
		}
		if !j.Res.Completed {
			t.Errorf("victim %s did not complete: %+v", j.Name, j.Res.Accounting)
		}
	}
	if victims < 3 {
		t.Fatalf("only %d victims recorded recovery episodes, want 3 (one RackDown must fan out)", victims)
	}
	if by := res.Jobs[3].Res; by == nil || len(by.RecoveryLatencies) != 0 {
		t.Fatalf("bystander in the other rack was hit: %+v", by)
	}
	if err := res.Reconcile(); err != nil {
		t.Fatal(err)
	}
	checkTimeline(t, res)
	if res.Fleet.DownNodeTime == 0 {
		t.Fatal("rack loss produced no down node-time")
	}
	if res.Fleet.AppliedInjections != 7 { // 1 RackDown + 6 repairs
		t.Fatalf("applied %d injections, want 7 (skipped %d)",
			res.Fleet.AppliedInjections, res.Fleet.SkippedInjections)
	}
	if res.Fleet.RecoveryLatency.Count < 3 || res.Fleet.RecoveryLatency.Max <= 0 {
		t.Fatalf("latency distribution %+v, want >=3 episodes", res.Fleet.RecoveryLatency)
	}
}

// TestPreemptionYield pins the arbitration path: a high-priority tenant
// arriving into a full cluster preempts a low-priority elastic tenant,
// which yields and continues degraded on fewer nodes; both finish.
func TestPreemptionYield(t *testing.T) {
	lo := fleetJob("lo", core.PolicyElasticJIT, 0, 60)
	hi := fleetJob("hi", core.PolicyPCDisk, 5, 15)
	hi.StartAt = 500 * vclock.Millisecond
	res, err := Run(Config{
		Nodes: 3, PerNode: 2, Seed: 3, Horizon: 5 * vclock.Minute,
		Jobs: []JobSpec{lo, hi},
	})
	if err != nil {
		t.Fatal(err)
	}
	loRes, hiRes := res.Jobs[0].Res, res.Jobs[1].Res
	if loRes == nil || hiRes == nil {
		t.Fatalf("missing results: lo=%v hi=%v (errs %v / %v)", loRes, hiRes, res.Jobs[0].Err, res.Jobs[1].Err)
	}
	if res.Fleet.Preemptions == 0 || loRes.Yields == 0 {
		t.Fatalf("no preemption happened: fleet=%d loYields=%d", res.Fleet.Preemptions, loRes.Yields)
	}
	if !hiRes.Completed {
		t.Fatalf("high-priority tenant did not complete: %+v", hiRes.Accounting)
	}
	if !loRes.Completed {
		t.Fatalf("yielding tenant did not complete: %+v", loRes.Accounting)
	}
	if loRes.Accounting.DegradedIters == 0 {
		t.Fatal("yielding tenant never ran degraded — yield did not take the shrink path")
	}
	if err := res.Reconcile(); err != nil {
		t.Fatal(err)
	}
	checkTimeline(t, res)
}

// soakConfig builds a randomized-but-deterministic mixed fleet under a
// Poisson cluster failure plan with repairs.
func soakConfig(seed int64) Config {
	rng := rand.New(rand.NewSource(seed))
	plan := failure.PoissonPlan(rng, 10, 400, 2*vclock.Minute, failure.DefaultNodeMix()).
		WithRepairs(rand.New(rand.NewSource(seed+100)), 20*vclock.Second, 2)
	return Config{
		Nodes: 10, PerNode: 2, Seed: seed, Horizon: 4 * vclock.Minute,
		Jobs: []JobSpec{
			fleetJob("e0", core.PolicyElasticJIT, 0, 25),
			fleetJob("e1", core.PolicyElasticJIT, 0, 25),
			fleetJob("u0", core.PolicyUserJIT, 1, 25),
			fleetJob("d0", core.PolicyPCDisk, 1, 25),
			fleetJob("d1", core.PolicyPCDisk, 2, 25),
		},
		Failures: plan,
	}
}

// TestFleetChaosSoak drives mixed-policy fleets through Poisson
// cluster-scoped failure storms across seeds: whatever happens —
// preemptions, shrinks, rack losses, repairs — the exact accounting
// identities and timeline invariants must hold, and the whole run must be
// deterministic (two runs of one seed agree on every fleet stat).
func TestFleetChaosSoak(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := soakConfig(seed)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Reconcile(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkTimeline(t, res)
		res2, err := Run(soakConfig(seed))
		if err != nil {
			t.Fatalf("seed %d rerun: %v", seed, err)
		}
		if !reflect.DeepEqual(res.Fleet, res2.Fleet) {
			t.Fatalf("seed %d: fleet stats diverged between identical runs:\n%+v\nvs\n%+v",
				seed, res.Fleet, res2.Fleet)
		}
		for i := range res.Jobs {
			a, b := res.Jobs[i], res2.Jobs[i]
			if a.NodeTime != b.NodeTime {
				t.Fatalf("seed %d job %s: node-time diverged %v vs %v", seed, a.Name, a.NodeTime, b.NodeTime)
			}
			if (a.Res == nil) != (b.Res == nil) {
				t.Fatalf("seed %d job %s: result presence diverged", seed, a.Name)
			}
			if a.Res != nil && (a.Res.WallTime != b.Res.WallTime ||
				a.Res.Incarnations != b.Res.Incarnations ||
				!reflect.DeepEqual(a.Res.RecoveryLatencies, b.Res.RecoveryLatencies)) {
				t.Fatalf("seed %d job %s: results diverged", seed, a.Name)
			}
		}
	}
}

func TestParseJobsSpec(t *testing.T) {
	policies := map[string]core.Policy{
		"pc_disk":     core.PolicyPCDisk,
		"jit+elastic": core.PolicyElasticJIT,
	}
	jobs, err := ParseJobsSpec("3xjit+elastic,1xpc_disk@2:30", policies, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("got %d jobs, want 4", len(jobs))
	}
	if jobs[0].Config.Policy != core.PolicyElasticJIT || jobs[0].Config.Iters != 20 || jobs[0].Priority != 0 {
		t.Fatalf("bad first group: %+v", jobs[0])
	}
	if jobs[3].Config.Policy != core.PolicyPCDisk || jobs[3].Config.Iters != 30 || jobs[3].Priority != 2 {
		t.Fatalf("bad second group: %+v", jobs[3])
	}
	for _, bad := range []string{"", "x", "0xpc_disk", "2xnope", "2xpc_disk:x", "2xpc_disk@x"} {
		if _, err := ParseJobsSpec(bad, policies, 20); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
