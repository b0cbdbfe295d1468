package failure

import (
	"math"
	"math/rand"
	"testing"

	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/vclock"
)

// TestPoissonStatisticsConverge checks the sampled process against its
// analytical parameters across seeds: the empirical mean inter-arrival
// time converges to MTBF(n, f), and the kind frequencies converge to the
// normalized mix weights.
func TestPoissonStatisticsConverge(t *testing.T) {
	const (
		n       = 50
		fPerDay = 2.0
	)
	horizon := 40 * vclock.Day
	want := MTBF(n, fPerDay)
	mix := DefaultMix()
	var total float64
	kindCounts := make(map[Kind]float64)
	var gapSum, gapN float64
	for seed := int64(1); seed <= 5; seed++ {
		plan := PoissonPlan(rand.New(rand.NewSource(seed)), n, fPerDay, horizon, mix)
		if len(plan.Injections) < 100 {
			t.Fatalf("seed %d: only %d events", seed, len(plan.Injections))
		}
		prev := vclock.Time(0)
		for _, inj := range plan.Injections {
			gapSum += float64(inj.At - prev)
			gapN++
			prev = inj.At
			kindCounts[inj.Kind]++
			total++
		}
	}
	mean := gapSum / gapN
	if ratio := mean / float64(want); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("mean inter-arrival %.3g vs MTBF %.3g (ratio %.3f)", mean, float64(want), ratio)
	}
	var weightSum float64
	for _, w := range mix {
		weightSum += w
	}
	for k, w := range mix {
		wantFreq := w / weightSum
		gotFreq := kindCounts[k] / total
		if math.Abs(gotFreq-wantFreq) > 0.03 {
			t.Errorf("kind %v frequency %.3f, want %.3f±0.03", k, gotFreq, wantFreq)
		}
	}
}

func TestDefaultMixCoversNewClasses(t *testing.T) {
	mix := DefaultMix()
	if mix[NodeDown] <= 0 {
		t.Error("DefaultMix missing NodeDown")
	}
	if mix[StorageFault] <= 0 {
		t.Error("DefaultMix missing StorageFault")
	}
	// Paper-plausible shape: transient network issues dominate; whole-node
	// and storage-tier losses are a small tail.
	for k, w := range mix {
		if k == NetworkHang {
			continue
		}
		if w > mix[NetworkHang] {
			t.Errorf("%v weight %.2f exceeds network-hang %.2f", k, w, mix[NetworkHang])
		}
	}
	if mix[NodeDown] > 0.15 || mix[StorageFault] > 0.15 {
		t.Error("node-down/storage-fault should be tail classes")
	}
	var sum float64
	for _, w := range mix {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("mix weights sum to %v, want 1", sum)
	}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("gpu-hard:0.2, network-hang:0.5 ,node-down:0.3")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 || mix[GPUHard] != 0.2 || mix[NetworkHang] != 0.5 || mix[NodeDown] != 0.3 {
		t.Fatalf("mix = %v", mix)
	}
	if def, err := ParseMix(""); err != nil || len(def) != len(DefaultMix()) {
		t.Fatalf("empty spec: %v %v", def, err)
	}
	for _, bad := range []string{"nope:1", "gpu-hard", "gpu-hard:-1", "gpu-hard:zero", ","} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) did not fail", bad)
		}
	}
}

func TestKindByNameRoundTrip(t *testing.T) {
	for k := GPUHard; k <= RackDown; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v %v", k.String(), got, ok)
		}
	}
	if _, ok := KindByName("meteor-strike"); ok {
		t.Error("unknown kind resolved")
	}
}

// clusterInjector builds an injector over a small cluster with one rank
// per device and the default rack width (rack = node.ID/2).
func clusterInjector(env *vclock.Env, cluster *gpu.Cluster, perNode int) *Injector {
	return &Injector{
		Env:     env,
		Cluster: cluster,
		DeviceOf: func(rank int) *gpu.Device {
			return cluster.Nodes[rank/perNode].Devices[rank%perNode]
		},
		Engine: nccl.NewEngine(env, nccl.DefaultParams()),
		GenOf:  func(string) int { return 0 },
	}
}

// TestInjectorSkipsAlreadyFailedTarget pins the double-fail fix: an
// injection whose target rank sits on an already-failed node (or dead
// device) is skipped and counted separately, leaving the applied
// accounting intact.
func TestInjectorSkipsAlreadyFailedTarget(t *testing.T) {
	env := vclock.NewEnv(1)
	cluster := gpu.NewCluster(env, 2, 2, 1<<30)
	in := clusterInjector(env, cluster, 2)
	applied := 0
	in.OnInject = func(Injection) { applied++ }
	env.Go("test", func(p *vclock.Proc) {
		if !in.Apply(Injection{Target: 0, Kind: NodeDown}) {
			t.Error("first node-down did not land")
		}
		// Rank 1 lives on the same (now failed) node: every further fault
		// aimed at it must be skipped, not double-applied.
		for _, k := range []Kind{GPUHard, GPUSticky, DriverCorrupt, NodeDown} {
			if in.Apply(Injection{Target: 1, Kind: k}) {
				t.Errorf("%v on dead rank landed", k)
			}
		}
		// A rank on the surviving node still takes faults.
		if !in.Apply(Injection{Target: 2, Kind: GPUSticky}) {
			t.Error("fault on healthy rank skipped")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Errorf("applied = %d, want 2", applied)
	}
	if in.SkippedCount() != 4 {
		t.Errorf("SkippedCount = %d, want 4", in.SkippedCount())
	}
}

func TestRackDownFailsWholeFailureDomain(t *testing.T) {
	env := vclock.NewEnv(1)
	cluster := gpu.NewCluster(env, 4, 2, 1<<30)
	in := clusterInjector(env, cluster, 2)
	env.Go("test", func(p *vclock.Proc) {
		if !in.Apply(Injection{Target: 1, Kind: RackDown}) {
			t.Fatal("rack-down skipped")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Rank 1 is on node 0; rack 0 = nodes {0, 1}. Both nodes and all four
	// of their devices must be gone; nodes 2 and 3 untouched.
	for i, n := range cluster.Nodes {
		wantFailed := i < 2
		if n.Failed != wantFailed {
			t.Errorf("node %d Failed = %v, want %v", i, n.Failed, wantFailed)
		}
		for _, d := range n.Devices {
			if acc := d.Accessible(); acc == wantFailed {
				t.Errorf("node %d device accessible = %v", i, acc)
			}
		}
	}
}

// TestRackDownSkippedWhenOwnNodeDown pins the job injector's skip rule: a
// RackDown aimed at a rank whose own host is already down is skipped whole,
// so its rack-mate stays up. (The cluster injector lands a RackDown while
// any host in the rack is still up; see TestInjectorRulesKeptApart in
// internal/cluster.)
func TestRackDownSkippedWhenOwnNodeDown(t *testing.T) {
	env := vclock.NewEnv(1)
	cluster := gpu.NewCluster(env, 4, 2, 1<<30)
	in := clusterInjector(env, cluster, 2)
	env.Go("test", func(p *vclock.Proc) {
		if !in.Apply(Injection{Target: 0, Kind: NodeDown}) {
			t.Fatal("node-down skipped")
		}
		if in.Apply(Injection{Target: 1, Kind: RackDown}) {
			t.Error("rack-down on a rank whose host is down landed")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !cluster.Nodes[0].Failed || cluster.Nodes[1].Failed {
		t.Errorf("node0 down %v, rack-mate node1 down %v, want true false",
			cluster.Nodes[0].Failed, cluster.Nodes[1].Failed)
	}
	if in.SkippedCount() != 1 {
		t.Errorf("skipped %d injections, want 1", in.SkippedCount())
	}
}

// TestRepairPrefersDownHostOverOlderDeadBoard pins which node a job's
// NodeRepaired picks: a board died on node 0 first, then host 1 went down;
// the one repair goes to the host (the oldest host this injector took
// down), the dead board waits for the next. The cluster injector repairs
// the oldest casualty of either kind, node 0.
func TestRepairPrefersDownHostOverOlderDeadBoard(t *testing.T) {
	env := vclock.NewEnv(1)
	cluster := gpu.NewCluster(env, 4, 2, 1<<30)
	in := clusterInjector(env, cluster, 2)
	var repaired []int
	in.OnRepair = func(n *gpu.Node) { repaired = append(repaired, n.ID) }
	env.Go("test", func(p *vclock.Proc) {
		in.Apply(Injection{Target: 0, Kind: GPUHard})
		in.Apply(Injection{Target: 2, Kind: NodeDown})
		in.Apply(Injection{Kind: NodeRepaired})
		if cluster.Nodes[1].Broken() || !cluster.Nodes[0].DeadBoard() {
			t.Errorf("after one repair: node1 broken %v, node0 dead board %v, want false true",
				cluster.Nodes[1].Broken(), cluster.Nodes[0].DeadBoard())
		}
		in.Apply(Injection{Kind: NodeRepaired})
		if in.Apply(Injection{Kind: NodeRepaired}) {
			t.Error("repair with nothing broken landed")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(repaired) != 2 || repaired[0] != 1 || repaired[1] != 0 {
		t.Errorf("repaired nodes %v, want [1 0]", repaired)
	}
}

func TestStorageFaultRouting(t *testing.T) {
	env := vclock.NewEnv(1)
	cluster := gpu.NewCluster(env, 2, 2, 1<<30)
	in := clusterInjector(env, cluster, 2)
	env.Go("test", func(p *vclock.Proc) {
		// Without a hook the injection is skipped (not silently "applied").
		if in.Apply(Injection{Target: 0, Kind: StorageFault}) {
			t.Error("storage fault landed with no hook")
		}
		fired := 0
		in.OnStorageFault = func(Injection) { fired++ }
		if !in.Apply(Injection{Target: 0, Kind: StorageFault}) || fired != 1 {
			t.Errorf("storage fault hook fired %d times", fired)
		}
		// Storage faults do not touch devices.
		if cluster.Nodes[0].Devices[0].Health() != gpu.Healthy {
			t.Error("storage fault damaged a device")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPhaseInjectionFiresOnOccurrence: a phase-armed fault fires when the
// Nth matching phase entry is noted, once, optionally delayed, at either
// the triggering rank or an explicit target.
func TestPhaseInjectionFiresOnOccurrence(t *testing.T) {
	env := vclock.NewEnv(1)
	cluster := gpu.NewCluster(env, 2, 2, 1<<30)
	in := clusterInjector(env, cluster, 2)
	applied := 0
	in.OnInject = func(Injection) { applied++ }
	in.ArmPhase(PhaseInjection{
		Phase:      PhaseRestore,
		Rank:       -1, // any rank's restore counts
		Occurrence: 2,
		Delay:      10 * vclock.Millisecond,
		Target:     -1, // the rank whose note fired it
		Kind:       GPUSticky,
	})
	env.Go("test", func(p *vclock.Proc) {
		in.NotePhase(0, PhaseCheckpoint) // wrong phase: ignored
		in.NotePhase(0, PhaseRestore)    // occurrence 1
		in.NotePhase(1, PhaseRestore)    // occurrence 2: fires at rank 1
		in.NotePhase(2, PhaseRestore)    // already fired: ignored
		p.Sleep(vclock.Second)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cluster.Nodes[0].Devices[1].Health(); got != gpu.Sticky {
		t.Errorf("target device health = %v, want sticky", got)
	}
	if applied != 1 {
		t.Errorf("applied = %d, want exactly 1", applied)
	}
}

func TestPhaseInjectionRankFilterAndNilSafety(t *testing.T) {
	var nilInj *Injector
	nilInj.NotePhase(0, PhaseCheckpoint) // must not panic

	env := vclock.NewEnv(1)
	cluster := gpu.NewCluster(env, 2, 2, 1<<30)
	in := clusterInjector(env, cluster, 2)
	in.ArmPhase(PhaseInjection{
		Phase:      PhaseCheckpoint,
		Rank:       2, // only rank 2's checkpoints count
		Occurrence: 1,
		Target:     3, // but the fault lands on rank 3
		Kind:       GPUHard,
	})
	env.Go("test", func(p *vclock.Proc) {
		in.NotePhase(0, PhaseCheckpoint) // filtered out
		in.NotePhase(1, PhaseCheckpoint) // filtered out
		if cluster.Nodes[1].Devices[0].Health() != gpu.Healthy {
			t.Error("fault fired for filtered ranks")
		}
		in.NotePhase(2, PhaseCheckpoint) // matches
		p.Sleep(vclock.Second)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cluster.Nodes[1].Devices[1].Health(); got != gpu.Hard {
		t.Errorf("explicit target health = %v, want hard", got)
	}
}
