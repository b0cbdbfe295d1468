package failure

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/vclock"
)

func TestPoissonPlanRateMatchesExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, f := 1000, 1.0 // the paper's "1000 GPU job averages ~1 error/day"
	horizon := 30 * vclock.Day
	plan := PoissonPlan(rng, n, f/1000*1000, horizon, DefaultMix())
	// Expected events: n*f/1000... with f per GPU per day = 0.001:
	plan2 := PoissonPlan(rng, n, 0.001, horizon, DefaultMix())
	if got := len(plan2.Injections); got < 15 || got > 50 {
		t.Fatalf("30 days at ~1/day gave %d failures, want ~30", got)
	}
	_ = plan
}

func TestPoissonPlanDeterministicPerSeed(t *testing.T) {
	a := PoissonPlan(rand.New(rand.NewSource(7)), 8, 0.5, 10*vclock.Day, DefaultMix())
	b := PoissonPlan(rand.New(rand.NewSource(7)), 8, 0.5, 10*vclock.Day, DefaultMix())
	if len(a.Injections) != len(b.Injections) {
		t.Fatal("same seed produced different plans")
	}
	for i := range a.Injections {
		if a.Injections[i] != b.Injections[i] {
			t.Fatal("same seed produced different plans")
		}
	}
}

func TestPoissonPlanWithinHorizonAndRanks(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		plan := PoissonPlan(rand.New(rand.NewSource(seed)), n, 2, 5*vclock.Day, DefaultMix())
		for _, inj := range plan.Injections {
			if inj.At < 0 || inj.At >= 5*vclock.Day {
				return false
			}
			if inj.Target < 0 || inj.Target >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMTBFScalesInverselyWithN(t *testing.T) {
	// §5.1: failure rate scales O(N). The cited OPT job: 992 GPUs at
	// ~2/day ⇒ MTBF ≈ 12h.
	m := MTBF(992, 2.0/992)
	if m < 11*vclock.Hour || m > 13*vclock.Hour {
		t.Fatalf("OPT-like MTBF = %v, want ~12h", m)
	}
	if MTBF(2000, 0.001) >= MTBF(1000, 0.001) {
		t.Fatal("MTBF should shrink with more GPUs")
	}
	if MTBF(0, 1) != vclock.Time(math.MaxInt64) {
		t.Fatal("zero GPUs should never fail")
	}
}

func TestPlanSortIsStableByTime(t *testing.T) {
	pl := Plan{Injections: []Injection{
		{At: 5, Target: 1}, {At: 2, Target: 2}, {At: 5, Target: 3},
	}}
	pl.Sort()
	if pl.Injections[0].Target != 2 || pl.Injections[1].Target != 1 || pl.Injections[2].Target != 3 {
		t.Fatalf("sort wrong: %+v", pl.Injections)
	}
}

func TestInjectorAppliesAllKinds(t *testing.T) {
	env := vclock.NewEnv(1)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	cluster := gpu.NewCluster(env, 1, 4, 1<<30)
	devs := cluster.Nodes[0].Devices
	var observed []Kind
	inj := &Injector{
		Env:       env,
		Cluster:   cluster,
		DeviceOf:  func(r int) *gpu.Device { return devs[r] },
		Engine:    engine,
		CommKeyOf: func(r int) string { return "dp" },
		GenOf:     func(key string) int { return 0 },
		OnInject:  func(i Injection) { observed = append(observed, i.Kind) },
	}
	inj.Start(Plan{Injections: []Injection{
		{At: vclock.Second, Target: 0, Kind: GPUHard},
		{At: 2 * vclock.Second, Target: 1, Kind: GPUSticky},
		{At: 3 * vclock.Second, Target: 2, Kind: DriverCorrupt},
		{At: 4 * vclock.Second, Target: 3, Kind: NetworkHang},
	}})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 4 {
		t.Fatalf("observed %d applied injections, want 4", len(observed))
	}
	if devs[0].Health() != gpu.Hard {
		t.Errorf("rank 0 health = %v", devs[0].Health())
	}
	if devs[1].Health() != gpu.Sticky {
		t.Errorf("rank 1 health = %v", devs[1].Health())
	}
	if devs[2].Health() != gpu.DriverCorrupt {
		t.Errorf("rank 2 health = %v", devs[2].Health())
	}
}

func TestNetworkHangWedgesCollective(t *testing.T) {
	env := vclock.NewEnv(1)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	devs := [2]*gpu.Device{gpu.NewDevice(env, 0, 0, 1<<30), gpu.NewDevice(env, 0, 1, 1<<30)}
	inj := &Injector{
		Env:      env,
		DeviceOf: func(r int) *gpu.Device { return devs[r] },
		Engine:   engine,
		GenOf:    func(string) int { return 0 },
	}
	hung := [2]bool{}
	for r := 0; r < 2; r++ {
		r := r
		env.Go("rank", func(p *vclock.Proc) {
			comm, err := engine.CommInitRank(p, "dp", 0, 2, r, devs[r])
			if err != nil {
				t.Error(err)
				return
			}
			s, _ := devs[r].NewStream()
			buf, _ := devs[r].Alloc(64, 1, "g")
			if r == 0 {
				inj.Apply(Injection{Target: 0, Kind: NetworkHang, CommKey: "dp"})
			}
			op, _ := comm.AllReduce(s, buf)
			hung[r] = !p.WaitTimeout(op.Done, vclock.Minute)
		})
	}
	if err := env.RunUntil(vclock.Hour); err != nil {
		t.Fatal(err)
	}
	if !hung[0] || !hung[1] {
		t.Fatalf("collectives completed under network hang: %v", hung)
	}
}

func TestKindString(t *testing.T) {
	if GPUHard.String() != "gpu-hard" || NetworkHang.String() != "network-hang" {
		t.Fatal("Kind.String broken")
	}
}

func TestMixWeightsRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mix := map[Kind]float64{GPUHard: 1} // only hard failures
	plan := PoissonPlan(rng, 100, 5, 10*vclock.Day, mix)
	for _, inj := range plan.Injections {
		if inj.Kind != GPUHard {
			t.Fatalf("unexpected kind %v with pure-hard mix", inj.Kind)
		}
	}
	if len(plan.Injections) == 0 {
		t.Fatal("no injections sampled")
	}
}
