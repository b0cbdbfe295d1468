package failure

import (
	"math/rand"
	"strings"
	"testing"

	"jitckpt/internal/vclock"
)

func TestPlanValidate(t *testing.T) {
	ok := Plan{Injections: []Injection{
		{At: vclock.Second, Target: 0, Kind: GPUHard},
		{At: 2 * vclock.Second, Target: 7, Kind: NetworkHang},
	}}
	if err := ok.Validate(8); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for _, bad := range []Injection{
		{At: vclock.Second, Target: 8, Kind: GPUHard},
		{At: vclock.Second, Target: -1, Kind: NodeDown},
	} {
		pl := Plan{Injections: []Injection{bad}}
		err := pl.Validate(8)
		if err == nil {
			t.Fatalf("plan with target %d accepted for world 8", bad.Target)
		}
		if !strings.Contains(err.Error(), "outside [0,8)") {
			t.Fatalf("unhelpful error: %v", err)
		}
	}
}

// TestPoissonPlanNodeMixDeterministicAndValid samples the cluster-scoped
// reading of a plan (targets are node IDs, kinds from DefaultNodeMix).
func TestPoissonPlanNodeMixDeterministicAndValid(t *testing.T) {
	gen := func() Plan {
		rng := rand.New(rand.NewSource(11))
		return PoissonPlan(rng, 32, 0.5, 10*vclock.Day, DefaultNodeMix())
	}
	a, b := gen(), gen()
	if len(a.Injections) == 0 {
		t.Fatal("expected some injections at 16 node-failures/day over 10 days")
	}
	if len(a.Injections) != len(b.Injections) {
		t.Fatalf("nondeterministic plan: %d vs %d injections", len(a.Injections), len(b.Injections))
	}
	for i := range a.Injections {
		if a.Injections[i] != b.Injections[i] {
			t.Fatalf("nondeterministic injection %d: %+v vs %+v", i, a.Injections[i], b.Injections[i])
		}
	}
	if err := a.Validate(32); err != nil {
		t.Fatalf("sampled plan invalid: %v", err)
	}
	repaired := a.WithRepairs(rand.New(rand.NewSource(12)), vclock.Hour, 2)
	if err := repaired.Validate(32); err != nil {
		t.Fatalf("repaired plan invalid: %v", err)
	}
	if len(repaired.Injections) <= len(a.Injections) {
		t.Fatal("WithRepairs added no repair events")
	}
	for i := 1; i < len(repaired.Injections); i++ {
		if repaired.Injections[i].At < repaired.Injections[i-1].At {
			t.Fatal("WithRepairs result not sorted")
		}
	}
}

// TestWithRepairsFollowsRackWidth: a RackDown takes rackSize hosts, so it
// schedules rackSize repairs, in a job's plan as in a cluster's; with fewer
// the rest of a wide rack stays down for good.
func TestWithRepairsFollowsRackWidth(t *testing.T) {
	pl := Plan{Injections: []Injection{{At: vclock.Second, Target: 3, Kind: RackDown}}}
	for _, tc := range []struct{ rackSize, want int }{{0, 2}, {1, 1}, {2, 2}, {4, 4}} {
		got := pl.WithRepairs(rand.New(rand.NewSource(1)), vclock.Minute, tc.rackSize)
		repairs := 0
		for _, inj := range got.Injections {
			if inj.Kind == NodeRepaired {
				repairs++
				if inj.Target != 3 || inj.At < vclock.Second {
					t.Errorf("rack %d: repair %+v does not follow its fault", tc.rackSize, inj)
				}
			}
		}
		if repairs != tc.want {
			t.Errorf("rack width %d: %d repairs scheduled, want %d", tc.rackSize, repairs, tc.want)
		}
	}
}

func TestInjectorSkippedCount(t *testing.T) {
	env := vclock.NewEnv(1)
	applied := 0
	in := &Injector{Env: env, OnInject: func(Injection) { applied++ }}
	// No storage hook armed: a StorageFault has no target and is skipped.
	env.Go("inject", func(p *vclock.Proc) {
		if in.Apply(Injection{At: p.Now(), Target: 0, Kind: StorageFault}) {
			t.Error("targetless injection reported applied")
		}
	})
	if err := env.RunUntil(vclock.Second); err != nil {
		t.Fatal(err)
	}
	if in.SkippedCount() != 1 || applied != 0 {
		t.Fatalf("skipped=%d applied=%d, want 1/0", in.SkippedCount(), applied)
	}
}
