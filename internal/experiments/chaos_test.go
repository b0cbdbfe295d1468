package experiments

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"jitckpt/internal/core"
	"jitckpt/internal/failure"
)

// TestRunChaosInvariants runs the full chaos suite at default settings
// and pins its two invariants across every policy×seed cell: the job
// completes despite randomized store corruption plus mix-drawn faults,
// and the loss trajectory stays bit-identical to the failure-free run.
func TestRunChaosInvariants(t *testing.T) {
	opt := DefaultChaosOptions()
	if testing.Short() {
		opt.Seeds = opt.Seeds[:1]
	}
	rows, err := RunChaos(opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ChaosPolicies()) * len(opt.Seeds); len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, r := range rows {
		if !r.Completed {
			t.Errorf("%v seed %d did not complete (faults %v)", r.Policy, r.Seed, r.Kinds)
		}
		if !r.BitIdentical {
			t.Errorf("%v seed %d diverged (faults %v)", r.Policy, r.Seed, r.Kinds)
		}
		if len(r.Kinds) == 0 {
			t.Errorf("%v seed %d injected nothing", r.Policy, r.Seed)
		}
	}
	out := RenderChaos(rows).Render()
	for _, p := range ChaosPolicies() {
		if !strings.Contains(out, p.String()) {
			t.Errorf("render missing policy %v", p)
		}
	}
}

// TestRunChaosRepeatable pins the input PR 10's benchmark found unstable:
// chaos seed 1403 under PeerShelter bit-flips a sheltered entry, and while
// a checkpoint's bytes followed Go's map order, which byte flipped — and so
// which entries restore found valid, and what it cost — changed run to run.
func TestRunChaosRepeatable(t *testing.T) {
	opt := ChaosOptions{Seeds: []int64{1403}, Policies: []core.Policy{core.PolicyPeerShelter}}
	first, err := RunChaos(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		rows, err := RunChaos(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, first) {
			t.Fatalf("run %d: t=%v %+v, first run t=%v %+v",
				i, rows[0].SimTime, rows[0].Sim, first[0].SimTime, first[0].Sim)
		}
	}
}

// TestRunChaosHonorsMix pins the -mix plumbing: a single-kind mix must
// produce only that kind in every drawn plan.
func TestRunChaosHonorsMix(t *testing.T) {
	rows, err := RunChaos(ChaosOptions{
		Seeds:    []int64{3, 7},
		Policies: []core.Policy{core.PolicyUserJIT},
		Mix:      map[failure.Kind]float64{failure.GPUSticky: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for _, k := range r.Kinds {
			if k != failure.GPUSticky {
				t.Errorf("mix violated: drew %v", k)
			}
		}
		if !r.Completed || !r.BitIdentical {
			t.Errorf("sticky-only chaos failed: %+v", r)
		}
	}
}

// TestDrawKindFollowsWeights sanity-checks the sampler against a skewed
// mix.
func TestDrawKindFollowsWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mix := map[failure.Kind]float64{failure.GPUHard: 0.9, failure.NetworkHang: 0.1}
	counts := map[failure.Kind]int{}
	for i := 0; i < 2000; i++ {
		counts[drawKind(rng, mix)]++
	}
	if counts[failure.GPUHard] < 1600 || counts[failure.NetworkHang] < 100 {
		t.Errorf("skewed draw off: %v", counts)
	}
}
