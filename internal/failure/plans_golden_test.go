package failure

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"jitckpt/internal/vclock"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden")

// TestSampledPlansGolden pins the (At, Target, Kind) sequence of sampled
// plans with repairs, for seeds 1-5 at rack widths 2 and 4, in both
// readings: a job's plan under DefaultMix (repairs drawn from the same rng,
// as the sweeps do) and a cluster's under DefaultNodeMix (repairs from a
// second rng, as jitsim -fleet does). The golden was written by the two
// samplers and two WithRepairs this package had while job plans and node
// plans were separate types; regenerate only on purpose:
//
//	go test ./internal/failure -run TestSampledPlansGolden -update
func TestSampledPlansGolden(t *testing.T) {
	const golden = "testdata/plans.golden"
	var b strings.Builder
	write := func(name string, seed int64, rack int, pl Plan) {
		fmt.Fprintf(&b, "%s seed=%d rack=%d\n", name, seed, rack)
		for _, inj := range pl.Injections {
			fmt.Fprintf(&b, "  %d %d %v\n", int64(inj.At), inj.Target, inj.Kind)
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, rack := range []int{2, 4} {
			rng := rand.New(rand.NewSource(seed))
			write("job", seed, rack, PoissonPlan(rng, 16, 0.5, 2*vclock.Day, DefaultMix()).
				WithRepairs(rng, 2*vclock.Hour, rack))
			write("node", seed, rack, PoissonPlan(rand.New(rand.NewSource(seed)), 12, 0.6, 2*vclock.Day, DefaultNodeMix()).
				WithRepairs(rand.New(rand.NewSource(seed*31)), 2*vclock.Hour, rack))
		}
	}
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", golden, err)
	}
	if b.String() != string(want) {
		t.Errorf("sampled plans differ from %s (re-run with -update if the change is intentional)", golden)
	}
}
