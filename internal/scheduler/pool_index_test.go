package scheduler

import (
	"errors"
	"math/rand"
	"testing"

	"jitckpt/internal/gpu"
	"jitckpt/internal/vclock"
)

// refPool is the pre-index reference implementation of the pool's
// allocation semantics: a full linear scan over the node slice. The
// randomized equivalence test drives it in lockstep with Pool to pin that
// the free index changed the complexity, not the behavior.
type refPool struct {
	nodes  []*gpu.Node
	inUse  map[int]bool
	failed map[int]bool
}

func newRefPool(nodes []*gpu.Node) *refPool {
	return &refPool{nodes: nodes, inUse: make(map[int]bool), failed: make(map[int]bool)}
}

func (p *refPool) Allocate(n int, exclude map[int]bool) ([]*gpu.Node, error) {
	var got []*gpu.Node
	for _, node := range p.nodes {
		if len(got) == n {
			break
		}
		if p.inUse[node.ID] || p.failed[node.ID] || exclude[node.ID] || node.Failed {
			continue
		}
		if node.DeadBoard() {
			p.failed[node.ID] = true
			continue
		}
		got = append(got, node)
	}
	if len(got) < n {
		return nil, ErrNoCapacity
	}
	for _, node := range got {
		p.inUse[node.ID] = true
	}
	return got, nil
}

func (p *refPool) Release(nodes []*gpu.Node) {
	for _, n := range nodes {
		delete(p.inUse, n.ID)
	}
}

func (p *refPool) MarkFailed(id int) {
	p.failed[id] = true
	delete(p.inUse, id)
}

func (p *refPool) MarkRepaired(id int) { delete(p.failed, id) }

func (p *refPool) FreeHealthy() int {
	n := 0
	for _, node := range p.nodes {
		if !p.inUse[node.ID] && !p.failed[node.ID] && !node.Failed {
			n++
		}
	}
	return n
}

// TestPoolIndexMatchesLinearScan drives the indexed pool and the reference
// linear-scan pool through the same randomized program — allocations of
// varying sizes, releases, external node failures and repairs, hard-GPU
// injections discovered lazily, explicit exclusions — and requires
// identical allocation results (same node IDs in the same order), errors,
// and FreeHealthy counts at every step.
func TestPoolIndexMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := vclock.NewEnv(seed)
		c := gpu.NewCluster(env, 40, 2, 1<<30)
		pool := NewPool(env, c.Nodes)
		ref := newRefPool(c.Nodes)

		held := make(map[int][]*gpu.Node) // allocation handle -> nodes
		next := 0
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // allocate
				n := 1 + rng.Intn(4)
				var exclude map[int]bool
				if rng.Intn(3) == 0 {
					exclude = map[int]bool{rng.Intn(40): true}
				}
				got, err := pool.Allocate(n, exclude)
				rgot, rerr := ref.Allocate(n, exclude)
				if (err == nil) != (rerr == nil) {
					t.Fatalf("seed %d step %d: alloc err %v vs ref %v", seed, step, err, rerr)
				}
				if err == nil {
					if len(got) != len(rgot) {
						t.Fatalf("seed %d step %d: %d nodes vs ref %d", seed, step, len(got), len(rgot))
					}
					for i := range got {
						if got[i].ID != rgot[i].ID {
							t.Fatalf("seed %d step %d: node[%d]=%d vs ref %d",
								seed, step, i, got[i].ID, rgot[i].ID)
						}
					}
					held[next] = got
					next++
				}
			case op < 6: // release one held allocation
				for h, nodes := range held {
					pool.Release(nodes)
					ref.Release(nodes)
					delete(held, h)
					break
				}
			case op < 7: // external whole-node failure (bypasses the pool)
				c.Nodes[rng.Intn(40)].Failed = true
			case op < 8: // hard GPU (discovered lazily by Allocate)
				c.Nodes[rng.Intn(40)].Devices[rng.Intn(2)].InjectHard()
			case op < 9: // MarkFailed
				id := rng.Intn(40)
				pool.MarkFailed(id)
				ref.MarkFailed(id)
			default: // repair: hardware replaced, node re-admitted
				id := rng.Intn(40)
				node := c.Nodes[id]
				node.Failed = false
				for _, d := range node.Devices {
					if d.Health() != gpu.Healthy {
						d.Repair()
					}
				}
				pool.MarkRepaired(id)
				ref.MarkRepaired(id)
			}
			if got, want := pool.FreeHealthy(), ref.FreeHealthy(); got != want {
				t.Fatalf("seed %d step %d: FreeHealthy %d vs ref %d", seed, step, got, want)
			}
		}
	}
}

// TestPoolAllocateAllocs is the alloc/op benchmark guard: one Allocate
// must allocate only its result slice (the free index itself is
// maintained without per-call allocation), so fleet-scale admission churn
// does not turn into GC churn.
func TestPoolAllocateAllocs(t *testing.T) {
	env := vclock.NewEnv(1)
	c := gpu.NewCluster(env, 64, 2, 1<<30)
	pool := NewPool(env, c.Nodes)
	var nodes []*gpu.Node
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		nodes, err = pool.Allocate(4, nil)
		if err != nil {
			t.Fatal(err)
		}
		pool.Release(nodes)
	})
	if allocs > 1 {
		t.Fatalf("Allocate+Release allocates %.1f objects/op, want <=1 (the result slice)", allocs)
	}
}

// TestPoolFreeHealthySkipsExternallyFailed pins that a node failed behind
// the pool's back (node.Failed, no MarkFailed call) stays in the free
// index — invisible to FreeHealthy and Allocate while down, allocatable
// again the moment the failure flag clears.
func TestPoolFreeHealthySkipsExternallyFailed(t *testing.T) {
	env := vclock.NewEnv(1)
	c := gpu.NewCluster(env, 3, 1, 1<<30)
	pool := NewPool(env, c.Nodes)
	c.Nodes[1].Failed = true
	if got := pool.FreeHealthy(); got != 2 {
		t.Fatalf("FreeHealthy = %d, want 2", got)
	}
	got, err := pool.Allocate(2, nil)
	if err != nil || got[0].ID != 0 || got[1].ID != 2 {
		t.Fatalf("Allocate = %v, %v; want nodes 0,2", got, err)
	}
	if _, err := pool.Allocate(1, nil); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
	c.Nodes[1].Failed = false
	more, err := pool.Allocate(1, nil)
	if err != nil || more[0].ID != 1 {
		t.Fatalf("Allocate after un-fail = %v, %v; want node 1", more, err)
	}
}

// BenchmarkPoolAllocate measures allocation cost on a fleet-scale pool
// where nearly every node is already leased — the regime the free index
// exists for (the old linear scan was O(cluster) per call here).
func BenchmarkPoolAllocate(b *testing.B) {
	env := vclock.NewEnv(1)
	c := gpu.NewCluster(env, 2048, 2, 1<<30)
	pool := NewPool(env, c.Nodes)
	if _, err := pool.Allocate(2040, nil); err != nil { // most of the fleet is busy
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes, err := pool.Allocate(4, nil)
		if err != nil {
			b.Fatal(err)
		}
		pool.Release(nodes)
	}
}
