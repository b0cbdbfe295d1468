package vclock

import (
	"testing"
)

// TestQueueEmptyNonBlockingOps pins the non-blocking accessors on an
// empty queue: TryPop fails without blocking, Drain returns nothing, and
// Len is zero — all callable without any running process.
func TestQueueEmptyNonBlockingOps(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, "q")
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
	if v, ok := q.TryPop(); ok {
		t.Fatalf("TryPop on empty queue returned %v", v)
	}
	if items := q.Drain(); items != nil {
		t.Fatalf("Drain on empty queue returned %v", items)
	}
}

// TestQueueTryPopAndDrainOrder: TryPop and Drain preserve FIFO order and
// interact correctly with Len.
func TestQueueTryPopAndDrainOrder(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, "q")
	for i := 1; i <= 4; i++ {
		q.Push(i)
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d", q.Len())
	}
	if v, ok := q.TryPop(); !ok || v != 1 {
		t.Fatalf("TryPop = %v,%v", v, ok)
	}
	rest := q.Drain()
	if len(rest) != 3 || rest[0] != 2 || rest[2] != 4 {
		t.Fatalf("Drain = %v", rest)
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
}

// TestQueueSimultaneousWakeupPopOrdering pins the determinism contract
// the trace goldens rely on: when several processes are blocked in Pop
// and items arrive while all of them wake at the same virtual instant,
// items are claimed in the blocked processes' wake order — which is
// their spawn order, every run.
func TestQueueSimultaneousWakeupPopOrdering(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		env := NewEnv(1)
		q := NewQueue[string](env, "q")
		got := make(map[string]string)
		for _, name := range []string{"c0", "c1", "c2"} {
			name := name
			env.Go(name, func(p *Proc) {
				got[name] = q.Pop(p)
			})
		}
		env.Go("producer", func(p *Proc) {
			p.Sleep(Second)
			// All three consumers are parked on the same wake event;
			// pushes at one instant must resolve deterministically.
			q.Push("a")
			q.Push("b")
			q.Push("c")
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if got["c0"] != "a" || got["c1"] != "b" || got["c2"] != "c" {
			t.Fatalf("trial %d: wake order not deterministic: %v", trial, got)
		}
	}
}

// TestQueueZeroValueClearedOnPop: popped slots are zeroed so drained
// backing arrays do not retain references (pointer payloads).
func TestQueueZeroValueClearedOnPop(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[*int](env, "q")
	x := new(int)
	q.Push(x)
	if v, ok := q.TryPop(); !ok || v != x {
		t.Fatalf("TryPop = %v,%v", v, ok)
	}
	// Push/pop again to confirm the queue still works after zeroing.
	q.Push(nil)
	if v, ok := q.TryPop(); !ok || v != nil {
		t.Fatalf("second TryPop = %v,%v", v, ok)
	}
}
