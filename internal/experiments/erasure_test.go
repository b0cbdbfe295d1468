package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"jitckpt/internal/trace"
)

// TestErasureSweepHeadline pins the sweep's argument: Reed-Solomon
// striping matches replication's survivable-domain count at a fraction
// of the byte overhead, and every scheme actually recovers from the
// worst loss it budgets for.
func TestErasureSweepHeadline(t *testing.T) {
	rows, err := RunErasureSweep(nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]ErasureRow, len(rows))
	for _, r := range rows {
		byName[r.Scheme] = r

		if !r.Recovered {
			t.Errorf("%s: did not recover from %d domain losses", r.Scheme, r.DomainsLost)
		}
		if r.RedoIters > 1 {
			t.Errorf("%s: redid %d minibatches, want <=1 (shelter is at most one iteration stale)",
				r.Scheme, r.RedoIters)
		}
		// Measured byte overhead must match the analytic factor: Copies×
		// for replication, (k+m)/k× for striping.
		want := float64(r.Peer.Copies)
		if r.Peer.Striped() {
			want = float64(r.Peer.DataShards+r.Peer.ParityShards) / float64(r.Peer.DataShards)
		}
		if r.Overhead < want*0.99 || r.Overhead > want*1.01 {
			t.Errorf("%s: measured overhead %.3fx, analytic %.3fx", r.Scheme, r.Overhead, want)
		}
		if r.Peer.Striped() {
			if r.Decodes == 0 {
				t.Errorf("%s: survived without decoding — the kill set missed the stripe", r.Scheme)
			}
		} else if r.Decodes != 0 {
			t.Errorf("%s: replication scheme reported %d decodes", r.Scheme, r.Decodes)
		}
	}

	// The headline pairings: equal survivability, cheaper bytes.
	for _, pair := range []struct{ rs, repl string }{
		{"RS(2,1)", "repl x2"},
		{"RS(4,2)", "repl x3"},
	} {
		rs, repl := byName[pair.rs], byName[pair.repl]
		if rs.Scheme == "" || repl.Scheme == "" {
			t.Fatalf("sweep missing scheme %s or %s", pair.rs, pair.repl)
		}
		if rs.Survivable != repl.Survivable {
			t.Errorf("%s survives %d domains, %s survives %d — pairing broken",
				pair.rs, rs.Survivable, pair.repl, repl.Survivable)
		}
		if rs.Overhead > 1.6 {
			t.Errorf("%s: overhead %.2fx exceeds the 1.6x bound", pair.rs, rs.Overhead)
		}
		if repl.Overhead < 2.0 {
			t.Errorf("%s: overhead %.2fx below replication's 2x floor?", pair.repl, repl.Overhead)
		}
	}
}

// TestErasureParallelMatchesSerial extends the sweep runner's
// equivalence guarantee to the erasure grid: rows and the merged event
// trace are byte-identical whether schemes run serially or on workers.
func TestErasureParallelMatchesSerial(t *testing.T) {
	run := func(workers int) ([]ErasureRow, []byte) {
		opt := DefaultOptions()
		opt.Workers = workers
		opt.Recorder = trace.New()
		rows, err := RunErasureSweep(nil, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rows, traceBytes(t, opt.Recorder)
	}
	serialRows, serialTrace := run(1)
	parallelRows, parallelTrace := run(4)
	if !reflect.DeepEqual(serialRows, parallelRows) {
		t.Errorf("erasure rows differ between serial and parallel runs:\nserial:   %+v\nparallel: %+v",
			serialRows, parallelRows)
	}
	if !bytes.Equal(serialTrace, parallelTrace) {
		t.Errorf("erasure traces differ: serial %d bytes, parallel %d bytes",
			len(serialTrace), len(parallelTrace))
	}
}
