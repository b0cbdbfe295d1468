package experiments

import (
	"jitckpt/internal/core"
	"jitckpt/internal/metrics"
	"strings"
	"testing"
)

// renderedRows counts the data rows in tb's rendered text: every line but
// the title, the header and the separator.
func renderedRows(tb *metrics.Table) int {
	n := strings.Count(tb.Render(), "\n") - 2
	if tb.Title != "" {
		n--
	}
	return n
}

func TestStaticTables(t *testing.T) {
	if renderedRows(Table1()) != 3 {
		t.Error("Table 1 should have 3 rows")
	}
	t2 := Table2()
	if n := renderedRows(t2); n != 10 {
		t.Errorf("Table 2 rows = %d, want 10", n)
	}
	if !strings.Contains(t2.Render(), "2D-4P-4T") {
		t.Error("Table 2 missing GPT2-18B parallelism")
	}
	if renderedRows(DollarCostTable()) != 2 {
		t.Error("dollar cost table rows")
	}
	if renderedRows(BertWorkedExample()) != 4 {
		t.Error("worked example rows")
	}
}

func TestTable3SmallModel(t *testing.T) {
	rows, err := RunTable3([]string{"BERT-B-FT"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The paper's shape: PC_disk >= PC_mem > CheckFreq > PC_1/day, and
	// JIT-C near zero (well under any periodic variant).
	if !(r.PCDisk >= r.PCMem && r.PCMem > r.CheckFreq && r.CheckFreq > r.PCDaily) {
		t.Errorf("ordering violated: %+v", r)
	}
	if r.JITC >= r.CheckFreq {
		t.Errorf("JIT-C %.5f should be far below CheckFreq %.5f", r.JITC, r.CheckFreq)
	}
	out := RenderTable3(rows).Render()
	if !strings.Contains(out, "BERT-B-FT") {
		t.Error("render missing model")
	}
}

func TestTable4SmallModel(t *testing.T) {
	rows, err := RunTable4([]string{"BERT-B-FT"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Ckpt <= 0 || r.Restore <= 0 {
		t.Fatalf("missing measurements: %+v", r)
	}
	if r.Recovery != r.Ckpt+r.Restore {
		t.Error("recovery must be ckpt + restore")
	}
	if renderedRows(RenderTable4(rows)) != 1 {
		t.Error("render rows")
	}
}

func TestTable5And7SmallModel(t *testing.T) {
	rows, err := RunTable5([]string{"BERT-B-FT/V100x8"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Recovery <= 0 {
		t.Fatalf("no recovery time: %+v", rows[0])
	}
	bk, err := RunTable7([]string{"BERT-B-FT/V100x8"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTable7(bk).Render()
	if !strings.Contains(out, "Recreate NCCL communicators") {
		t.Error("breakdown missing comm-init row")
	}
}

func TestTable6SmallModel(t *testing.T) {
	rows, err := RunTable6([]string{"BERT-B-FT/A100x4"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Healthy <= r.Failed {
		t.Errorf("healthy (%v) must exceed failed (%v): healthy ranks checkpoint GPU state", r.Healthy, r.Failed)
	}
}

func TestTable8Composition(t *testing.T) {
	t4 := []Table4Row{{Model: "BERT-L-PT", Ckpt: 5e9, Restore: 99e8}}
	t3 := []Table3Row{{Model: "BERT-L-PT", JITC: 0.0001}}
	rows := RunTable8(t4, t3)
	if len(rows) != len(Table8Ns) {
		t.Fatalf("rows = %d", len(rows))
	}
	last := rows[len(rows)-1]
	if last.N != 8192 || last.WfPeriodic <= last.WfUserJIT {
		t.Fatalf("JIT must win at 8192: %+v", last)
	}
}

func TestPeerComparison(t *testing.T) {
	rows, err := RunPeerComparison([]string{"GPT2-8B"}, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PeerComparisonPolicies()) {
		t.Fatalf("%d rows, want %d", len(rows), len(PeerComparisonPolicies()))
	}
	byPolicy := map[core.Policy]PeerRow{}
	for _, r := range rows {
		if !r.Recovered {
			t.Fatalf("%s/%v did not recover from the catastrophic failure", r.Model, r.Policy)
		}
		byPolicy[r.Policy] = r
	}
	daily, peer := byPolicy[core.PolicyJITWithDaily], byPolicy[core.PolicyJITWithPeer]
	if peer.RedoIters > 1 {
		t.Fatalf("UserJIT+Peer redid %d minibatches, want <= 1", peer.RedoIters)
	}
	if daily.RedoIters <= peer.RedoIters {
		t.Fatalf("daily fallback redid %d <= peer's %d — rollback advantage vanished",
			daily.RedoIters, peer.RedoIters)
	}
	if byPolicy[core.PolicyPeerShelter].ReplShare <= 0 {
		t.Fatal("peer policies reported no replication traffic")
	}
	if rendered := RenderPeerComparison(rows).Render(); len(rendered) == 0 {
		t.Fatal("empty render")
	}
}

func TestParsePolicies(t *testing.T) {
	got, err := ParsePolicies(" peershelter , UserJIT+Peer ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != core.PolicyPeerShelter || got[1] != core.PolicyJITWithPeer {
		t.Fatalf("parsed %v", got)
	}
	if got, err := ParsePolicies("  "); err != nil || got != nil {
		t.Fatalf("empty spec: %v %v", got, err)
	}
	if _, err := ParsePolicies("PC_disk,nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
