package tracestream

import (
	"reflect"
	"testing"

	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// spanModel is the plain-slice reference a spanRing must behave like: keep
// every span ever pushed, then report the last spanCap of them and the exact
// overflow — or, once sealed, nothing and all of them.
type spanModel struct {
	all    []SpanView
	sealed bool
}

func (m *spanModel) snapshot() []SpanView {
	if m.sealed {
		return nil
	}
	return m.all[max(0, len(m.all)-spanCap):]
}

func (m *spanModel) dropped() uint64 {
	return uint64(len(m.all) - len(m.snapshot()))
}

func mkSpan(i int) SpanView {
	return SpanView{
		Run: 1, Cat: "t", Lane: "l", Name: "s", Start: vclock.Time(i), End: vclock.Time(i + 1),
		BeginArgs: []trace.Arg{{K: "i", V: "x"}},
	}
}

func checkAgainstModel(t *testing.T, r *spanRing, m *spanModel) {
	t.Helper()
	if r.dropped != m.dropped() {
		t.Fatalf("after %d pushes (sealed=%v): dropped=%d, want %d", len(m.all), m.sealed, r.dropped, m.dropped())
	}
	if len(r.buf) > spanCap {
		t.Fatalf("ring holds %d spans, bound is %d", len(r.buf), spanCap)
	}
	// Snapshot appends: whatever dst already holds stays in front.
	prefix := mkSpan(-1)
	got := r.snapshot([]SpanView{prefix})
	want := append([]SpanView{prefix}, m.snapshot()...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot diverged from reference after %d pushes (sealed=%v):\ngot:  %v\nwant: %v",
			len(m.all), m.sealed, got, want)
	}
}

// FuzzSpanRing drives the buffer /jobs/{id}/timeline is served from with
// an arbitrary program — byte 0 snapshots, 255 seals (a run aged out), any
// other value n pushes n spans — and checks ordering, the capacity bound
// and the exact dropped count against the plain-slice reference. The stored
// seeds run in normal test runs; explore with:
//
//	go test ./internal/tracestream -fuzz FuzzSpanRing -fuzztime 30s
func FuzzSpanRing(f *testing.F) {
	f.Add([]byte{5, 0, 2, 0, 9})                         // far below the bound
	f.Add([]byte{254, 254, 4, 0, 1, 0, 3, 0})            // exactly the bound, then across it
	f.Add([]byte{254, 254, 254, 254, 254, 0, 254, 0})    // wraps twice
	f.Add([]byte{7, 255, 0, 3, 0})                       // sealed: history and late spans all dropped
	f.Add([]byte{1, 0, 1, 0, 1, 0, 1, 0, 1, 0})          // a snapshot after every push
	f.Add([]byte{254, 254, 254, 0, 255, 0, 200, 255, 0}) // sealed when full, sealed twice
	f.Fuzz(func(t *testing.T, program []byte) {
		var r spanRing
		var m spanModel
		for _, op := range program {
			switch op {
			case 0:
				// Snapshot mid-stream: must not disturb subsequent pushes.
				checkAgainstModel(t, &r, &m)
			case 255:
				held := len(r.buf)
				buf := r.seal()
				m.sealed = true
				if len(buf) != 0 || cap(buf) < held {
					t.Fatalf("seal returned len %d cap %d for a ring holding %d", len(buf), cap(buf), held)
				}
				for _, sv := range buf[:cap(buf)] {
					if sv.BeginArgs != nil {
						t.Fatal("seal recycled a buffer that still references span args")
					}
				}
			default:
				for i := 0; i < int(op); i++ {
					sv := mkSpan(len(m.all))
					r.push(sv)
					m.all = append(m.all, sv)
				}
			}
		}
		checkAgainstModel(t, &r, &m)
	})
}
