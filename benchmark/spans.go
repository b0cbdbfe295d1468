package main

import (
	"encoding/json"
	"io"
	"time"
)

// spanRec is one benchmark-side span: a call the benchmark made into one
// layer of the simulator. Parent is an index into the recorder's span
// list (-1 for a root); Pass is the identifier every span of one pass
// shares.
type spanRec struct {
	Name       string
	Start, End time.Duration // since the recorder's epoch
	Parent     int
	Pass       int
}

// spanRecorder keeps spans in memory and writes them out when the run
// ends. It is used from the benchmark's single load-generating goroutine
// only. From outside the program, a span's self time separates only the
// benchmark's own calls; the split inside a call comes from the CPU
// profile (see profile.go).
type spanRecorder struct {
	epoch time.Time
	spans []spanRec
	open  []int // stack of open span indexes
	pass  int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// nextPass starts a new pass: spans recorded from now on carry its id.
func (r *spanRecorder) nextPass() { r.pass++ }

// do times fn as a span named name, child of the innermost open span.
func (r *spanRecorder) do(name string, fn func()) {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	idx := len(r.spans)
	r.spans = append(r.spans, spanRec{Name: name, Parent: parent, Pass: r.pass, Start: time.Since(r.epoch)})
	r.open = append(r.open, idx)
	defer func() {
		r.spans[idx].End = time.Since(r.epoch)
		r.open = r.open[:len(r.open)-1]
	}()
	fn()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its direct children cover.
func (r *spanRecorder) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range r.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// chromeSpan is one complete ("X") event of the Chrome trace-event format.
type chromeSpan struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Nesting follows from the timestamps; the
// parent index and pass id are repeated in args.
func (r *spanRecorder) writeChrome(w io.Writer) error {
	evs := make([]chromeSpan, len(r.spans))
	for i, s := range r.spans {
		evs[i] = chromeSpan{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"span": i, "parent": s.Parent, "pass": s.Pass},
		}
	}
	return json.NewEncoder(w).Encode(map[string]interface{}{"traceEvents": evs})
}
