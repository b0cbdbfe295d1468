package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// ChromeEvent is one entry of the Chrome trace-event JSON array
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU);
// Perfetto and chrome://tracing both load it. It is exported so the
// streaming timeline endpoint can serve the same schema.
type ChromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeThreads returns the pid/tid assignment every export in this
// schema shares: one process per run, one thread per lane, numbered in
// order of first appearance. The returned function maps (run, lane) to its
// tid and, the first time it sees a run or a lane, appends the
// process_name / thread_name metadata event naming it to *out — so call it
// before appending the event that carries the tid.
func ChromeThreads(out *[]ChromeEvent) func(run int, lane string) int {
	type laneKey struct {
		run  int
		lane string
	}
	tids := make(map[laneKey]int)
	runSeen := make(map[int]bool)
	return func(run int, lane string) int {
		k := laneKey{run, lane}
		if id, ok := tids[k]; ok {
			return id
		}
		id := len(tids) + 1
		tids[k] = id
		if !runSeen[run] {
			runSeen[run] = true
			*out = append(*out, ChromeEvent{
				Name: "process_name", Ph: "M", PID: run, TID: 0,
				Args: map[string]string{"name": fmt.Sprintf("run %d", run)},
			})
		}
		*out = append(*out, ChromeEvent{
			Name: "thread_name", Ph: "M", PID: run, TID: id,
			Args: map[string]string{"name": lane},
		})
		return id
	}
}

// WriteChrome writes the full log as Chrome trace-event JSON. Each
// simulation run becomes one "process" (runs restart virtual time at
// zero), each lane one named "thread"; paired spans become complete 'X'
// events, unclosed spans stay open-ended 'B' events, instants become 'i'.
func WriteChrome(w io.Writer, r *Recorder) error {
	evs := r.Events()
	var out []ChromeEvent
	tid := ChromeThreads(&out)

	// Pair span ends with their begins.
	endOf := make(map[uint64]*Ev, len(evs)/2)
	for i := range evs {
		ev := &evs[i]
		if ev.Ph == 'E' {
			if _, dup := endOf[ev.Ref]; !dup {
				endOf[ev.Ref] = ev
			}
		}
	}

	us := func(t int64) float64 { return float64(t) / 1e3 }
	for i := range evs {
		ev := &evs[i]
		ce := ChromeEvent{
			Name: ev.Name, Cat: ev.Cat, PID: ev.Run, TID: tid(ev.Run, ev.Lane),
			TS: us(int64(ev.T)), Args: argMap(ev.Args),
		}
		switch ev.Ph {
		case 'B':
			if end, ok := endOf[ev.Seq]; ok {
				ce.Ph = "X"
				ce.Dur = us(int64(end.T - ev.T))
				for _, a := range end.Args {
					if ce.Args == nil {
						ce.Args = make(map[string]string)
					}
					ce.Args[a.K] = a.V
				}
			} else {
				ce.Ph = "B"
			}
		case 'E':
			continue // folded into the begin's 'X' above
		case 'i':
			ce.Ph = "i"
			ce.S = "t"
		default:
			continue
		}
		out = append(out, ce)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeFile{TraceEvents: out, DisplayTimeUnit: "ms"})
}

func argMap(args []Arg) map[string]string {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]string, len(args))
	for _, a := range args {
		m[a.K] = a.V
	}
	return m
}

// WriteText writes the compact deterministic text timeline: one line per
// event, in record order, fixed-width virtual-time prefix. The format is
// stable — goldens and docs depend on it:
//
//	0.000000000 i core  sim    run label=x
//	1.250000000 B ckpt  rank0  pc-save iter=5
//	1.310000000 E ckpt  rank0  pc-save
func WriteText(w io.Writer, r *Recorder) error {
	multi := false
	evs := r.Events()
	for i := range evs {
		if evs[i].Run > 1 {
			multi = true
			break
		}
	}
	for i := range evs {
		ev := &evs[i]
		if multi {
			if _, err := fmt.Fprintf(w, "r%d ", ev.Run); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%.9f %c %-5s %-6s %s", ev.T.Sec(), ev.Ph, ev.Cat, ev.Lane, ev.Name); err != nil {
			return err
		}
		for _, a := range ev.Args {
			if _, err := fmt.Fprintf(w, " %s=%s", a.K, a.V); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
