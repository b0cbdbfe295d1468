package tracestream

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// Server exposes a Stream over HTTP:
//
//	/metrics               fleet-level live rollup (MetricsSnapshot)
//	/fleet                 per-tenant summary table + spare-pool level
//	/jobs/{id}/timeline    recent spans as Chrome trace events
//	                       (?n=100 limits finalized spans)
//
// Handlers snapshot under the Stream's mutex (a copy of plain structs)
// and encode JSON outside it, so a slow client never holds the
// simulation's ingest path. Durations in JSON are integer virtual-time
// nanoseconds except the Chrome events' ts/dur, which follow the
// exporter's microsecond convention.
type Server struct {
	stream *Stream
	mux    *http.ServeMux
}

// NewServer wraps a Stream in an http.Handler.
func NewServer(s *Stream) *Server {
	srv := &Server{stream: s, mux: http.NewServeMux()}
	srv.mux.HandleFunc("/", srv.index)
	srv.mux.HandleFunc("/metrics", srv.metrics)
	srv.mux.HandleFunc("/fleet", srv.fleet)
	srv.mux.HandleFunc("/jobs/", srv.timeline)
	return srv
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "jitckpt live observability\n\n"+
		"  /metrics               fleet-level live rollup\n"+
		"  /fleet                 per-tenant summary table\n"+
		"  /jobs/{id}/timeline    recent spans (Chrome trace-event schema)\n")
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.stream.Metrics())
}

// FleetResponse is /fleet's payload: every tenant plus the pool level
// and, once the run finished, the authoritative fleet rollup.
type FleetResponse struct {
	Jobs     []JobSummary
	HavePool bool
	Pool     PoolLevel
	Fleet    *FleetFinal
}

func (s *Server) fleet(w http.ResponseWriter, r *http.Request) {
	m := s.stream.Metrics()
	writeJSON(w, FleetResponse{
		Jobs:     s.stream.Jobs(),
		HavePool: m.HavePool,
		Pool:     m.Pool,
		Fleet:    m.Fleet,
	})
}

// TimelineResponse is /jobs/{id}/timeline's payload. TraceEvents uses
// the Chrome exporter's schema: finalized spans are complete "X" events,
// in-progress spans open-ended "B" events.
type TimelineResponse struct {
	Job         JobSummary
	Dropped     uint64
	TraceEvents []trace.ChromeEvent `json:"traceEvents"`
}

func (s *Server) timeline(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, ok := strings.CutSuffix(rest, "/timeline")
	if !ok || id == "" || strings.Contains(id, "/") {
		http.NotFound(w, r)
		return
	}
	max := 0
	if n := r.URL.Query().Get("n"); n != "" {
		v, err := strconv.Atoi(n)
		if err != nil || v < 1 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		max = v
	}
	snap, ok := s.stream.Timeline(id, max)
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	writeJSON(w, TimelineResponse{
		Job:         snap.Job,
		Dropped:     snap.Dropped,
		TraceEvents: chromeEvents(snap.Spans),
	})
}

// chromeEvents renders span views in the Chrome exporter's schema, with
// its metadata convention (trace.ChromeThreads).
func chromeEvents(spans []SpanView) []trace.ChromeEvent {
	var out []trace.ChromeEvent
	tid := trace.ChromeThreads(&out)
	us := func(t vclock.Time) float64 { return float64(t) / 1e3 }
	for _, sv := range spans {
		ce := trace.ChromeEvent{
			Name: sv.Name, Cat: sv.Cat, PID: sv.Run, TID: tid(sv.Run, sv.Lane),
			TS: us(sv.Start), Args: spanArgs(sv),
		}
		if sv.Open {
			ce.Ph = "B"
		} else {
			ce.Ph = "X"
			ce.Dur = us(sv.End - sv.Start)
		}
		out = append(out, ce)
	}
	return out
}

func spanArgs(sv SpanView) map[string]string {
	if len(sv.BeginArgs) == 0 && len(sv.EndArgs) == 0 {
		return nil
	}
	m := make(map[string]string, len(sv.BeginArgs)+len(sv.EndArgs))
	for _, a := range sv.BeginArgs {
		m[a.K] = a.V
	}
	for _, a := range sv.EndArgs {
		m[a.K] = a.V
	}
	return m
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}
