package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Handler serves the registry over HTTP:
//
//	/metrics       Prometheus text exposition (version 0.0.4)
//	/debug/spanz   recent spans grouped by trace, newest trace first
//	               (?n=N limits traces, default 32; ?format=tree
//	               renders a human-readable span tree; the JSON form
//	               also carries the slow-trace ring)
//
// spans may be nil, in which case /debug/spanz serves empty lists.
func Handler(reg *Registry, spans *SpanTracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.Snapshot().WriteText(w)
	})
	mux.HandleFunc("/debug/spanz", func(w http.ResponseWriter, r *http.Request) {
		n := 32
		if s := r.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil {
				n = v
			}
		}
		traces := spans.Traces(n)
		if r.URL.Query().Get("format") == "tree" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			writeSpanTree(w, traces)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(spanzJSON(traces, spans.Slow(16)))
	})
	return mux
}

// jsonSpan is the wire form of a SpanRecord: IDs render as 16-digit
// hex strings because uint64 does not survive JSON number parsing.
type jsonSpan struct {
	TraceID    string `json:"trace_id"`
	SpanID     string `json:"span_id"`
	ParentID   string `json:"parent_id,omitempty"`
	Name       string `json:"name"`
	Source     string `json:"source,omitempty"`
	Seq        uint64 `json:"seq"`
	StartNs    int64  `json:"start_unix_ns"`
	EndNs      int64  `json:"end_unix_ns"`
	DurationNs int64  `json:"duration_ns"`
}

type jsonTrace struct {
	TraceID string     `json:"trace_id"`
	Source  string     `json:"source,omitempty"`
	Seq     uint64     `json:"seq"`
	Spans   []jsonSpan `json:"spans"`
}

type jsonSlow struct {
	TraceID string     `json:"trace_id"`
	Source  string     `json:"source,omitempty"`
	Seq     uint64     `json:"seq"`
	LagNs   int64      `json:"e2e_lag_ns"`
	AtNs    int64      `json:"at_unix_ns"`
	Spans   []jsonSpan `json:"spans"`
}

func hexID(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", id)
}

func toJSONSpans(spans []SpanRecord) []jsonSpan {
	out := make([]jsonSpan, 0, len(spans))
	for _, sp := range spans {
		out = append(out, jsonSpan{
			TraceID: hexID(sp.TraceID), SpanID: hexID(sp.SpanID), ParentID: hexID(sp.ParentID),
			Name: sp.Name, Source: sp.Source, Seq: sp.Seq,
			StartNs: sp.StartUnixNs, EndNs: sp.EndUnixNs, DurationNs: sp.DurationNs(),
		})
	}
	return out
}

func spanzJSON(traces []SpanTrace, slow []SlowRecord) any {
	jt := make([]jsonTrace, 0, len(traces))
	for _, t := range traces {
		jt = append(jt, jsonTrace{TraceID: hexID(t.TraceID), Source: t.Source, Seq: t.Seq,
			Spans: toJSONSpans(t.Spans)})
	}
	js := make([]jsonSlow, 0, len(slow))
	for _, s := range slow {
		js = append(js, jsonSlow{TraceID: hexID(s.TraceID), Source: s.Source, Seq: s.Seq,
			LagNs: s.LagNs, AtNs: s.AtUnixNs, Spans: toJSONSpans(s.Spans)})
	}
	return struct {
		Traces []jsonTrace `json:"traces"`
		Slow   []jsonSlow  `json:"slow"`
	}{jt, js}
}

// writeSpanTree renders each trace as an indented tree: children
// nest under their parent span; spans whose parent is unknown locally
// (it lives in the peer process) render at the root with a marker.
func writeSpanTree(w http.ResponseWriter, traces []SpanTrace) {
	for _, t := range traces {
		fmt.Fprintf(w, "trace %s source=%s seq=%d (%d spans)\n", hexID(t.TraceID), t.Source, t.Seq, len(t.Spans))
		local := make(map[uint64]bool, len(t.Spans))
		children := make(map[uint64][]SpanRecord)
		for _, sp := range t.Spans {
			local[sp.SpanID] = true
		}
		var roots []SpanRecord
		for _, sp := range t.Spans {
			if sp.ParentID != 0 && local[sp.ParentID] && sp.ParentID != sp.SpanID {
				children[sp.ParentID] = append(children[sp.ParentID], sp)
			} else {
				roots = append(roots, sp)
			}
		}
		var render func(sp SpanRecord, depth int)
		render = func(sp SpanRecord, depth int) {
			marker := ""
			if sp.ParentID != 0 && !local[sp.ParentID] {
				marker = " (remote parent " + hexID(sp.ParentID) + ")"
			}
			fmt.Fprintf(w, "  %s%-8s %12s%s\n", strings.Repeat("  ", depth), sp.Name,
				time.Duration(sp.DurationNs()), marker)
			for _, c := range children[sp.SpanID] {
				render(c, depth+1)
			}
		}
		for _, sp := range roots {
			render(sp, 0)
		}
	}
}
