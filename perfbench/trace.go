package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, or one
// segment of an op's path through the pipeline. Times are Unix
// nanoseconds, the clock op timestamps are taken on.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Seq    uint64 `json:"seq,omitempty"` // op seq, where the span belongs to one op
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// (untraced mode) records nothing, so call sites need no guard.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder {
	if !on {
		return nil
	}
	return &recorder{spans: make([]span, 0, 1<<16)}
}

// add records a span and returns its ID (0 on a nil recorder).
func (r *recorder) add(name string, parent, seq uint64, start, end int64) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := uint64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Seq: seq, Start: start, End: end})
	r.mu.Unlock()
	return id
}

// call records a span for a call that started at start and ends now.
func (r *recorder) call(name string, start time.Time) {
	if r == nil {
		return
	}
	r.add(name, 0, 0, start.UnixNano(), time.Now().UnixNano())
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if r == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Self time.Duration // summed self time: duration minus child coverage
	Durs []float64     // full durations, ms, for percentiles
}

// aggregate computes per-name call counts, self time and durations.
// A span's self time is its duration minus the part of its interval
// its child spans cover.
func (r *recorder) aggregate() map[string]*layerStat {
	out := map[string]*layerStat{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[uint64][]int{}
	for i, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for _, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		st.Durs = append(st.Durs, float64(dur)/1e6)
		st.Self += time.Duration(dur - covered(r.spans, children[s.ID], s.Start, s.End))
	}
	return out
}

// covered returns how much of [lo, hi] the given spans cover.
func covered(spans []span, idx []int, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := spans[i].Start, spans[i].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// spanCostNs measures what recording one span costs, so a traced run
// can state how much of its window the recorder itself took.
func spanCostNs() float64 {
	const n = 100000
	r := &recorder{spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		r.call("calibrate", t)
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

func layerDurs(agg map[string]*layerStat, name string) []float64 {
	if st := agg[name]; st != nil {
		return st.Durs
	}
	return nil
}

func selfMs(agg map[string]*layerStat, name string) float64 {
	if st := agg[name]; st != nil {
		return float64(st.Self) / 1e6
	}
	return 0
}
