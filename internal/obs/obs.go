// Package obs is the repository's measurement substrate: a
// dependency-free metrics registry (sharded lock-free counters, gauges,
// log-scale histograms with fixed bucket bounds) plus a span tracer
// that follows each Op-Delta transaction on its way from source capture
// to warehouse durability and derives the end-to-end freshness lag the
// paper's whole argument is about.
//
// Design constraints, in order:
//
//   - No mutex on any hot path. Counters are striped atomics, histogram
//     observation is two atomic adds and a CAS loop on the sum; the
//     registry mutex is only taken when a metric handle is created (once
//     per name) and when a snapshot is cut.
//   - Deterministic output. Histogram bucket bounds are fixed at
//     construction (log-scale by default), and Snapshot renders metrics
//     in sorted order, so the Prometheus text encoding is byte-stable
//     for a given set of observations — golden-file testable.
//   - One dump path. The live /metrics endpoint, the bench harness's
//     BENCH_*.json, and any test all consume the same point-in-time
//     Snapshot instead of reading live counters field by field.
package obs

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value metric dimension.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Metric types as rendered in the exposition format.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// counterShards is the stripe count of a Counter. Eight 64-byte-padded
// cells keep concurrent incrementers off each other's cache lines while
// costing 512 B per counter.
const counterShards = 8

type counterCell struct {
	v atomic.Uint64
	_ [56]byte // pad to a cache line so stripes don't false-share
}

// Counter is a monotonically increasing striped atomic counter. The
// zero value is NOT usable; obtain counters from a Registry.
type Counter struct {
	cells [counterShards]counterCell
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. The stripe is picked by the runtime's per-thread fast
// random source, so concurrent adders spread across cells without any
// coordination.
func (c *Counter) Add(n uint64) {
	c.cells[rand.Uint64()%counterShards].v.Add(n)
}

// AddDuration adds a non-negative duration in nanoseconds (counters
// holding accumulated time use nanosecond units; the snapshot reports
// them verbatim).
func (c *Counter) AddDuration(d time.Duration) {
	if d > 0 {
		c.Add(uint64(d))
	}
}

// Value sums the stripes.
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].v.Load()
	}
	return sum
}

// Gauge is an instantaneous int64 value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a concurrency-safe collection of named metrics.
// Re-requesting a metric with the same name and labels returns the same
// handle, so packages can resolve handles independently and still share
// series.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

type entry struct {
	name   string
	labels []Label
	typ    string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // func-backed counter/gauge, read at snapshot time
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Components use it when no
// registry is injected; tests wanting isolation construct their own.
func Default() *Registry { return defaultRegistry }

// key renders the identity of a series: name plus sorted labels.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortedLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return append([]Label(nil), labels...)
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (r *Registry) lookup(name, typ string, labels []Label) *entry {
	ls := sortedLabels(labels)
	k := key(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[k]; ok {
		if e.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, e.typ))
		}
		return e
	}
	e := &entry{name: name, labels: ls, typ: typ}
	r.entries[k] = e
	return e
}

// Counter returns (creating if needed) the counter series name{labels}.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	e := r.lookup(name, TypeCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.counter == nil && e.fn == nil {
		e.counter = &Counter{}
	}
	return e.counter
}

// Gauge returns (creating if needed) the gauge series name{labels}.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	e := r.lookup(name, TypeGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.gauge == nil && e.fn == nil {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// Histogram returns (creating if needed) the histogram series
// name{labels} with the given bucket upper bounds (ascending; a +Inf
// bucket is implicit). When the series already exists its original
// bounds are kept.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	e := r.lookup(name, TypeHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.hist == nil {
		e.hist = newHistogram(bounds)
	}
	return e.hist
}

// GaugeFunc registers (or replaces) a gauge whose value is computed by
// fn at snapshot time — zero hot-path cost for values derivable from
// existing state, like a buffer pool's hit ratio. Replacement semantics
// let a re-opened component re-point the series at its live instance.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	e := r.lookup(name, TypeGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e.fn = fn
	e.gauge = nil
}

// CounterFunc registers (or replaces) a counter whose value is read by
// fn at snapshot time. The caller promises monotonicity.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...Label) {
	e := r.lookup(name, TypeCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e.fn = fn
	e.counter = nil
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and growing by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets are the standard latency bounds in seconds: log-scale
// powers of two from 1µs to ~33.5s. Fixed so histogram output is
// deterministic across runs and machines.
var DurationBuckets = ExpBuckets(1e-6, 2, 26)

// CountBuckets are the standard magnitude bounds for sizes and cohort
// counts: powers of two from 1 to 32768.
var CountBuckets = ExpBuckets(1, 2, 16)

// Histogram is a fixed-bound log-scale histogram. Observation is
// lock-free: one atomic add on the bucket, one CAS loop on the sum.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; counts has one extra +Inf cell
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, len(bounds) => +Inf
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the total of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}
