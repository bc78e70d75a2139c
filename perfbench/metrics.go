package main

import (
	"fmt"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric the benchmark promises to print.
type metricDef struct {
	Name, Unit string
}

// e2eMetrics are printed by every workload in untraced mode. Each is
// defined for all three workloads (see README.md for the per-workload
// meaning), so every run reports every one of them.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"lag_p50_ms", "ms"},
	{"lag_p90_ms", "ms"},
}

// layerMetrics are printed by every workload in traced mode. A layer a
// workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{"opdelta.capture.calls", "count"},
	{"opdelta.capture.busy_ms", "ms"},
	{"opdelta.capture.p99_us", "us"},
	{"opdelta.log_read.calls", "count"},
	{"opdelta.log_read.busy_ms", "ms"},
	{"opdelta.log_read.useful_ratio", "ratio"},
	{"txn.src_lock_waits", "count"},
	{"txn.src_lock_wait_ms", "ms"},
	{"txn.src_lock_waits_oplog", "count"},
	{"txn.src_lock_wait_ms_oplog", "ms"},
	{"txn.wh_lock_waits", "count"},
	{"txn.wh_lock_wait_ms", "ms"},
	{"netrepl.ship_persist_ms.p50", "ms"},
	{"netrepl.ship_persist_ms.p99", "ms"},
	{"netrepl.ops_per_batch", "count"},
	{"transport.queue_wait_ms.p50", "ms"},
	{"transport.queue_wait_ms.p99", "ms"},
	{"transport.ack.busy_ms", "ms"},
	{"warehouse.apply.calls", "count"},
	{"warehouse.apply.busy_ms", "ms"},
	{"warehouse.apply.p99_ms", "ms"},
	{"warehouse.apply.ops_per_call", "count"},
	{"warehouse.value_apply.busy_ms", "ms"},
	{"warehouse.value_apply.statements", "count"},
	{"wal.src_commits_per_sync", "count"},
	{"wal.wh_commits_per_sync", "count"},
	{"storage.src_pool_hit_ratio", "ratio"},
	{"storage.src_pool_evictions", "count"},
	{"storage.wh_pool_hit_ratio", "ratio"},
	{"storage.wh_pool_evictions", "count"},
	{"engine.source_write.busy_ms", "ms"},
	{"engine.snapshot_read.busy_ms", "ms"},
	{"engine.snapshot_read.rows_per_query", "count"},
	{"engine.mvcc.versions_peak", "count"},
	{"extract.timestamp.busy_ms", "ms"},
	{"extract.timestamp.rows_scanned_per_delta_row", "ratio"},
	{"proc.cpu_ms_per_op", "ms"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"gen.late_max_ms", "ms"},
	{"op.p50_ms", "ms"},
	{"op.p90_ms", "ms"},
	{"op.p99_ms", "ms"},
	{"lag.p99_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.lag_covered_ratio", "ratio"},
	{"trace.recorder_overhead_pct", "%"},
	{"trace.vs_untraced_pct", "%"},
}

// metricSet collects a run's values by name; units come from the
// catalogs above.
type metricSet map[string]float64

// render keeps exactly the catalog's metrics, with their units. A
// missing end-to-end metric is a bug in the workload; a missing layer
// metric means the workload does not exercise that layer.
func render(defs []metricDef, vals metricSet, required bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("perfbench: workload did not measure %s", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// setOpLatency reports the latency of the workload's client operations
// (ms) as traced-mode metrics: on a shared 2-CPU VM their medians moved
// by 30% between identical runs, too much for a bound. It also logs the
// distribution with its sample count.
func (e *env) setOpLatency(o *outcome, label string, xs []float64) {
	e.distSummary(label, xs)
	o.layer["op.p50_ms"] = percentile(xs, 0.50)
	o.layer["op.p90_ms"] = percentile(xs, 0.90)
	o.layer["op.p99_ms"] = percentile(xs, 0.99)
	o.tails["op"] = len(xs)
}

// setLag reports freshness lag (ms): the median and p90 are end-to-end
// metrics, the p99 a traced-mode tail metric.
func (e *env) setLag(o *outcome, label string, xs []float64) {
	e.distSummary(label, xs)
	o.e2e["lag_p50_ms"] = percentile(xs, 0.50)
	o.e2e["lag_p90_ms"] = percentile(xs, 0.90)
	o.layer["lag.p99_ms"] = percentile(xs, 0.99)
	o.tails["lag"] = len(xs)
}

// percentile returns the nearest-rank q-quantile of xs (0 when empty).
// xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// distSummary prints a latency distribution's sample count and
// percentiles for the human-readable report.
func (e *env) distSummary(name string, xs []float64) {
	ys := append([]float64(nil), xs...)
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d", name, len(ys))
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		fmt.Fprintf(&b, " p%g=%.3f", q*100, percentile(ys, q))
	}
	if len(ys) > 0 {
		fmt.Fprintf(&b, " max=%.3f", ys[len(ys)-1])
	}
	e.logf("%s", b.String())
}
