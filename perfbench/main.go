// Command perfbench is the repository's benchmark. It drives the
// Op-Delta pipeline through the packages' own calls on three seeded
// workloads, checks each warehouse replica against its source, and
// prints every metric by name and unit; the last line of its output is
// one JSON object. README.md in this directory describes the
// workloads, the metrics and the two modes.
//
//	bash perfbench/run.sh --workload repl_stream --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"opdelta/internal/engine"
)

// sizes fixes how much data and load a run uses. fullSize is what the
// command runs; the tests use tinySize.
type sizes struct {
	Setups int // set-ups per run; setup_s is their median

	// repl_stream
	ReplRows    int     // rows in source and replica at start
	ReplBacklog int     // statements captured during set-up, drained in phase 1
	ReplRate    float64 // phase-2 offered load, statements per second

	// maint_online
	MaintRows    int // replica rows (and source rows)
	MaintTxns    int // source transactions in one captured pass
	MaintStripe  int // PK stripe width the pass's statements land in
	MaintMaxRows int // widest range UPDATE
	ReadStripe   int // rows per snapshot stripe scan

	// value_refresh
	RefreshRows    int // source and replica rows at start
	RefreshUpdates int // range UPDATEs per cycle
	RefreshMaxRows int // widest range UPDATE

	// TailSamples is how many samples a p99 needs to have ten beyond it.
	TailSamples int
}

var fullSize = sizes{
	Setups:         5,
	ReplRows:       5000,
	ReplBacklog:    6000,
	ReplRate:       40,
	MaintRows:      100000,
	MaintTxns:      300,
	MaintStripe:    1000,
	MaintMaxRows:   400,
	ReadStripe:     1000,
	RefreshRows:    100000,
	RefreshUpdates: 24,
	RefreshMaxRows: 60,
	TailSamples:    1000,
}

var tinySize = sizes{
	Setups:         2,
	ReplRows:       200,
	ReplBacklog:    60,
	ReplRate:       100,
	MaintRows:      3000,
	MaintTxns:      20,
	MaintStripe:    300,
	MaintMaxRows:   80,
	ReadStripe:     200,
	RefreshRows:    3000,
	RefreshUpdates: 6,
	RefreshMaxRows: 20,
	TailSamples:    0,
}

// config is one run's parameters.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Size     sizes
	// Dir holds the run's engine files (removed at exit), the span file
	// and the untraced baselines the traced mode compares against.
	Dir string
	// Tamper, when set, damages the warehouse replica just before the
	// correctness gate; the tests use it to prove the gate bites.
	Tamper func(wh *engine.DB) error
	// Log receives the human-readable report.
	Log io.Writer
}

// outcome is what a workload measured.
type outcome struct {
	correct           bool
	attempted, failed int64
	e2e, layer        metricSet
	tails             map[string]int // samples behind each latency distribution
	window            time.Duration  // measured time, for the recorder's share
}

// env is what a workload runs with.
type env struct {
	cfg     config
	rec     *recorder // nil in untraced mode
	workDir string
}

func (e *env) seconds() time.Duration { return time.Duration(e.cfg.Seconds * float64(time.Second)) }

func (e *env) logf(format string, args ...any) {
	if e.cfg.Log != nil {
		fmt.Fprintf(e.cfg.Log, format+"\n", args...)
	}
}

// watchdog bounds a whole run, set-up and drain included.
const watchdog = 170 * time.Second

var workloads = map[string]func(*env) (*outcome, error){
	"repl_stream":   runRepl,
	"maint_online":  runMaint,
	"value_refresh": runRefresh,
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runBenchmark runs one workload and returns its result line.
func runBenchmark(cfg config) (*result, error) {
	fn := workloads[cfg.Workload]
	if fn == nil {
		return nil, fmt.Errorf("perfbench: unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return nil, errors.New("perfbench: --seconds must be positive")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.Dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{cfg: cfg, rec: newRecorder(cfg.Trace), workDir: work}
	out, err := fn(e)
	if err != nil {
		return nil, err
	}
	out.e2e["peak_rss_mb"] = peakRSSMB()
	for name, n := range out.tails {
		if n < cfg.Size.TailSamples {
			e.logf("warning: %s p99 rests on %d samples, fewer than %d", name, n, cfg.Size.TailSamples)
		}
	}
	res := &result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed}
	baseline := filepath.Join(cfg.Dir, "untraced-"+cfg.Workload+".json")
	if !cfg.Trace {
		res.Metrics, err = render(e2eMetrics, out.e2e, true)
		if err != nil {
			return nil, err
		}
		saveBaseline(baseline, out.e2e["throughput_per_s"])
	} else {
		traceMetrics(e, out, baseline)
		res.Metrics, err = render(layerMetrics, out.layer, false)
		if err != nil {
			return nil, err
		}
		if err := e.rec.write(filepath.Join(cfg.Dir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.Workload, cfg.Seed))); err != nil {
			return nil, err
		}
	}
	report(e, res)
	return res, nil
}

// traceMetrics adds the recorder's own figures: span count, what
// recording cost, and throughput against the last untraced run of the
// same workload in this directory (0 when there is none).
func traceMetrics(e *env, out *outcome, baseline string) {
	n := e.rec.len()
	out.layer["trace.spans"] = float64(n)
	out.layer["trace.recorder_overhead_pct"] = 100 * ratio(float64(n)*spanCostNs(), float64(out.window))
	if base := loadBaseline(baseline); base > 0 {
		out.layer["trace.vs_untraced_pct"] = 100 * (base - out.e2e["throughput_per_s"]) / base
	}
}

func saveBaseline(path string, throughput float64) {
	data, _ := json.Marshal(map[string]float64{"throughput_per_s": throughput})
	// Best effort: a missing baseline only zeroes trace.vs_untraced_pct.
	_ = os.WriteFile(path, data, 0o644)
}

func loadBaseline(path string) float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	var m map[string]float64
	if json.Unmarshal(data, &m) != nil {
		return 0
	}
	return m["throughput_per_s"]
}

// report prints the human-readable table.
func report(e *env, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	e.logf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		e.logf("  %-46s %14.4f %s", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "repl_stream, maint_online or value_refresh")
	seed := fs.Int64("seed", 1, "workload seed")
	secs := fs.Float64("seconds", 25, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch, span and baseline directory")
	rate := fs.Float64("rate", fullSize.ReplRate, "repl_stream phase-2 statements per second (for finding the knee)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// A wedged pipeline must fail the run, not hang its caller.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d\n", *wl, *seed, *secs, *trace)
	size := fullSize
	size.ReplRate = *rate
	res, err := runBenchmark(config{
		Workload: *wl, Seed: *seed, Seconds: *secs, Trace: *trace == 1,
		Size: size, Dir: *dir, Log: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
