package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"opdelta/internal/engine"
)

// benchmarkFile is the part of BENCHMARK.json the tests check the
// program against.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyRun(t *testing.T, workload string, trace bool, tamper func(*engine.DB) error) *result {
	t.Helper()
	res, err := runBenchmark(config{
		Workload: workload, Seed: 7, Seconds: 0.5, Trace: trace,
		Size: tinySize, Dir: t.TempDir(), Tamper: tamper,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkMetrics requires exactly the named metrics, each with its unit.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("got %d metrics %v, want %d", len(got), names, len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, want %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// TestCatalogMatchesBenchmarkFile keeps the program's metric names and
// workloads in step with BENCHMARK.json.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(code))
		}
		units := map[string]string{}
		for _, d := range code {
			units[d.Name] = d.Unit
		}
		for _, m := range file {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, program has unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, e2eMetrics)
	check("per_layer", bf.PerLayer, layerMetrics)
}

// TestWorkloadsTiny runs every workload at tiny size in both modes: the
// gate passes, nothing fails, and every named metric is printed with
// its unit. End-to-end metrics must be nonzero.
func TestWorkloadsTiny(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res := tinyRun(t, w.Name, trace, nil)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				if !trace {
					checkMetrics(t, res.Metrics, bf.EndToEnd)
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, m.Value)
						}
					}
				} else {
					checkMetrics(t, res.Metrics, bf.PerLayer)
				}
			}
		})
	}
}

// TestGateFailsOnTamperedReplica proves the correctness gate bites: one
// changed replica row makes the run incorrect.
func TestGateFailsOnTamperedReplica(t *testing.T) {
	tamper := func(wh *engine.DB) error {
		_, err := wh.Exec(nil, "UPDATE parts SET status = 'tampered' WHERE part_id = 1")
		return err
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			if res := tinyRun(t, name, false, tamper); res.Correct {
				t.Fatal("gate passed on a tampered replica")
			}
		})
	}
}

// TestRepeatablePass checks the maint_online stream's premise: one
// captured pass leaves the same table however often it runs.
func TestRepeatablePass(t *testing.T) {
	db, err := engine.Open(t.TempDir(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := createParts(db, tinySize.MaintRows); err != nil {
		t.Fatal(err)
	}
	pass := maintPass(3, tinySize)
	var digests []string
	for round := 0; round < 2; round++ {
		for _, txn := range pass {
			for _, sql := range txn {
				if _, err := db.Exec(nil, sql); err != nil {
					t.Fatalf("round %d: %s: %v", round, sql, err)
				}
			}
		}
		d, err := tableDigest(db, "parts")
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	if digests[0] != digests[1] {
		t.Fatalf("pass is not repeatable: %s then %s", digests[0], digests[1])
	}
}
