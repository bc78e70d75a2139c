package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"opdelta/internal/obs"
)

// TestLiveMetricsScrape is the CI scrape gate: it builds the daemon,
// boots the live pipeline with -metrics, scrapes /metrics while the
// integration is running, and fails on malformed exposition lines or on
// any of the acceptance series (freshness lag, queue depth, WAL fsync
// latency, pool hit ratio, lock grants) missing or zero. It also pulls
// /debug/spanz and asserts every completed trace is one monotone,
// contiguous span chain capture -> queue -> lock -> apply -> durable.
func TestLiveMetricsScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the daemon binary")
	}
	work := t.TempDir()
	bin := filepath.Join(work, "opdeltad")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin,
		"-live",
		"-src", filepath.Join(work, "src"),
		"-out", filepath.Join(work, "out"),
		"-metrics", "127.0.0.1:0",
		"-loadgen", "400",
		"-duration", "30s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}()

	// The daemon prints the resolved URL ("-metrics 127.0.0.1:0" picks a
	// free port) as its first line.
	var base string
	lines := bufio.NewScanner(stdout)
	if !lines.Scan() {
		t.Fatal("daemon exited before printing the metrics URL")
	}
	first := lines.Text()
	if i := strings.Index(first, "http://"); i < 0 {
		t.Fatalf("no metrics URL in %q", first)
	} else {
		base = strings.TrimSuffix(strings.Fields(first[i:])[0], "/metrics")
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	// Poll until the pipeline has completed traces, then hold that scrape.
	var body []byte
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no completed traces before deadline; last scrape:\n%s", body)
		}
		time.Sleep(300 * time.Millisecond)
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			continue
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		if v, ok := sampleValue(body, "span_e2e_seconds_count"); ok && v > 0 {
			break
		}
	}

	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}

	mustPositive := []string{
		"spans_recorded_total",
		"span_e2e_seconds_count",
		"span_e2e_seconds_sum",
		"opdelta_captured_total",
		"transport_queue_appends_total",
		`wal_fsync_seconds_count{db="wh"}`,
		`wal_group_commit_cohort_records_count{db="wh"}`,
		`txn_lock_grants_total{db="wh"}`,
		`warehouse_apply_txns_total{integrator="parallel"}`,
	}
	for _, name := range mustPositive {
		v, ok := sampleValue(body, name)
		if !ok {
			t.Errorf("series %s missing from scrape", name)
		} else if v <= 0 {
			t.Errorf("series %s = %v, want > 0", name, v)
		}
	}
	if v, ok := sampleValue(body, `storage_pool_hit_ratio{db="wh",pool="parts"}`); !ok || v <= 0 {
		t.Errorf("storage_pool_hit_ratio{db=wh,pool=parts} = %v (present=%v), want > 0", v, ok)
	}

	// Queue depth oscillates with the applier's drain cadence; require a
	// non-zero reading within a few scrapes rather than at one instant.
	depthSeen := false
	for i := 0; i < 20 && !depthSeen; i++ {
		resp, err := http.Get(base + "/metrics")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if v, ok := sampleValue(b, "transport_queue_depth_bytes"); ok && v > 0 {
				depthSeen = true
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !depthSeen {
		t.Error("transport_queue_depth_bytes never read > 0 during the run")
	}

	// Every completed trace must be stamped in pipeline order. A trace's
	// spans enter the ring together, and the newest 64 traces (5 spans
	// each) fit in the 512-span ring, so each one is whole.
	resp, err := http.Get(base + "/debug/spanz?n=64")
	if err != nil {
		t.Fatal(err)
	}
	var dz struct {
		Traces []liveTrace `json:"traces"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(dz.Traces) == 0 {
		t.Fatal("/debug/spanz returned no traces")
	}
	for _, tr := range dz.Traces {
		assertMonotoneTrace(t, tr)
	}
}

// sampleValue finds the sample whose name (with labels, if any) is
// exactly prefix and returns its value.
func sampleValue(body []byte, prefix string) (float64, bool) {
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok || !strings.HasPrefix(rest, " ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err == nil {
			return v, true
		}
	}
	return 0, false
}

// liveTrace is one trace of the /debug/spanz JSON document.
type liveTrace struct {
	Seq   uint64 `json:"seq"`
	Spans []struct {
		SpanID   string `json:"span_id"`
		ParentID string `json:"parent_id"`
		Name     string `json:"name"`
		StartNs  int64  `json:"start_unix_ns"`
		EndNs    int64  `json:"end_unix_ns"`
	} `json:"spans"`
}

// assertMonotoneTrace checks one trace's spans cover every stage in
// pipeline order, each parented on and starting where the one before
// ended, so the chain spans the whole capture->durable freshness lag.
func assertMonotoneTrace(t *testing.T, tr liveTrace) {
	t.Helper()
	stages := []string{"capture", "queue", "lock", "apply", "durable"}
	if len(tr.Spans) != len(stages) {
		t.Errorf("trace seq=%d has %d spans, want %d", tr.Seq, len(tr.Spans), len(stages))
		return
	}
	for i, sp := range tr.Spans {
		if sp.Name != stages[i] {
			t.Errorf("trace seq=%d span %d is %s, want %s", tr.Seq, i, sp.Name, stages[i])
			return
		}
		if sp.StartNs == 0 || sp.EndNs < sp.StartNs {
			t.Errorf("trace seq=%d: %s spans %d..%d", tr.Seq, sp.Name, sp.StartNs, sp.EndNs)
		}
		if i == 0 {
			if sp.ParentID != "" {
				t.Errorf("trace seq=%d: capture span has parent %s", tr.Seq, sp.ParentID)
			}
			continue
		}
		if prev := tr.Spans[i-1]; sp.ParentID != prev.SpanID || sp.StartNs != prev.EndNs {
			t.Errorf("trace seq=%d: %s (parent %s, start %d) not chained to %s (id %s, end %d)",
				tr.Seq, sp.Name, sp.ParentID, sp.StartNs, prev.Name, prev.SpanID, prev.EndNs)
		}
	}
}
