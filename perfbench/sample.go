package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/opdelta"
)

// procSample is the process's CPU and allocator counters at one point.
type procSample struct {
	cpu     time.Duration
	mallocs uint64
	pauseNs uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{cpu: cpu, mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}

// procMetrics sets the proc.* layer metrics for the window between two
// samples; ops is the workload's throughput unit counted over it.
func procMetrics(m metricSet, a, b procSample, ops float64) {
	m["proc.cpu_ms_per_op"] = ratio(float64(b.cpu-a.cpu)/1e6, ops)
	m["proc.allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), ops)
	m["proc.gc_pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// engineSample reads an engine's public stat counters.
type engineSample struct {
	lockWaits, logLockWaits uint64
	lockWait, logLockWait   time.Duration
	syncs                   uint64
	hits, misses, evictions uint64
}

func sampleEngine(db *engine.DB) engineSample {
	var s engineSample
	for name, ls := range db.LockTableStats() {
		s.lockWaits += ls.Waits
		s.lockWait += ls.WaitTime
		if name == opdelta.TableLogName {
			s.logLockWaits += ls.Waits
			s.logLockWait += ls.WaitTime
		}
	}
	s.syncs = db.WAL().Stats().Syncs
	for _, name := range db.Tables() {
		t, err := db.Table(name)
		if err != nil {
			continue // dropped since Tables listed it
		}
		ps := t.Heap().Pool().Stats()
		s.hits += ps.Hits
		s.misses += ps.Misses
		s.evictions += ps.Evictions
	}
	return s
}

// engineMetrics sets the txn, wal and storage layer metrics of one
// engine ("src" or "wh") for the window between two samples; commits
// counts the transactions the benchmark committed on it meanwhile.
func engineMetrics(m metricSet, role string, a, b engineSample, commits int) {
	m["txn."+role+"_lock_waits"] = float64(b.lockWaits - a.lockWaits)
	m["txn."+role+"_lock_wait_ms"] = float64(b.lockWait-a.lockWait) / 1e6
	if role == "src" {
		m["txn.src_lock_waits_oplog"] = float64(b.logLockWaits - a.logLockWaits)
		m["txn.src_lock_wait_ms_oplog"] = float64(b.logLockWait-a.logLockWait) / 1e6
	}
	m["wal."+role+"_commits_per_sync"] = ratio(float64(commits), float64(b.syncs-a.syncs))
	hits, misses := float64(b.hits-a.hits), float64(b.misses-a.misses)
	m["storage."+role+"_pool_hit_ratio"] = ratio(hits, hits+misses)
	m["storage."+role+"_pool_evictions"] = float64(b.evictions - a.evictions)
}

// tableDigest fingerprints a table's rows independent of storage order.
// The engine-maintained timestamp column is left out: each engine stamps
// it from its own clock, so it legitimately differs between a source
// and its replica.
func tableDigest(db *engine.DB, table string) (string, error) {
	t, err := db.Table(table)
	if err != nil {
		return "", err
	}
	var rows []string
	var b strings.Builder
	err = db.ScanTable(nil, table, func(row catalog.Tuple) error {
		b.Reset()
		for i, v := range row {
			if i == t.TSCol {
				continue
			}
			b.WriteString(v.String())
			b.WriteByte('\t')
		}
		rows = append(rows, b.String())
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(rows)
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%d:%x", len(rows), h.Sum(nil)[:8]), nil
}

// replicaMatches is the correctness gate: the replica's digest must
// equal the source's.
func replicaMatches(src, wh *engine.DB, table string) (bool, string, error) {
	ds, err := tableDigest(src, table)
	if err != nil {
		return false, "", err
	}
	dw, err := tableDigest(wh, table)
	if err != nil {
		return false, "", err
	}
	return ds == dw, fmt.Sprintf("source %s, replica %s", ds, dw), nil
}
