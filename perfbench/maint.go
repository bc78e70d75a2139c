package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"opdelta/internal/engine"
	"opdelta/internal/opdelta"
	"opdelta/internal/wal"
	"opdelta/internal/warehouse"
	"opdelta/internal/workload"
)

// maint_online: bulk warehouse maintenance with a reader. A replica
// several times the buffer pool absorbs a captured stream of multi-row
// source transactions through ParallelIntegrator in 256-op calls while
// one closed-loop client runs MVCC snapshot stripe scans. Capture, wire
// and queue are out of the measured window; per-row execution, pool
// misses, version stamping and snapshot reads do the work.
//
// The stream is one captured pass whose net effect does not depend on
// how many times it ran: UPDATEs set constants, and every range a pass
// deletes it re-inserts later (or inserts and later deletes). The
// warehouse applies the pass back to back until the run's seconds are
// spent, so a short set-up feeds a window of any length and the replica
// still ends equal to the source, which ran the pass once.

// maxInsertRows bounds a captured multi-row INSERT: the op log keeps
// each statement's text in one row, which must fit in a page.
const maxInsertRows = 50

type maintRun struct {
	src, wh *engine.DB
	integ   *warehouse.ParallelIntegrator
	ops     []*opdelta.Op
	rows    []int64 // source rows each op affected
}

func (m *maintRun) close() {
	closeDB(m.src)
	closeDB(m.wh)
}

// maintPass builds one pass of source transactions of 1-2 statements:
// mostly range UPDATEs of a few hundred rows inside a PK stripe, plus
// delete/re-insert pairs on existing ranges and insert/delete pairs on
// fresh ranges past the table's end. Pair ranges are disjoint, and the
// second statement of a pair always comes after the first.
func maintPass(seed int64, sz sizes) [][]string {
	rng := rand.New(rand.NewSource(seed))
	stripes := sz.MaintRows / sz.MaintStripe
	nStmts := sz.MaintTxns * 3 / 2
	nPairs := nStmts / 20
	if nPairs > stripes {
		nPairs = stripes
	}
	span := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	var events []string
	for i := 0; i < nStmts-4*nPairs; i++ {
		k := span(sz.MaintMaxRows/4, sz.MaintMaxRows)
		first := rng.Intn(stripes)*sz.MaintStripe + rng.Intn(sz.MaintStripe-k+1)
		events = append(events, workload.UpdateStmt(int64(first), k, fmt.Sprintf("u%d", i)))
	}
	insertAt := func(pos int, s string) {
		events = append(events, "")
		copy(events[pos+1:], events[pos:])
		events[pos] = s
	}
	pair := func(first, second string) {
		p := rng.Intn(len(events) + 1)
		insertAt(p, first)
		insertAt(p+1+rng.Intn(len(events)-p), second)
	}
	for j, s := range rng.Perm(stripes)[:nPairs] {
		k := span(maxInsertRows/2, maxInsertRows)
		a := int64(s*sz.MaintStripe + rng.Intn(sz.MaintStripe-k+1))
		pair(workload.DeleteStmt(a, k), workload.InsertStmt(a, k))
		b := int64(sz.MaintRows + j*sz.MaintStripe)
		pair(workload.InsertStmt(b, k), workload.DeleteStmt(b, k))
	}
	var txns [][]string
	for i := 0; i < len(events); {
		k := 1 + rng.Intn(2)
		if i+k > len(events) {
			k = len(events) - i
		}
		txns = append(txns, events[i:i+k])
		i += k
	}
	return txns
}

func setupMaint(e *env, dir string) (m *maintRun, err error) {
	sz := e.cfg.Size
	m = &maintRun{}
	defer func() {
		if err != nil {
			m.close()
		}
	}()
	if m.src, err = engine.Open(filepath.Join(dir, "src"), engine.Options{}); err != nil {
		return m, err
	}
	if err = createParts(m.src, sz.MaintRows); err != nil {
		return m, err
	}
	oplog, err := opdelta.NewTableLog(m.src)
	if err != nil {
		return m, err
	}
	log := &seqLog{Log: oplog}
	capture := &opdelta.Capture{DB: m.src, Log: log}
	affected := map[uint64]int64{}
	for _, stmts := range maintPass(e.cfg.Seed, sz) {
		tx := m.src.Begin()
		for _, sql := range stmts {
			res, err := capture.Exec(tx, sql)
			if err != nil {
				tx.Abort()
				return m, fmt.Errorf("pass statement: %w", err)
			}
			affected[log.last] = res.RowsAffected
		}
		if err := tx.Commit(); err != nil {
			return m, err
		}
	}
	if m.ops, err = oplog.Read(0); err != nil {
		return m, err
	}
	for _, op := range m.ops {
		m.rows = append(m.rows, affected[op.Seq])
	}
	if m.wh, err = engine.Open(filepath.Join(dir, "wh"), engine.Options{WALSync: wal.SyncFull}); err != nil {
		return m, err
	}
	w, err := newReplica(m.wh, sz.MaintRows)
	if err != nil {
		return m, err
	}
	m.integ = &warehouse.ParallelIntegrator{W: w, Workers: 4}
	return m, nil
}

// readerResult is what the snapshot reader saw.
type readerResult struct {
	latMs   []float64
	staleMs []float64 // age of the oldest change each snapshot could not see
	rows    int
	failed  int
}

// read runs the closed-loop snapshot reader until stop closes: each
// query pins a snapshot and scans one seeded PK stripe. A pass's ops
// are all queued when it starts, so while a pass runs the oldest change
// a snapshot cannot see was queued at passStart.
func (m *maintRun) read(e *env, stop <-chan struct{}, passStart *atomic.Int64) readerResult {
	sz := e.cfg.Size
	rng := rand.New(rand.NewSource(e.cfg.Seed*7919 + 17))
	var res readerResult
	for {
		select {
		case <-stop:
			return res
		default:
		}
		first := int64(rng.Intn(sz.MaintRows - sz.ReadStripe + 1))
		start := time.Now()
		queued := passStart.Load()
		tx := m.wh.BeginSnapshot()
		_, rows, err := m.wh.Query(tx, workload.StripeScanStatement(first, sz.ReadStripe))
		if cerr := tx.Commit(); err == nil {
			err = cerr
		}
		if err != nil {
			res.failed++
			e.logf("snapshot read failed: %v", err)
			continue
		}
		e.rec.call("engine.snapshot_read", start)
		res.latMs = append(res.latMs, float64(time.Since(start))/1e6)
		res.staleMs = append(res.staleMs, float64(start.UnixNano()-queued)/1e6)
		res.rows += len(rows)
	}
}

func runMaint(e *env) (*outcome, error) {
	m, setupS, err := setUp(e, setupMaint)
	if err != nil {
		return nil, err
	}
	defer m.close()

	proc0, wh0 := sampleProc(), sampleEngine(m.wh)
	stop := make(chan struct{})
	var rd readerResult
	var wg sync.WaitGroup
	var passStart atomic.Int64
	passStart.Store(time.Now().UnixNano())
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd = m.read(e, stop, &passStart)
	}()

	var passRates []float64
	var rows, versionsPeak int64
	applied, failed, whTxns, passes := 0, 0, 0, 0
	t0 := time.Now()
apply:
	for time.Since(t0) < e.seconds() {
		start, passRows := time.Now(), rows
		passStart.Store(start.UnixNano())
		for i := 0; i < len(m.ops); i += applyBatchOps {
			j := i + applyBatchOps
			if j > len(m.ops) {
				j = len(m.ops)
			}
			start := time.Now()
			st, err := m.integ.Apply(m.ops[i:j])
			end := time.Now()
			if err != nil {
				e.logf("apply: %v", err)
				failed += j - i
				break apply
			}
			e.rec.add("warehouse.apply", 0, m.ops[j-1].Seq, start.UnixNano(), end.UnixNano())
			whTxns += st.Txns
			applied += j - i
			for k := i; k < j; k++ {
				rows += m.rows[k]
			}
			if v := m.wh.VersionCount(); v > versionsPeak {
				versionsPeak = v
			}
		}
		passes++
		passRates = append(passRates, float64(rows-passRows)/time.Since(start).Seconds())
	}
	window := time.Since(t0)
	close(stop)
	wg.Wait()
	proc1, wh1 := sampleProc(), sampleEngine(m.wh)
	e.logf("applied %d passes of %d ops (%d rows) in %v; %d snapshot reads", passes, len(m.ops), rows, window, len(rd.latMs))

	out := &outcome{
		e2e: metricSet{"setup_s": setupS}, layer: metricSet{},
		tails: map[string]int{}, window: window,
		attempted: int64(applied + failed + len(rd.latMs) + rd.failed),
		failed:    int64(failed + rd.failed),
	}
	if e.cfg.Tamper != nil {
		if err := e.cfg.Tamper(m.wh); err != nil {
			return nil, err
		}
	}
	ok, detail, err := replicaMatches(m.src, m.wh, "parts")
	if err != nil {
		return nil, err
	}
	e.logf("gate: %s", detail)
	out.correct = ok && failed == 0

	// The median pass rate: a pass is the unit the stream repeats in.
	out.e2e["throughput_per_s"] = median(passRates)
	e.setOpLatency(out, "snapshot read ms", rd.latMs)
	e.setLag(out, "staleness ms", rd.staleMs)

	if e.rec != nil {
		l := out.layer
		agg := e.rec.aggregate()
		applyDur := layerDurs(agg, "warehouse.apply")
		l["warehouse.apply.calls"] = float64(len(applyDur))
		l["warehouse.apply.busy_ms"] = selfMs(agg, "warehouse.apply")
		l["warehouse.apply.p99_ms"] = percentile(applyDur, 0.99)
		l["warehouse.apply.ops_per_call"] = ratio(float64(applied), float64(len(applyDur)))
		l["engine.snapshot_read.busy_ms"] = selfMs(agg, "engine.snapshot_read")
		l["engine.snapshot_read.rows_per_query"] = ratio(float64(rd.rows), float64(len(rd.latMs)))
		l["engine.mvcc.versions_peak"] = float64(versionsPeak)
		engineMetrics(l, "wh", wh0, wh1, whTxns)
		procMetrics(l, proc0, proc1, float64(rows))
	}
	return out, nil
}
