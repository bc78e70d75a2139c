package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"opdelta/internal/engine"
	"opdelta/internal/extract"
	"opdelta/internal/wal"
	"opdelta/internal/warehouse"
	"opdelta/internal/workload"
)

// value_refresh: the paper's value-delta baseline. Each cycle changes a
// source several times the buffer pool with range UPDATEs and one
// multi-row INSERT (no deletes: timestamps cannot see them), scans the
// delta out with TimestampExtractor, and applies it as one batch
// through ValueDeltaIntegrator at SyncFull. There is no op capture and
// no dependency DAG; extraction's locked heap scan does the work.

type refreshRun struct {
	src, wh *engine.DB
	vdi     *warehouse.ValueDeltaIntegrator
	ext     *extract.TimestampExtractor
}

func (r *refreshRun) close() {
	closeDB(r.src)
	closeDB(r.wh)
}

func setupRefresh(e *env, dir string) (r *refreshRun, err error) {
	sz := e.cfg.Size
	r = &refreshRun{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.src, err = engine.Open(filepath.Join(dir, "src"), engine.Options{WALSync: wal.SyncFull}); err != nil {
		return r, err
	}
	if err = createParts(r.src, sz.RefreshRows); err != nil {
		return r, err
	}
	if r.wh, err = engine.Open(filepath.Join(dir, "wh"), engine.Options{WALSync: wal.SyncFull}); err != nil {
		return r, err
	}
	w, err := newReplica(r.wh, sz.RefreshRows)
	if err != nil {
		return r, err
	}
	r.vdi = &warehouse.ValueDeltaIntegrator{W: w}
	// Every loaded row is already in the replica: extraction starts past
	// the load's timestamps.
	r.ext = &extract.TimestampExtractor{DB: r.src, Table: "parts", Since: r.src.Now()}
	return r, nil
}

// refreshGen issues the cycles' change batches.
type refreshGen struct {
	rng   *rand.Rand
	sz    sizes
	next  int64 // next fresh id
	cycle int
}

func (g *refreshGen) batch() []string {
	var out []string
	for i := 0; i < g.sz.RefreshUpdates; i++ {
		k := g.sz.RefreshMaxRows/6 + g.rng.Intn(g.sz.RefreshMaxRows-g.sz.RefreshMaxRows/6+1)
		first := g.rng.Intn(g.sz.RefreshRows - k + 1)
		out = append(out, workload.UpdateStmt(int64(first), k, fmt.Sprintf("c%d_%d", g.cycle, i)))
	}
	k := 20 + g.rng.Intn(61)
	out = append(out, workload.InsertStmt(g.next, k))
	g.next += int64(k)
	g.cycle++
	return out
}

func runRefresh(e *env) (*outcome, error) {
	sz := e.cfg.Size
	r, setupS, err := setUp(e, setupRefresh)
	if err != nil {
		return nil, err
	}
	defer r.close()
	gen := &refreshGen{rng: rand.New(rand.NewSource(e.cfg.Seed)), sz: sz, next: int64(sz.RefreshRows)}

	type change struct {
		at   time.Time
		rows int64
	}
	var opLat, lags, cycleRates []float64
	var deltaRows, scanned, valueStmts int64
	var refreshTime time.Duration
	attempted, failed, srcCommits, cycles := 0, 0, 0, 0
	var cycleErr error
	proc0, src0, wh0 := sampleProc(), sampleEngine(r.src), sampleEngine(r.wh)
	t0 := time.Now()
	for time.Since(t0) < e.seconds() && cycleErr == nil {
		stmts := gen.batch()
		cycleStart := time.Now()
		var changes []change
		var writes [][2]int64
		for _, sql := range stmts {
			attempted++
			start := time.Now()
			res, err := r.src.Exec(nil, sql)
			end := time.Now()
			if err != nil {
				failed++
				e.logf("source statement failed: %v", err)
				continue
			}
			srcCommits++
			opLat = append(opLat, float64(end.Sub(start))/1e6)
			changes = append(changes, change{end, res.RowsAffected})
			writes = append(writes, [2]int64{start.UnixNano(), end.UnixNano()})
		}
		attempted++ // the refresh itself
		x0 := time.Now()
		var sink extract.CollectSink
		n, err := r.ext.Extract(&sink)
		x1 := time.Now()
		if err != nil {
			cycleErr = fmt.Errorf("extract: %w", err)
			break
		}
		t, err := r.src.Table("parts")
		if err != nil {
			cycleErr = err
			break
		}
		scanned += t.NumRows()
		st, err := r.vdi.Apply(sink.Deltas)
		x2 := time.Now()
		if err != nil {
			cycleErr = fmt.Errorf("value apply: %w", err)
			break
		}
		deltaRows += int64(n)
		valueStmts += int64(st.Statements)
		refreshTime += x2.Sub(x0)
		cycleRates = append(cycleRates, float64(n)/x2.Sub(x0).Seconds())
		for _, c := range changes {
			lag := float64(x2.Sub(c.at)) / 1e6
			for i := int64(0); i < c.rows; i++ {
				lags = append(lags, lag)
			}
		}
		cycles++
		if e.rec != nil {
			root := e.rec.add("refresh.cycle", 0, 0, cycleStart.UnixNano(), x2.UnixNano())
			for _, w := range writes {
				e.rec.add("engine.source_write", root, 0, w[0], w[1])
			}
			e.rec.add("extract.timestamp", root, 0, x0.UnixNano(), x1.UnixNano())
			e.rec.add("warehouse.value_apply", root, 0, x1.UnixNano(), x2.UnixNano())
		}
	}
	window := time.Since(t0)
	proc1, src1, wh1 := sampleProc(), sampleEngine(r.src), sampleEngine(r.wh)
	if cycleErr != nil {
		e.logf("cycle %d: %v", cycles, cycleErr)
		failed++
	}
	e.logf("%d refresh cycles, %d delta rows in %v of extract+apply", cycles, deltaRows, refreshTime)

	out := &outcome{
		e2e: metricSet{"setup_s": setupS}, layer: metricSet{},
		tails:     map[string]int{},
		window:    window,
		attempted: int64(attempted), failed: int64(failed),
	}
	if e.cfg.Tamper != nil {
		if err := e.cfg.Tamper(r.wh); err != nil {
			return nil, err
		}
	}
	ok, detail, err := replicaMatches(r.src, r.wh, "parts")
	if err != nil {
		return nil, err
	}
	e.logf("gate: %s", detail)
	out.correct = ok && cycleErr == nil

	// The median cycle's delta rows over its extract and apply time.
	out.e2e["throughput_per_s"] = median(cycleRates)
	e.setOpLatency(out, "source write ms", opLat)
	e.setLag(out, "lag ms", lags)

	if e.rec != nil {
		l := out.layer
		agg := e.rec.aggregate()
		l["engine.source_write.busy_ms"] = selfMs(agg, "engine.source_write")
		l["extract.timestamp.busy_ms"] = selfMs(agg, "extract.timestamp")
		l["extract.timestamp.rows_scanned_per_delta_row"] = ratio(float64(scanned), float64(deltaRows))
		l["warehouse.value_apply.busy_ms"] = selfMs(agg, "warehouse.value_apply")
		l["warehouse.value_apply.statements"] = float64(valueStmts)
		engineMetrics(l, "src", src0, src1, srcCommits)
		engineMetrics(l, "wh", wh0, wh1, cycles)
		procMetrics(l, proc0, proc1, float64(deltaRows))
	}
	return out, nil
}
