package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"opdelta/internal/engine"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	"opdelta/internal/transport"
	"opdelta/internal/wal"
	"opdelta/internal/warehouse"
)

// diagOpts carries the diagnostics flags shared by every long-running
// mode: head-sampling rate and slow-trace threshold for the span
// tracer, and whether to mount net/http/pprof on the metrics mux.
type diagOpts struct {
	pprof       bool
	traceSample int
	slowSpan    time.Duration
}

// newSpanTracer builds the process's span tracer from the diagnostics
// flags, with slow traces logged to stdout.
func newSpanTracer(reg *obs.Registry, d diagOpts) *obs.SpanTracer {
	spans := obs.NewSpanTracer(reg, 512)
	spans.SetSampleEvery(d.traceSample)
	spans.SetSlowThreshold(d.slowSpan)
	spans.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	return spans
}

// serveObs starts the metrics endpoint and prints the resolved URL (so
// "-metrics 127.0.0.1:0" callers — tests, CI — learn the picked port).
// With pprofOn the mux additionally serves net/http/pprof profiles
// under /debug/pprof/.
func serveObs(addr string, reg *obs.Registry, spans *obs.SpanTracer, pprofOn bool) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	url := fmt.Sprintf("http://%s", ln.Addr())
	fmt.Printf("opdeltad: serving %s/metrics and %s/debug/spanz\n", url, url)
	var h http.Handler = obs.Handler(reg, spans)
	if pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", h)
		h = mux
		fmt.Printf("opdeltad: pprof enabled under %s/debug/pprof/\n", url)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return url, nil
}

// runLive drives the whole delta pipeline inside one process: a load
// generator issues DML against the source through the Op-Delta capture
// wrapper, a shipper reads the op log and appends encoded ops to the
// persistent transport queue, and an applier drains the queue into a
// warehouse (replica + projection view) through the parallel
// integrator. Every op carries a trace — captured, enqueued,
// dequeued, locked, applied, durable — so /metrics reports live
// freshness lag and per-stage latency while the pipeline runs, and
// sampled ops' span chains land in /debug/spanz.
func runLive(srcDir, outDir, metricsAddr string, rate int, duration time.Duration, d diagOpts) error {
	reg := obs.Default()
	spans := newSpanTracer(reg, d)
	if metricsAddr != "" {
		if _, err := serveObs(metricsAddr, reg, spans, d.pprof); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	// Full-durability commits on both ends: every commit waits for a WAL
	// fsync (group-committed across the parallel appliers), which is the
	// configuration the cohort-size and fsync-latency histograms are
	// meant to characterize.
	src, err := engine.Open(srcDir, engine.Options{Obs: reg, ObsDB: "src", WALSync: wal.SyncFull})
	if err != nil {
		return err
	}
	defer src.Close()
	if _, err := src.Table("parts"); err != nil {
		const ddl = `CREATE TABLE parts (
			part_id BIGINT NOT NULL, status VARCHAR, qty BIGINT, last_modified TIMESTAMP
		) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`
		if _, err := src.Exec(nil, ddl); err != nil {
			return err
		}
	}
	tbl, err := src.Table("parts")
	if err != nil {
		return err
	}
	view := opdelta.ViewDef{
		Name: "slim_parts", Source: "parts",
		Project:  []string{"part_id", "status"},
		SourcePK: "part_id", SourceTS: "last_modified",
	}
	oplog, err := opdelta.NewTableLog(src)
	if err != nil {
		return err
	}
	capture := &opdelta.Capture{DB: src, Log: oplog, Analyzer: opdelta.NewAnalyzer(view), Obs: reg}

	queue, err := transport.OpenQueueObs(nil, filepath.Join(outDir, "queue"), reg)
	if err != nil {
		return err
	}
	defer queue.Close()

	whDB, err := engine.Open(filepath.Join(outDir, "wh"), engine.Options{Obs: reg, ObsDB: "wh", WALSync: wal.SyncFull})
	if err != nil {
		return err
	}
	defer whDB.Close()
	wh := warehouse.New(whDB)
	if err := wh.RegisterReplica("parts", tbl.Schema, "part_id", "last_modified"); err != nil {
		return err
	}
	if _, err := wh.RegisterView(view, tbl.Schema, nil); err != nil {
		return err
	}
	integ := &warehouse.ParallelIntegrator{W: wh, Workers: 4}

	if rate <= 0 {
		rate = 200
	}
	stop := make(chan struct{})
	var stopOnce sync.Once
	cancel := func() { stopOnce.Do(func() { close(stop) }) }
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}

	// In-flight traces keyed by op Seq: Op.Trace does not survive the
	// queue's Encode/DecodeOp round trip, so the applier re-attaches by
	// sequence number.
	var traces sync.Map

	var wg sync.WaitGroup

	// Load generator: inserts with occasional PK-targeted updates and
	// deletes, all bounded footprints so the parallel integrator's
	// key-range locking gets exercised.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(time.Second / time.Duration(rate))
		defer ticker.Stop()
		id := 0
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			id++
			stmt := fmt.Sprintf(`INSERT INTO parts (part_id, status, qty) VALUES (%d, 'new', %d)`, id, id%1000)
			switch {
			case id%8 == 0:
				stmt = fmt.Sprintf(`UPDATE parts SET status = 'hot' WHERE part_id = %d`, id-4)
			case id%16 == 9:
				stmt = fmt.Sprintf(`DELETE FROM parts WHERE part_id = %d`, id-8)
			}
			if _, err := capture.Exec(nil, stmt); err != nil {
				fail(err)
				return
			}
		}
	}()

	// Shipper: tail the op log, begin each op's trace at its capture
	// timestamp, and append the encoded op to the queue.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		var cursor uint64
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			ops, err := oplog.Read(cursor)
			if err != nil {
				fail(err)
				return
			}
			for _, op := range ops {
				// Single-process spans: same stages as the networked
				// pipeline minus the wire, so /debug/spanz and the
				// slow-span log work identically in live mode. No clock
				// skew to correct — capture and apply share one clock.
				tid := obs.TraceID("live", op.Seq)
				if !spans.Sampled(tid) {
					tid = 0
				}
				tr := spans.Begin("live", op.Seq, obs.TraceContext{TraceID: tid, CaptureUnixNs: op.Time.UnixNano()})
				// Stamp and publish the trace before the append: the
				// applier can dequeue the instant Append lands, and a
				// post-append stamp would race it backwards.
				tr.Enqueued()
				traces.Store(op.Seq, tr)
				enc, err := op.Encode(nil, tbl.Schema)
				if err != nil {
					fail(err)
					return
				}
				if err := queue.Append(enc); err != nil {
					fail(err)
					return
				}
				cursor = op.Seq
			}
		}
	}()

	// Applier: drain the queue in batches into the warehouse. The
	// integrator stamps locked/applied/durable and completes each trace.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var batch []*opdelta.Op
			for len(batch) < 256 {
				msg, err := queue.Next()
				if errors.Is(err, transport.ErrEmpty) {
					break
				}
				if err != nil {
					fail(err)
					return
				}
				op, _, err := opdelta.DecodeOp(msg, tbl.Schema)
				if err != nil {
					fail(err)
					return
				}
				if v, ok := traces.LoadAndDelete(op.Seq); ok {
					op.Trace = v.(*obs.Trace)
					op.Trace.Dequeued()
				}
				batch = append(batch, op)
			}
			if len(batch) == 0 {
				// Let a few source transactions accumulate: batches give
				// the conflict scheduler something to overlap, and the
				// queue holds a visible (non-zero) depth between drains.
				time.Sleep(20 * time.Millisecond)
				continue
			}
			if _, err := integ.Apply(batch); err != nil {
				fail(err)
				return
			}
			if err := queue.Ack(); err != nil {
				fail(err)
				return
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	var timeout <-chan time.Time
	if duration > 0 {
		t := time.NewTimer(duration)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-sig:
	case <-timeout:
	case <-stop:
	}
	cancel()
	wg.Wait()

	snap := reg.Snapshot()
	captured, applied, traced := 0.0, 0.0, 0.0
	if m := snap.Get("opdelta_captured_total"); m != nil {
		captured = m.Value
	}
	if m := snap.Get("warehouse_apply_txns_total", obs.L("integrator", "parallel")); m != nil {
		applied = m.Value
	}
	if m := snap.Get("span_e2e_seconds"); m != nil {
		traced = float64(m.Count)
	}
	fmt.Printf("opdeltad: live pipeline done: %d ops captured, %d warehouse txns applied, %d ops traced\n",
		int(captured), int(applied), int(traced))
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}
