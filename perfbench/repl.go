package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"opdelta/internal/engine"
	"opdelta/internal/opdelta"
	"opdelta/internal/transport"
	netrepl "opdelta/internal/transport/net"
	"opdelta/internal/transport/retry"
	"opdelta/internal/wal"
	"opdelta/internal/warehouse"
	"opdelta/internal/workload"
)

// repl_stream: networked replication wired as opdeltad -ship and
// -serve wire it. Capture on a SyncFull source with a TableLog feeds a
// netrepl shipper, which streams over loopback TCP into a server topic;
// the benchmark drains the topic with the calls netrepl.Applier makes
// (Next, DecodeOpResolve, ParallelIntegrator.Apply, Ack) so it can
// stamp each op's durable apply. Phase 1 drains a backlog captured
// during set-up; phase 2 is an open loop of seeded Poisson arrivals at
// a fixed mean rate.
//
// Load comes from one client goroutine, as in opdeltad -ship. With two
// capturing clients the correctness gate failed now and then: TableLog
// assigns an op's seq before its row takes the log table's lock, so a
// later seq can commit first, the shipper's Read ships it, and the
// cursor passes the earlier op for good.

const (
	replSource    = "src"
	shipBatchOps  = 64  // ShipperConfig.BatchOps; also how many ops of a Fetch one DELTA carries
	applyBatchOps = 256 // ops per integrator call, as netrepl.Applier batches
	applyPoll     = 5 * time.Millisecond
	drainTimeout  = 30 * time.Second
)

// replGen issues the client's statements: single-row INSERTs of fresh
// ids plus PK UPDATEs and DELETEs of live ones, in opdeltad -ship's
// proportions (1/8 updates, 1/16 deletes).
type replGen struct {
	rng  *rand.Rand
	next int64
	live []int64
}

func newReplGen(seed int64, rows int) *replGen {
	g := &replGen{rng: rand.New(rand.NewSource(seed)), next: int64(rows)}
	for id := int64(0); id < int64(rows); id++ {
		g.live = append(g.live, id)
	}
	return g
}

func (g *replGen) stmt() string {
	r := g.rng.Intn(16)
	switch {
	case r < 2 && len(g.live) > 0:
		id := g.live[g.rng.Intn(len(g.live))]
		return fmt.Sprintf("UPDATE parts SET status = 'hot', qty = %d WHERE part_id = %d", g.rng.Intn(1000), id)
	case r < 3 && len(g.live) > 0:
		i := g.rng.Intn(len(g.live))
		id := g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		return fmt.Sprintf("DELETE FROM parts WHERE part_id = %d", id)
	default:
		id := g.next
		g.next++
		g.live = append(g.live, id)
		return workload.SingleInsertStmt(id)
	}
}

// seqLog is the op log as the client's Capture sees it: it forwards to
// the table log and keeps the seq of the last op, so the benchmark can
// tie a statement to the op it produced.
type seqLog struct {
	opdelta.Log
	last uint64
}

func (l *seqLog) Append(tx *engine.Tx, op *opdelta.Op) error {
	err := l.Log.Append(tx, op)
	l.last = op.Seq
	return err
}

// fetchRec is the Fetch call that last shipped an op.
type fetchRec struct {
	start, end int64
}

// applyRec is one integrator call.
type applyRec struct {
	start, end int64
	seqs       []uint64
	opTimes    []int64
}

// progressPoint is how many ops were applied by when.
type progressPoint struct {
	at  time.Time
	ops int64
}

// catchupSegment is the op count over which phase 1's catch-up rate is
// measured; throughput_per_s is the median over the segments.
const catchupSegment = 1000

// captureRec is one phase-2 statement's Capture.Exec call.
type captureRec struct {
	seq        uint64
	start, end int64
}

type replRun struct {
	e        *env
	src, wh  *engine.DB
	oplog    *opdelta.TableLog
	log      *seqLog
	capture  *opdelta.Capture
	gen      *replGen
	integ    *warehouse.ParallelIntegrator
	srv      *netrepl.Server
	lis      net.Listener
	served   chan error
	topic    *netrepl.Topic
	shipper  *netrepl.Shipper
	backlog  int
	lastPre  uint64 // last op seq captured during set-up
	applied  atomic.Uint64
	pipeErr  atomic.Pointer[error]
	whTxns   atomic.Int64
	whOps    atomic.Int64
	versions atomic.Int64 // peak replica version count

	mu       sync.Mutex // guards the fields below
	lags     []float64  // phase-2 op lag, ms
	progress []progressPoint
	applies  []applyRec // traced
	decoded  int        // ops Fetch returned
	shipped  int        // ops the shipper sent of them
	batches  int        // Fetch calls that shipped ops: one DELTA each
	// The server enqueues fresh ops in seq order, so the k-th op it
	// reports enqueued is the k-th distinct seq ever shipped.
	fetched  map[uint64]fetchRec
	order    []uint64
	enqAt    map[uint64]int64
	unmapped int // ops reported enqueued that were never seen shipped
}

func setupRepl(e *env, dir string) (r *replRun, err error) {
	sz := e.cfg.Size
	r = &replRun{e: e, fetched: map[uint64]fetchRec{}, enqAt: map[uint64]int64{}}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.src, err = engine.Open(filepath.Join(dir, "src"), engine.Options{WALSync: wal.SyncFull}); err != nil {
		return r, err
	}
	if err = createParts(r.src, sz.ReplRows); err != nil {
		return r, err
	}
	if r.oplog, err = opdelta.NewTableLog(r.src); err != nil {
		return r, err
	}
	view := opdelta.ViewDef{
		Name: "slim_parts", Source: "parts",
		Project:  []string{"part_id", "status"},
		SourcePK: "part_id", SourceTS: "last_modified",
	}
	r.log = &seqLog{Log: r.oplog}
	r.capture = &opdelta.Capture{DB: r.src, Log: r.log, Analyzer: opdelta.NewAnalyzer(view)}
	r.gen = newReplGen(e.cfg.Seed, sz.ReplRows)
	for i := 0; i < sz.ReplBacklog; i++ {
		if _, err = r.capture.Exec(nil, r.gen.stmt()); err != nil {
			return r, fmt.Errorf("backlog statement: %w", err)
		}
	}
	r.backlog = sz.ReplBacklog
	r.lastPre = r.oplog.Seq()

	if r.wh, err = engine.Open(filepath.Join(dir, "wh"), engine.Options{WALSync: wal.SyncFull}); err != nil {
		return r, err
	}
	w, err := newReplica(r.wh, sz.ReplRows)
	if err != nil {
		return r, err
	}
	applied, err := warehouse.EnsureAppliedLog(w)
	if err != nil {
		return r, err
	}
	r.integ = &warehouse.ParallelIntegrator{W: w, Workers: 4, Applied: applied}

	r.srv = netrepl.NewServer(netrepl.ServerConfig{Dir: filepath.Join(dir, "topics"), OnEnqueue: r.onEnqueue})
	if r.lis, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return r, err
	}
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(r.lis) }()
	if r.topic, err = r.srv.Topic(replSource); err != nil {
		return r, err
	}
	addr := r.lis.Addr().String()
	r.shipper = netrepl.NewShipper(netrepl.ShipperConfig{
		Source:   replSource,
		Dial:     func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 2*time.Second) },
		Fetch:    r.fetch,
		SchemaOf: schemaOf(r.src),
		Snapshot: &opdelta.Snapshotter{DB: r.src, Log: r.oplog, Tables: []string{"parts"}},
		BatchOps: shipBatchOps,
		Retry:    retry.Policy{Base: 50 * time.Millisecond, Cap: 2 * time.Second, Multiplier: 2, Jitter: 0.5},
	})
	return r, nil
}

func (r *replRun) close() {
	if r.srv != nil {
		r.srv.Shutdown()
	}
	if r.lis != nil {
		r.lis.Close()
		<-r.served
	}
	closeDB(r.src)
	closeDB(r.wh)
}

// fetch is the shipper's Fetch: TableLog.Read, timed when tracing.
func (r *replRun) fetch(from uint64) ([]*opdelta.Op, error) {
	if r.e.rec == nil {
		return r.oplog.Read(from)
	}
	start := time.Now().UnixNano()
	ops, err := r.oplog.Read(from)
	end := time.Now().UnixNano()
	n := len(ops)
	if n > shipBatchOps {
		n = shipBatchOps
	}
	var last uint64
	if n > 0 {
		last = ops[n-1].Seq
	}
	r.e.rec.add("opdelta.log_read", 0, last, start, end)
	r.mu.Lock()
	r.decoded += len(ops)
	r.shipped += n
	if n > 0 {
		r.batches++
	}
	for _, op := range ops[:n] {
		r.fetched[op.Seq] = fetchRec{start, end}
		if k := len(r.order); k == 0 || op.Seq > r.order[k-1] {
			r.order = append(r.order, op.Seq)
		}
	}
	r.mu.Unlock()
	return ops, err
}

// onEnqueue runs while the server holds the topic mutex: it only
// stamps the ops it reports and must never call Topic methods. The
// batch's ship-and-persist span runs from the Fetch return of its last
// op to here.
func (r *replRun) onEnqueue(_ string, ops int) {
	if r.e.rec == nil {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	k := len(r.enqAt)
	if k+ops > len(r.order) {
		r.unmapped += ops
		return
	}
	for _, seq := range r.order[k : k+ops] {
		r.enqAt[seq] = now
	}
	last := r.order[k+ops-1]
	r.e.rec.add("netrepl.ship_persist", 0, last, r.fetched[last].end, now)
}

// applyLoop drains the topic as netrepl.Applier.Run does, stamping the
// durable apply of every op. It returns once stop is closed and the
// topic is empty.
func (r *replRun) applyLoop(stop <-chan struct{}) error {
	resolve := schemaOf(r.wh)
	var batch []*opdelta.Op
	for {
		batch = batch[:0]
		for len(batch) < applyBatchOps {
			msg, err := r.topic.Q.Next()
			if errors.Is(err, transport.ErrEmpty) {
				break
			}
			if err != nil {
				return err
			}
			op, _, err := opdelta.DecodeOpResolve(msg, resolve)
			if err != nil {
				return err
			}
			batch = append(batch, op)
		}
		if len(batch) == 0 {
			select {
			case <-stop:
				return nil
			case <-time.After(applyPoll):
			}
			continue
		}
		start := time.Now()
		st, err := r.integ.Apply(batch)
		end := time.Now()
		if err != nil {
			return err
		}
		r.e.rec.add("warehouse.apply", 0, batch[len(batch)-1].Seq, start.UnixNano(), end.UnixNano())
		ack := time.Now()
		if err := r.topic.Q.Ack(); err != nil {
			return err
		}
		r.e.rec.call("transport.ack", ack)
		r.whTxns.Add(int64(st.Txns))
		total := r.whOps.Add(int64(len(batch)))
		if v := r.wh.VersionCount(); v > r.versions.Load() {
			r.versions.Store(v)
		}
		r.noteApplied(batch, start.UnixNano(), end, total)
	}
}

func (r *replRun) noteApplied(batch []*opdelta.Op, start int64, end time.Time, total int64) {
	var rec applyRec
	if r.e.rec != nil {
		rec = applyRec{start: start, end: end.UnixNano(), seqs: make([]uint64, len(batch)), opTimes: make([]int64, len(batch))}
	}
	r.mu.Lock()
	for i, op := range batch {
		if op.Seq > r.lastPre {
			r.lags = append(r.lags, float64(end.Sub(op.Time))/1e6)
		}
		if r.e.rec != nil {
			rec.seqs[i] = op.Seq
			rec.opTimes[i] = op.Time.UnixNano()
		}
	}
	if r.e.rec != nil {
		r.applies = append(r.applies, rec)
	}
	r.progress = append(r.progress, progressPoint{end, total})
	r.mu.Unlock()
	r.applied.Store(batch[len(batch)-1].Seq)
}

// catchupRate is phase 1's apply rate in ops per second: the median
// over consecutive segments of at least catchupSegment ops, or the
// whole backlog's rate when it is shorter than one segment.
func (r *replRun) catchupRate(t1 time.Time) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	rate := func(a, b progressPoint) float64 { return float64(b.ops-a.ops) / b.at.Sub(a.at).Seconds() }
	var rates []float64
	prev := progressPoint{t1, 0}
	for _, p := range r.progress {
		if p.ops >= int64(r.backlog) && len(rates) == 0 {
			return rate(progressPoint{t1, 0}, p)
		}
		if p.ops > int64(r.backlog) {
			break
		}
		if p.ops-prev.ops >= catchupSegment {
			rates = append(rates, rate(prev, p))
			prev = p
		}
	}
	return median(rates)
}

// waitApplied polls until the op with seq target is applied, the
// pipeline fails, or the timeout passes; the caller counts what is
// still unapplied.
func (r *replRun) waitApplied(target uint64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for r.applied.Load() < target && r.pipeErr.Load() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// clientResult is what the phase-2 client saw.
type clientResult struct {
	latMs    []float64 // due time to Capture.Exec return
	lateMax  time.Duration
	failed   int
	captures []captureRec // traced
}

// drive runs the phase-2 client: statement i is due at t0 + dues[i]
// and is timed from its due time.
func (r *replRun) drive(stmts []string, t0 time.Time, dues []time.Duration) clientResult {
	res := clientResult{latMs: make([]float64, 0, len(stmts))}
	for i, sql := range stmts {
		due := t0.Add(dues[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		start := time.Now()
		if late := start.Sub(due); late > res.lateMax {
			res.lateMax = late
		}
		_, err := r.capture.Exec(nil, sql)
		end := time.Now()
		if err != nil {
			res.failed++
			r.e.logf("statement failed: %v", err)
			continue
		}
		res.latMs = append(res.latMs, float64(end.Sub(due))/1e6)
		if r.e.rec != nil {
			res.captures = append(res.captures, captureRec{seq: r.log.last, start: start.UnixNano(), end: end.UnixNano()})
		}
	}
	return res
}

func runRepl(e *env) (*outcome, error) {
	sz := e.cfg.Size
	r, setupS, err := setUp(e, setupRepl)
	if err != nil {
		return nil, err
	}
	defer r.close()

	// Phase-2 statements and their due times are generated before
	// anything is timed. Arrivals are Poisson at the fixed mean rate:
	// fixed periods would let the generator lock phase with the
	// shipper's and applier's poll loops, and a run would settle in one
	// of several latency regimes.
	count := int(sz.ReplRate * e.cfg.Seconds)
	if count < 1 {
		count = 1
	}
	stmts := make([]string, count)
	dues := make([]time.Duration, count)
	var at float64
	for i := range stmts {
		stmts[i] = r.gen.stmt()
		dues[i] = time.Duration(at * float64(time.Second))
		at += r.gen.rng.ExpFloat64() / sz.ReplRate
	}

	proc0, src0, wh0 := sampleProc(), sampleEngine(r.src), sampleEngine(r.wh)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := func(err error) { r.pipeErr.CompareAndSwap(nil, &err) }
	wg.Add(2)
	t1 := time.Now()
	go func() {
		defer wg.Done()
		if err := r.shipper.Run(stop); err != nil {
			fail(fmt.Errorf("shipper: %w", err))
		}
	}()
	go func() {
		defer wg.Done()
		if err := r.applyLoop(stop); err != nil {
			fail(fmt.Errorf("applier: %w", err))
		}
	}()

	// Phase 1: catch up on the backlog.
	r.waitApplied(r.lastPre, drainTimeout)
	catchup := time.Since(t1)

	// Phase 2: open loop.
	res := r.drive(stmts, time.Now().Add(2*time.Millisecond), dues)
	_, committed := r.oplog.Horizon()
	r.waitApplied(committed, drainTimeout)
	window := time.Since(t1)
	close(stop)
	wg.Wait()
	proc1, src1, wh1 := sampleProc(), sampleEngine(r.src), sampleEngine(r.wh)

	out := &outcome{
		e2e: metricSet{"setup_s": setupS}, layer: metricSet{},
		tails: map[string]int{}, window: window,
	}
	commitLat := res.latMs
	out.attempted = int64(r.backlog + count)
	out.failed = int64(res.failed)
	// Every statement that succeeded captured one op.
	if missing := int64(r.backlog+len(commitLat)) - r.whOps.Load(); missing > 0 {
		e.logf("%d ops unapplied after the drain", missing)
		out.failed += missing
	}
	if p := r.pipeErr.Load(); p != nil {
		e.logf("pipeline: %v", *p)
		out.failed++
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
	out.correct = ok && r.pipeErr.Load() == nil

	r.mu.Lock()
	lags := append([]float64(nil), r.lags...)
	r.mu.Unlock()
	out.e2e["throughput_per_s"] = r.catchupRate(t1)
	e.setOpLatency(out, "commit ms", commitLat)
	e.setLag(out, "lag ms", lags)
	e.logf("phase 1: %d backlog ops in %v; phase 2: %d statements at %g/s, generator late by at most %v",
		r.backlog, catchup, count, sz.ReplRate, res.lateMax)

	if e.rec != nil {
		m := out.layer
		r.traceChains(m, res.captures)
		agg := e.rec.aggregate()
		capDur := layerDurs(agg, "opdelta.capture")
		m["opdelta.capture.calls"] = float64(len(capDur))
		m["opdelta.capture.busy_ms"] = selfMs(agg, "opdelta.capture")
		m["opdelta.capture.p99_us"] = percentile(capDur, 0.99) * 1000
		m["opdelta.log_read.calls"] = float64(len(layerDurs(agg, "opdelta.log_read")))
		m["opdelta.log_read.busy_ms"] = selfMs(agg, "opdelta.log_read")
		r.mu.Lock()
		m["opdelta.log_read.useful_ratio"] = ratio(float64(r.shipped), float64(r.decoded))
		m["netrepl.ops_per_batch"] = ratio(float64(r.shipped), float64(r.batches))
		if r.unmapped > 0 {
			e.logf("%d ops reported enqueued were never seen shipped", r.unmapped)
		}
		r.mu.Unlock()
		sp := layerDurs(agg, "netrepl.ship_persist")
		m["netrepl.ship_persist_ms.p50"] = percentile(sp, 0.50)
		m["netrepl.ship_persist_ms.p99"] = percentile(sp, 0.99)
		qw := layerDurs(agg, "lag.queue_wait")
		m["transport.queue_wait_ms.p50"] = percentile(qw, 0.50)
		m["transport.queue_wait_ms.p99"] = percentile(qw, 0.99)
		m["transport.ack.busy_ms"] = selfMs(agg, "transport.ack")
		applyDur := layerDurs(agg, "warehouse.apply")
		m["warehouse.apply.calls"] = float64(len(applyDur))
		m["warehouse.apply.busy_ms"] = selfMs(agg, "warehouse.apply")
		m["warehouse.apply.p99_ms"] = percentile(applyDur, 0.99)
		m["warehouse.apply.ops_per_call"] = ratio(float64(r.whOps.Load()), float64(len(applyDur)))
		engineMetrics(m, "src", src0, src1, len(commitLat))
		engineMetrics(m, "wh", wh0, wh1, int(r.whTxns.Load()))
		m["engine.mvcc.versions_peak"] = float64(r.versions.Load())
		procMetrics(m, proc0, proc1, float64(r.whOps.Load()))
		m["gen.late_max_ms"] = float64(res.lateMax) / 1e6
	}
	return out, nil
}

// traceChains lays out each phase-2 op's path as spans under one
// root: capture, log wait, log read, ship and persist, queue wait,
// apply. The chain covers the op's lag when the union of its spans
// covers [op capture time, apply return]; trace.lag_covered_ratio is
// the covered share. Stages may overlap: early lock release makes an
// op's log row readable before its commit is durable, so the shipper
// can fetch it before Capture.Exec returns; and the topic append is
// durable before OnEnqueue fires, so an op can be dequeued first. The
// enqueue stamp is therefore capped at the apply start.
func (r *replRun) traceChains(m metricSet, captures []captureRec) {
	rec := r.e.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	type applied struct {
		a      *applyRec
		opTime int64
	}
	app := make(map[uint64]applied)
	for i := range r.applies {
		a := &r.applies[i]
		for j, seq := range a.seqs {
			app[seq] = applied{a, a.opTimes[j]}
		}
	}
	covered, early := 0, 0
	for _, c := range captures {
		f, okF := r.fetched[c.seq]
		enq, okE := r.enqAt[c.seq]
		ap, okA := app[c.seq]
		if !okF || !okE || !okA {
			rec.add("opdelta.capture", 0, c.seq, c.start, c.end)
			continue
		}
		if enq > ap.a.start {
			enq = ap.a.start
		}
		if f.end < c.end {
			early++
		}
		segs := [][2]int64{{c.start, c.end}, {c.end, f.start}, {f.start, f.end}, {f.end, enq}, {enq, ap.a.start}, {ap.a.start, ap.a.end}}
		if spans(segs, ap.opTime, ap.a.end) {
			covered++
		}
		root := rec.add("lag.op", 0, c.seq, c.start, ap.a.end)
		for i, name := range []string{"opdelta.capture", "lag.log_wait", "lag.log_read", "lag.ship_persist", "lag.queue_wait", "lag.apply"} {
			if segs[i][1] >= segs[i][0] {
				rec.add(name, root, c.seq, segs[i][0], segs[i][1])
			}
		}
	}
	m["trace.lag_covered_ratio"] = ratio(float64(covered), float64(len(captures)))
	if early > 0 {
		r.e.logf("%d of %d ops were fetched before Capture.Exec returned", early, len(captures))
	}
}

// spans reports whether the union of the intervals covers [lo, hi].
func spans(ivs [][2]int64, lo, hi int64) bool {
	sorted := append([][2]int64(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	reach := lo
	for _, iv := range sorted {
		if iv[0] > reach {
			break
		}
		if iv[1] > reach {
			reach = iv[1]
		}
	}
	return reach >= hi
}
