package simnet

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/fault"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	netrepl "opdelta/internal/transport/net"
	"opdelta/internal/transport/retry"
	"opdelta/internal/wal"
	"opdelta/internal/warehouse"
)

// BootstrapConfig parameterizes one snapshot-bootstrap soak run: a
// pre-workload is captured and then truncated out of the source log, so
// a bare replica can only converge through the watermark-bracketed
// chunked snapshot, while a live workload keeps writing at the source
// for the whole bootstrap.
type BootstrapConfig struct {
	// Seed drives the workloads, the fault schedule, the chunk size, and
	// the restart decisions.
	Seed int64
	// PreTxns is the number of transactions captured before the log is
	// truncated (the state only the snapshot can deliver). Default 40.
	PreTxns int
	// LiveTxns is the number of transactions racing the bootstrap.
	// Default 30.
	LiveTxns int
	// Timeout bounds the whole replication pass. Default 60s.
	Timeout time.Duration
	// Profile overrides the seed-derived fault profile when non-nil.
	Profile *fault.NetProfile
	// ChunkRows fixes the snapshot chunk size; 0 derives 1..8 from the
	// seed.
	ChunkRows int
	// ChunkDelay paces the shipper between chunks so bootstrap reliably
	// overlaps the live workload. Default 2ms.
	ChunkDelay time.Duration
	// DisableRestart forces a single uninterrupted pass (the property
	// test's clean-schedule mode).
	DisableRestart bool
	// BrokenChunkWins opens the reconciliation hole: chunk rows are never
	// dropped for colliding deltas. Runs with it set may (and with
	// InjectCollisions must) end with Converged=false — that divergence
	// is the point, à la UnsafeAcceptOutOfOrder.
	BrokenChunkWins bool
	// InjectCollisions plants two sentinel rows below every workload key
	// and, right after the first chunk read's transaction commits (before
	// the shipper samples the fence), updates one and deletes the other.
	// Both land inside the first chunk's watermark window while the chunk
	// carries their stale rows — the exact race delta-wins reconciliation
	// must resolve, deterministically, every run. Use ChunkRows >= 2 so
	// both sentinels sit in the first chunk.
	InjectCollisions bool
}

// BootstrapReport summarizes one bootstrap soak run.
type BootstrapReport struct {
	Seed int64
	// Base is the source log truncation boundary: ops <= Base exist only
	// as table state, never as replayable deltas.
	Base uint64
	// MaxSeq is the highest op seq after the live workload quiesced.
	MaxSeq    uint64
	ChunkRows int
	// SourceDigest fingerprints the quiesced source table — what a full
	// reload would deliver, the byte-equivalence target.
	SourceDigest string
	// WarehouseDigest fingerprints the replica after the run.
	WarehouseDigest string
	// Converged: bootstrap finished, every live op applied, digests match.
	Converged bool
	// Restarted: an endpoint was hard-killed mid-bootstrap and restarted.
	Restarted bool
	// ShipperOnly: only the shipper died (server and applier survived);
	// otherwise a restart kills the whole replica process.
	ShipperOnly bool
	// ChunksApplied / Chases / DroppedRows are the replica-side
	// reconciliation counters summed across replica incarnations.
	ChunksApplied uint64
	Chases        uint64
	DroppedRows   uint64
	// WritesDuringBootstrap counts live source commits that landed while
	// chunk reads were in flight — the no-write-outage evidence.
	WritesDuringBootstrap int
	// Faults is what the network actually injected, summed across nets.
	Faults fault.NetStats
}

// bootReplica is one incarnation of the warehouse process.
type bootReplica struct {
	db      *engine.DB
	applied *warehouse.AppliedLog
	blog    *warehouse.BootstrapLog
	boot    *netrepl.Bootstrapper
	integ   *warehouse.ParallelIntegrator
	reg     *obs.Registry
}

// RunBootstrap executes one seeded bootstrap soak and reports the
// verdict. A run that fails to converge returns a non-nil error unless
// the chunk-wins hole is open (then divergence is reported, not failed,
// so the regression sweep can count it).
func RunBootstrap(cfg BootstrapConfig) (*BootstrapReport, error) {
	if cfg.PreTxns <= 0 {
		cfg.PreTxns = 40
	}
	if cfg.LiveTxns <= 0 {
		cfg.LiveTxns = 30
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.ChunkDelay <= 0 {
		cfg.ChunkDelay = 2 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	root, err := os.MkdirTemp("", "simboot")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Source: capture the pre-workload, then truncate it out of the log.
	src, err := engine.Open(filepath.Join(root, "src"), engine.Options{WALSync: wal.SyncFlush, Now: fixedNow})
	if err != nil {
		return nil, err
	}
	defer src.Close()
	if _, err := src.Exec(nil, partsDDL); err != nil {
		return nil, err
	}
	tbl, err := src.Table("parts")
	if err != nil {
		return nil, err
	}
	oplog, err := opdelta.NewTableLog(src)
	if err != nil {
		return nil, err
	}
	view := opdelta.ViewDef{
		Name: "slim_parts", Source: "parts",
		Project:  []string{"part_id", "status"},
		SourcePK: "part_id", SourceTS: "last_modified",
	}
	capture := &opdelta.Capture{DB: src, Log: oplog, Analyzer: opdelta.NewAnalyzer(view)}
	stmts := genStatements(rng, cfg.PreTxns+cfg.LiveTxns)
	for _, s := range stmts[:cfg.PreTxns] {
		if _, err := capture.Exec(nil, s); err != nil {
			return nil, err
		}
	}
	if cfg.InjectCollisions {
		// Sentinels sort below every generated key (those start at 1), so
		// they land in the first chunk and the generated live workload
		// never touches them — a wrongly kept stale row stays divergent.
		for _, s := range []string{
			`INSERT INTO parts (part_id, status, qty) VALUES (0, 'pin', 1)`,
			`INSERT INTO parts (part_id, status, qty) VALUES (-1, 'pin', 1)`,
		} {
			if _, err := capture.Exec(nil, s); err != nil {
				return nil, err
			}
		}
	}
	base := oplog.Seq()
	if base == 0 {
		return nil, fmt.Errorf("simboot seed %d: empty pre-workload", cfg.Seed)
	}
	if err := oplog.Truncate(base); err != nil {
		return nil, err
	}
	rep := &BootstrapReport{Seed: cfg.Seed, Base: base}

	// Every seed-derived decision happens before any goroutine starts,
	// so concurrent delivery timing cannot perturb the rng draw order.
	profile := profileFor(cfg.Seed, rng)
	if cfg.Profile != nil {
		p := *cfg.Profile
		p.Seed = cfg.Seed
		profile = p
	}
	rep.ChunkRows = cfg.ChunkRows
	if rep.ChunkRows <= 0 {
		rep.ChunkRows = 1 + rng.Intn(8)
	}
	rep.Restarted = !cfg.DisableRestart && rng.Intn(2) == 0
	rep.ShipperOnly = rep.Restarted && rng.Intn(2) == 0

	schemaOf := func(table string) (*catalog.Schema, error) {
		t, err := src.Table(table)
		if err != nil {
			return nil, err
		}
		return t.Schema, nil
	}

	// bootReading flips up at the first chunk read and down once the run
	// is durably done; live commits landing in between are the proof the
	// source took writes throughout bootstrap.
	var bootReading atomic.Bool
	var writesDuring atomic.Int64
	snap := &opdelta.Snapshotter{
		DB: src, Log: oplog,
		Tables:     []string{"parts"},
		ChunkRows:  rep.ChunkRows,
		ChunkDelay: cfg.ChunkDelay,
		BeforeRead: func(string) { bootReading.Store(true) },
	}
	if cfg.InjectCollisions {
		// After the first chunk read commits and before the fence: the
		// chunk holds both sentinels' stale rows, and these two ops land
		// inside its watermark window. The replica must drop the stale
		// update target and refuse the resurrection of the deleted row.
		var once sync.Once
		snap.AfterRead = func(string) {
			once.Do(func() {
				// An exec failure here surfaces as divergence: the source
				// moves on, the replica cannot follow.
				capture.Exec(nil, `UPDATE parts SET status = 'moved', qty = 7777 WHERE part_id = 0`)
				capture.Exec(nil, `DELETE FROM parts WHERE part_id = -1`)
			})
		}
	}

	// Live workload: a free-running writer draining the pre-generated
	// statement list — it never touches the rng, and nothing downstream
	// ever blocks it.
	liveStmts := stmts[cfg.PreTxns:]
	liveDone := make(chan struct{})
	var liveErr error
	startLive := func() {
		go func() {
			defer close(liveDone)
			for _, s := range liveStmts {
				if _, err := capture.Exec(nil, s); err != nil {
					liveErr = err
					return
				}
				if bootReading.Load() {
					writesDuring.Add(1)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	whDir := filepath.Join(root, "wh")
	topicDir := filepath.Join(root, "topics")
	deadline := time.Now().Add(cfg.Timeout)

	openReplica := func() (*bootReplica, error) {
		db, err := engine.Open(whDir, engine.Options{WALSync: wal.SyncFlush, Now: fixedNow})
		if err != nil {
			return nil, err
		}
		w := warehouse.New(db)
		if err := w.RegisterReplica("parts", tbl.Schema, "part_id", "last_modified"); err != nil {
			db.Close()
			return nil, err
		}
		applied, err := warehouse.EnsureAppliedLog(w)
		if err != nil {
			db.Close()
			return nil, err
		}
		blog, err := warehouse.EnsureBootstrapLog(w)
		if err != nil {
			db.Close()
			return nil, err
		}
		reg := obs.NewRegistry()
		boot := &netrepl.Bootstrapper{
			Log: blog, Applied: applied, Source: "src",
			Obs: reg, BrokenChunkWins: cfg.BrokenChunkWins,
		}
		integ := &warehouse.ParallelIntegrator{W: w, Workers: 2, Applied: applied}
		return &bootReplica{db: db, applied: applied, blog: blog, boot: boot, integ: integ, reg: reg}, nil
	}
	harvest := func(r *bootReplica) {
		l := obs.L("source", "src")
		rep.ChunksApplied += r.reg.Counter("netrepl_bootstrap_chunks_total", l).Value()
		rep.Chases += r.reg.Counter("netrepl_bootstrap_chases_total", l).Value()
		rep.DroppedRows += r.reg.Counter("netrepl_bootstrap_dropped_rows_total", l).Value()
	}
	addStats := func(s fault.NetStats) {
		rep.Faults.Drops += s.Drops
		rep.Faults.Dups += s.Dups
		rep.Faults.Reorders += s.Reorders
		rep.Faults.Truncates += s.Truncates
		rep.Faults.Delays += s.Delays
		rep.Faults.Cuts += s.Cuts
		rep.Faults.DialFails += s.DialFails
	}

	type shipHandle struct {
		stop chan struct{}
		wg   sync.WaitGroup
		err  error
	}
	startShipper := func(nw *fault.Net) *shipHandle {
		sh := netrepl.NewShipper(netrepl.ShipperConfig{
			Source: "src", Dial: nw.Dial,
			Fetch: oplog.Read, SchemaOf: schemaOf,
			Snapshot: snap,
			BatchOps: 3, Window: 3,
			Retry:      retry.Policy{Base: time.Millisecond, Cap: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.5},
			AckTimeout: 40 * time.Millisecond,
			PollEvery:  time.Millisecond,
		})
		h := &shipHandle{stop: make(chan struct{})}
		h.wg.Add(1)
		go func() { defer h.wg.Done(); h.err = sh.Run(h.stop) }()
		return h
	}

	type serverHandle struct {
		rep       *bootReplica
		srv       *netrepl.Server
		stopApply chan struct{}
		applyWG   sync.WaitGroup
		applyErr  error
		serveWG   sync.WaitGroup
	}
	serveOn := func(h *serverHandle, nw *fault.Net) {
		h.serveWG.Add(1)
		go func() { defer h.serveWG.Done(); h.srv.Serve(nw.Listener()) }()
	}
	startServer := func(nw *fault.Net) (*serverHandle, error) {
		r, err := openReplica()
		if err != nil {
			return nil, err
		}
		h := &serverHandle{rep: r}
		h.srv = netrepl.NewServer(netrepl.ServerConfig{
			Dir:       topicDir,
			Bootstrap: func(string) (*netrepl.Bootstrapper, error) { return r.boot, nil },
		})
		serveOn(h, nw)
		topic, err := h.srv.Topic("src")
		if err != nil {
			r.db.Close()
			return nil, err
		}
		ap := &netrepl.Applier{
			Topic: topic, Integrator: r.integ, SchemaOf: schemaOf,
			Bootstrap: r.boot, PollEvery: time.Millisecond,
		}
		h.stopApply = make(chan struct{})
		h.applyWG.Add(1)
		go func() { defer h.applyWG.Done(); h.applyErr = ap.Run(h.stopApply) }()
		return h, nil
	}
	// stopServer mirrors the simnet kill order: network first (nothing
	// graceful can be delivered), shipper, applier, then the server
	// closing its queues. The replica engine stays open so the caller can
	// digest it; close it via r.db when done.
	stopServer := func(h *serverHandle, nw *fault.Net, ship *shipHandle) error {
		nw.Close()
		if ship != nil {
			close(ship.stop)
			ship.wg.Wait()
		}
		close(h.stopApply)
		h.applyWG.Wait()
		h.srv.Shutdown()
		h.serveWG.Wait()
		addStats(nw.Stats())
		harvest(h.rep)
		if h.applyErr != nil {
			return fmt.Errorf("simboot seed %d: applier: %w", cfg.Seed, h.applyErr)
		}
		if ship != nil && ship.err != nil {
			return fmt.Errorf("simboot seed %d: shipper: %w", cfg.Seed, ship.err)
		}
		return nil
	}

	waitUntil := func(cond func() bool) bool {
		for time.Now().Before(deadline) {
			if cond() {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return false
	}
	// midBootstrap: at least one chunk is durable but the run is not
	// finished — the restart lands mid-bootstrap (a very fast seed may
	// already be done; restarting then exercises the done-run handshake).
	midBootstrap := func(r *bootReplica) func() bool {
		return func() bool {
			m, err := r.blog.Meta()
			if err != nil {
				return false
			}
			if m.Done {
				return true
			}
			prog, err := r.blog.Progress()
			return err == nil && len(prog) > 0
		}
	}
	// converged: the live workload has quiesced, the bootstrap run is
	// durably done, and every live delta is durably applied.
	converged := func(r *bootReplica) func() bool {
		return func() bool {
			select {
			case <-liveDone:
			default:
				return false
			}
			m, err := r.blog.Meta()
			if err != nil || !m.Done {
				return false
			}
			bootReading.Store(false)
			max, err := r.applied.MaxSeq()
			return err == nil && max >= oplog.Seq()
		}
	}

	finish := func(h *serverHandle, nw *fault.Net, ship *shipHandle, met bool) error {
		stopErr := stopServer(h, nw, ship)
		// liveErr is owned by the writer goroutine until liveDone closes;
		// on a timeout the workload may still be running, so only read it
		// behind the channel.
		var lerr error
		select {
		case <-liveDone:
			lerr = liveErr
		default:
		}
		if lerr == nil {
			rep.MaxSeq = oplog.Seq()
			if rep.SourceDigest, err = tableDigest(src, "parts"); err != nil {
				return err
			}
			if rep.WarehouseDigest, err = tableDigest(h.rep.db, "parts"); err != nil {
				return err
			}
		}
		closeErr := h.rep.db.Close()
		if lerr != nil {
			return fmt.Errorf("simboot seed %d: live workload: %w", cfg.Seed, lerr)
		}
		if stopErr != nil {
			return stopErr
		}
		if closeErr != nil {
			return closeErr
		}
		rep.WritesDuringBootstrap = int(writesDuring.Load())
		rep.Converged = met && rep.WarehouseDigest == rep.SourceDigest
		if !rep.Converged && !cfg.BrokenChunkWins {
			if !met {
				return fmt.Errorf("simboot seed %d: timed out before convergence (source %s, warehouse %s)",
					cfg.Seed, rep.SourceDigest, rep.WarehouseDigest)
			}
			return fmt.Errorf("simboot seed %d: replica diverged: source %s, warehouse %s",
				cfg.Seed, rep.SourceDigest, rep.WarehouseDigest)
		}
		return nil
	}

	nw1 := fault.NewNet(withSeed(profile, cfg.Seed))
	h1, err := startServer(nw1)
	if err != nil {
		return rep, err
	}
	ship1 := startShipper(nw1)
	startLive()

	if !rep.Restarted {
		met := waitUntil(converged(h1.rep))
		return rep, finish(h1, nw1, ship1, met)
	}

	if !waitUntil(midBootstrap(h1.rep)) {
		err := stopServer(h1, nw1, ship1)
		h1.rep.db.Close()
		if err != nil {
			return rep, err
		}
		return rep, fmt.Errorf("simboot seed %d: no chunk landed before restart deadline", cfg.Seed)
	}

	if rep.ShipperOnly {
		// Hard-kill the shipper's world: the network dies first, so its
		// in-flight chunk and window state are simply gone, then a brand
		// new shipper resumes from the replica's durable progress. The
		// server, applier, and warehouse engine never stop.
		nw1.Close()
		close(ship1.stop)
		ship1.wg.Wait()
		addStats(nw1.Stats())
		if ship1.err != nil {
			h1.rep.db.Close()
			return rep, fmt.Errorf("simboot seed %d: shipper: %w", cfg.Seed, ship1.err)
		}
		h1.serveWG.Wait() // Serve returned when nw1's listener died
		nw2 := fault.NewNet(withSeed(profile, cfg.Seed+1_000_003))
		serveOn(h1, nw2)
		ship2 := startShipper(nw2)
		met := waitUntil(converged(h1.rep))
		return rep, finish(h1, nw2, ship2, met)
	}

	// Whole-replica restart: server, applier, and the warehouse engine
	// all die with the connections severed; the second incarnation must
	// resume mid-bootstrap from the durable BootstrapLog.
	if err := stopServer(h1, nw1, ship1); err != nil {
		h1.rep.db.Close()
		return rep, err
	}
	if err := h1.rep.db.Close(); err != nil {
		return rep, err
	}
	nw2 := fault.NewNet(withSeed(profile, cfg.Seed+1_000_003))
	h2, err := startServer(nw2)
	if err != nil {
		return rep, err
	}
	ship2 := startShipper(nw2)
	met := waitUntil(converged(h2.rep))
	return rep, finish(h2, nw2, ship2, met)
}
