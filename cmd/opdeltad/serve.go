package main

import (
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/obs"
	netrepl "opdelta/internal/transport/net"
	"opdelta/internal/wal"
	"opdelta/internal/warehouse"
)

// runServe is the warehouse side of networked replication: a netrepl
// server accepts N source shippers on a TCP listener, lands their op
// batches in per-source durable queue topics, and one applier per
// source drains its topic into a per-source warehouse through the
// parallel integrator with exactly-once apply (AppliedLog dedup).
//
// Each source stream gets its own warehouse directory under out/:
// sequence numbers — the dedup and resume key — are per source stream,
// so streams do not share an applied log.
//
// Shutdown is graceful on SIGINT/SIGTERM: the listener closes, active
// shippers get a SHUTDOWN frame, appliers drain and ack their final
// batches, and every warehouse commits durably before exit. A kill -9
// instead of a signal loses none of that: the topic queue and applied
// log are durable, so the next start resumes from the last acked LSN.
func runServe(listenAddr, outDir, metricsAddr string, duration time.Duration, d diagOpts) error {
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

	lis, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return err
	}
	fmt.Printf("opdeltad: replication server listening on %s\n", lis.Addr())

	// Per-source state is created lazily and shared by two consumers
	// with different triggers: the server's Bootstrap callback needs the
	// bootstrapper when a bare replica's HELLO lands (before any applier
	// exists), and the applier manager needs the same warehouse and
	// bootstrapper when the topic appears. Whichever fires first builds
	// the state; the other reuses it.
	type sourceState struct {
		db       *engine.DB
		integ    *warehouse.ParallelIntegrator
		boot     *netrepl.Bootstrapper
		applying bool
	}
	states := make(map[string]*sourceState)
	var statesMu sync.Mutex
	ensureState := func(source string) (*sourceState, error) {
		statesMu.Lock()
		defer statesMu.Unlock()
		if st, ok := states[source]; ok {
			return st, nil
		}
		db, err := engine.Open(filepath.Join(outDir, "wh-"+source),
			engine.Options{Obs: reg, ObsDB: "wh-" + source, WALSync: wal.SyncFull})
		if err != nil {
			return nil, err
		}
		w := warehouse.New(db)
		if _, err := db.Table("parts"); err != nil {
			const ddl = `CREATE TABLE parts (
				part_id BIGINT NOT NULL, status VARCHAR, qty BIGINT, last_modified TIMESTAMP
			) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`
			if _, err := db.Exec(nil, ddl); err != nil {
				db.Close()
				return nil, err
			}
		}
		tbl, err := db.Table("parts")
		if err != nil {
			db.Close()
			return nil, err
		}
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
		st := &sourceState{
			db:    db,
			integ: &warehouse.ParallelIntegrator{W: w, Workers: 4, Applied: applied},
			boot:  &netrepl.Bootstrapper{Log: blog, Applied: applied, Source: source, Obs: reg, Spans: spans},
		}
		states[source] = st
		return st, nil
	}

	srv := netrepl.NewServer(netrepl.ServerConfig{
		Dir:   filepath.Join(outDir, "topics"),
		Obs:   reg,
		Spans: spans,
		Bootstrap: func(source string) (*netrepl.Bootstrapper, error) {
			st, err := ensureState(source)
			if err != nil {
				return nil, err
			}
			return st.boot, nil
		},
	})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	// Applier manager: every new source that opens a topic gets its own
	// warehouse and applier goroutine, wired to the source's
	// bootstrapper so snapshot chunks settle on the apply loop.
	startApplier := func(source string) error {
		st, err := ensureState(source)
		if err != nil {
			return err
		}
		statesMu.Lock()
		if st.applying {
			statesMu.Unlock()
			return nil
		}
		st.applying = true
		statesMu.Unlock()
		topic, err := srv.Topic(source)
		if err != nil {
			return err
		}
		db := st.db
		ap := &netrepl.Applier{
			Topic:      topic,
			Integrator: st.integ,
			SchemaOf: func(table string) (*catalog.Schema, error) {
				t, err := db.Table(table)
				if err != nil {
					return nil, err
				}
				return t.Schema, nil
			},
			Bootstrap: st.boot,
			Spans:     spans,
			Obs:       reg,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ap.Run(stop); err != nil {
				fail(fmt.Errorf("applier %s: %w", source, err))
			}
		}()
		fmt.Printf("opdeltad: applying source %q into %s\n", source, db.Dir())
		return nil
	}

	// Watch for new sources. Topics appear when a shipper's HELLO lands
	// (or existed on disk from a previous run — recover those first).
	entries, err := os.ReadDir(filepath.Join(outDir, "topics"))
	if err == nil {
		for _, e := range entries {
			if e.IsDir() {
				if err := startApplier(e.Name()); err != nil {
					return err
				}
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			for _, source := range srv.Sources() {
				statesMu.Lock()
				st, known := states[source]
				running := known && st.applying
				statesMu.Unlock()
				if !running {
					if err := startApplier(source); err != nil {
						fail(err)
						return
					}
				}
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	var timeout <-chan time.Time
	if duration > 0 {
		tm := time.NewTimer(duration)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case <-sig:
		fmt.Println("opdeltad: signal received, draining")
	case <-timeout:
	case err := <-serveDone:
		close(stop)
		wg.Wait()
		return err
	}

	// Drain: stop accepting, notify shippers, let appliers finish their
	// final batches, then close everything durably.
	lis.Close()
	close(stop)
	wg.Wait()
	if err := srv.Shutdown(); err != nil {
		fail(err)
	}
	<-serveDone
	statesMu.Lock()
	for source, st := range states {
		if err := st.db.Close(); err != nil {
			fail(fmt.Errorf("close %s: %w", source, err))
		}
	}
	n := len(states)
	statesMu.Unlock()
	fmt.Printf("opdeltad: replication server drained, %d source(s) closed\n", n)
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}
