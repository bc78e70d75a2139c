package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/fault"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	netrepl "opdelta/internal/transport/net"
	"opdelta/internal/transport/retry"
	"opdelta/internal/wal"
)

// runShip is the source side of networked replication: a load
// generator issues DML against the source through the Op-Delta capture
// wrapper, and a netrepl shipper streams the op log to the replication
// server with acked, resumable delivery. The shipper keeps no durable
// cursor of its own — after any restart (including kill -9) it resumes
// from the durable LSN the server names in its WELCOME, so nothing is
// lost and redelivered ops are deduplicated server-side.
//
// Shutdown is graceful on SIGINT/SIGTERM: load generation stops, the
// shipper drains its in-flight window, and the stream ends with a
// SHUTDOWN frame.
//
// The shipper always carries a Snapshotter, so a bare replica (topic
// behind the op log's truncation base) can negotiate a DBLog-style
// snapshot bootstrap in the handshake: chunked reads in PK order,
// bracketed by watermarks, interleaved with the live delta stream —
// writers are never blocked. With truncate, the op log is truncated at
// its current head on startup, forcing exactly that path on a fresh
// server; chunkRows/chunkDelay pace the chunk reads.
func runShip(serverAddr, srcDir, source, metricsAddr string, rate, chunkRows int, chunkDelay time.Duration, truncate bool, duration time.Duration, d diagOpts, faultDelayProb float64, faultMaxDelay time.Duration) error {
	reg := obs.Default()
	spans := newSpanTracer(reg, d)
	if metricsAddr != "" {
		if _, err := serveObs(metricsAddr, reg, spans, d.pprof); err != nil {
			return err
		}
	}
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

	if truncate {
		if head := oplog.Seq(); head > 0 {
			if err := oplog.Truncate(head); err != nil {
				return err
			}
			fmt.Printf("opdeltad: op log truncated at seq %d; a bare replica must bootstrap\n", head)
		}
	}
	snap := &opdelta.Snapshotter{
		DB: src, Log: oplog, Tables: []string{"parts"},
		ChunkRows: chunkRows, ChunkDelay: chunkDelay,
	}

	dial := func() (net.Conn, error) { return net.DialTimeout("tcp", serverAddr, 2*time.Second) }
	if faultDelayProb > 0 {
		// Route every connection through a seeded fault link that delays
		// frames per the schedule: bytes the shipper writes cross the
		// fault net, then a goroutine bridge relays them onto the real
		// TCP connection (and the reverse for reads). Exercises the
		// slow-span diagnostics against genuine wire latency.
		nw := fault.NewNet(fault.NetProfile{Seed: 1, DelayProb: faultDelayProb, MaxDelay: faultMaxDelay})
		lis := nw.Listener()
		tcpDial := dial
		dial = func() (net.Conn, error) {
			tcp, err := tcpDial()
			if err != nil {
				return nil, err
			}
			local, err := nw.Dial()
			if err != nil {
				tcp.Close()
				return nil, err
			}
			far, err := lis.Accept()
			if err != nil {
				tcp.Close()
				local.Close()
				return nil, err
			}
			bridgeConns(far, tcp)
			return local, nil
		}
		fmt.Printf("opdeltad: fault link enabled: delayprob=%g maxdelay=%s\n", faultDelayProb, faultMaxDelay)
	}

	sh := netrepl.NewShipper(netrepl.ShipperConfig{
		Source: source,
		Dial:   dial,
		Fetch:  oplog.Read,
		SchemaOf: func(table string) (*catalog.Schema, error) {
			t, err := src.Table(table)
			if err != nil {
				return nil, err
			}
			return t.Schema, nil
		},
		Snapshot: snap,
		Obs:      reg,
		Spans:    spans,
		Retry:    retry.Policy{Base: 50 * time.Millisecond, Cap: 2 * time.Second, Multiplier: 2, Jitter: 0.5},
	})
	fmt.Printf("opdeltad: shipping source %q from %s to %s\n", source, srcDir, serverAddr)

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

	var wg sync.WaitGroup
	// Resume load generation past any id a previous run issued: ids are
	// issued in increasing order and deletes only target ids at least 8
	// behind the head, so the surviving max part_id is within 2 of the
	// last issued id — a 16-id stride clears it with room to spare.
	nextID := 0
	tbl, err := src.Table("parts")
	if err != nil {
		return err
	}
	pkIdx, _ := tbl.Schema.ColIndex("part_id")
	if err := src.ScanTable(nil, "parts", func(row catalog.Tuple) error {
		if id := int(row[pkIdx].Int()); id > nextID {
			nextID = id
		}
		return nil
	}); err != nil {
		return err
	}
	if nextID > 0 {
		nextID += 16
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(time.Second / time.Duration(rate))
		defer ticker.Stop()
		id := nextID
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := sh.Run(stop); err != nil {
			fail(fmt.Errorf("shipper: %w", err))
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
	case <-stop:
	}
	cancel()
	wg.Wait()
	fmt.Printf("opdeltad: shipper drained at acked seq %d\n", sh.Acked())
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}

// bridgeConns relays bytes between two connections until either side
// closes, then closes both. Writes onto a fault NetConn run the fault
// schedule, so frames relayed through the bridge inherit its delays.
func bridgeConns(a, b net.Conn) {
	relay := func(dst, src net.Conn) {
		io.Copy(dst, src)
		dst.Close()
		src.Close()
	}
	go relay(a, b)
	go relay(b, a)
}
