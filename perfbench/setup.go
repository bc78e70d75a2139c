package main

import (
	"fmt"
	"path/filepath"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/warehouse"
	"opdelta/internal/workload"
)

// setUp runs a workload's set-up Size.Setups times, each in a fresh
// directory, keeps the last and closes the others; it returns the
// median set-up time in seconds.
func setUp[T interface{ close() }](e *env, fn func(*env, string) (T, error)) (T, float64, error) {
	var kept T
	var times []float64
	n := e.cfg.Size.Setups
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := fn(e, filepath.Join(e.workDir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return kept, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			v.close()
			continue
		}
		kept = v
	}
	return kept, median(times), nil
}

// createParts creates the PARTS table and bulk-loads rows 0..n-1.
func createParts(db *engine.DB, n int) error {
	if err := workload.CreateParts(db); err != nil {
		return err
	}
	return workload.Populate(db, n)
}

// newReplica loads the replica's starting rows (the same rows the
// source starts with) and registers it with a warehouse.
func newReplica(db *engine.DB, rows int) (*warehouse.Warehouse, error) {
	if err := createParts(db, rows); err != nil {
		return nil, err
	}
	w := warehouse.New(db)
	t, err := db.Table("parts")
	if err != nil {
		return nil, err
	}
	if err := w.RegisterReplica("parts", t.Schema, "part_id", "last_modified"); err != nil {
		return nil, err
	}
	return w, nil
}

func schemaOf(db *engine.DB) func(string) (*catalog.Schema, error) {
	return func(table string) (*catalog.Schema, error) {
		t, err := db.Table(table)
		if err != nil {
			return nil, err
		}
		return t.Schema, nil
	}
}

func closeDB(db *engine.DB) {
	if db != nil {
		db.Close() // scratch engines: the run's result no longer depends on them
	}
}
