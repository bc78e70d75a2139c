// Package bench regenerates every table and figure in the paper's
// evaluation (plus its prose experiments) against this repository's
// engine substrate. Each Run* function is one experiment; cmd/benchtables
// drives them and prints paper-shaped tables, and shape_test.go asserts
// that the qualitative results — who wins, what grows, where the big
// ratios are — match the paper.
//
// Absolute numbers cannot match a 300 MHz NT server with 128 MB of RAM;
// sizes default to laptop scale and can be raised with Config.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"opdelta/internal/engine"
	"opdelta/internal/obs"
	"opdelta/internal/wal"
	"opdelta/internal/workload"
)

// Config scales the experiments.
type Config struct {
	// WorkDir is scratch space; every experiment creates databases
	// underneath it. Required.
	WorkDir string
	// TableRows is the standing source-table size (the paper uses 10M
	// rows for Table 2 and 100k rows for Figure 2). Default 100_000.
	TableRows int
	// DeltaRows are the delta sizes for Tables 1-3, in rows (the paper
	// sweeps 100 MB..1 GB = 1M..10M rows). Default 10k..100k rows
	// (1 MB..10 MB).
	DeltaRows []int
	// TxnSizes are the records-per-transaction sweep for Figures 2-3
	// and Table 4. Default {10, 100, 1000, 10000}.
	TxnSizes []int
	// Repeats is the number of measurements per cell; the median is
	// reported. Default 3.
	Repeats int
	// Obs, when set, receives every engine's metrics (each engine under
	// a unique db=<scratch-name> label, so per-run stats never merge)
	// plus the span stage and freshness histograms from the traced
	// experiments; benchtables dumps its snapshot into the -json output.
	// Nil keeps every engine on a private registry.
	Obs *obs.Registry
}

func (c *Config) fill() error {
	if c.WorkDir == "" {
		return fmt.Errorf("bench: Config.WorkDir is required")
	}
	if c.TableRows <= 0 {
		c.TableRows = 100_000
	}
	if len(c.DeltaRows) == 0 {
		c.DeltaRows = []int{10_000, 20_000, 40_000, 60_000, 80_000, 100_000}
	}
	if len(c.TxnSizes) == 0 {
		c.TxnSizes = []int{10, 100, 1000, 10000}
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	return nil
}

// Result is one experiment's output: a labeled numeric grid.
type Result struct {
	ID       string // experiment id, e.g. "table1"
	Title    string
	Unit     string // unit of Values: "s", "ms", "%", "bytes", "x"
	ColHeads []string
	RowHeads []string
	Values   [][]float64
	// Notes carries provenance remarks rendered under the table.
	Notes []string
}

// Get returns the value at (rowHead, colHead); it panics on unknown
// labels (an experiment-definition bug).
func (r *Result) Get(row, col string) float64 {
	ri, ci := -1, -1
	for i, h := range r.RowHeads {
		if h == row {
			ri = i
		}
	}
	for i, h := range r.ColHeads {
		if h == col {
			ci = i
		}
	}
	if ri < 0 || ci < 0 {
		panic(fmt.Sprintf("bench: no cell (%q, %q) in %s", row, col, r.ID))
	}
	return r.Values[ri][ci]
}

// Render formats the result as an aligned text table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (values in %s)\n", strings.ToUpper(r.ID), r.Title, r.Unit)
	widths := make([]int, len(r.ColHeads)+1)
	widths[0] = len("method")
	for _, h := range r.RowHeads {
		if len(h) > widths[0] {
			widths[0] = len(h)
		}
	}
	cells := make([][]string, len(r.RowHeads))
	for i := range r.RowHeads {
		cells[i] = make([]string, len(r.ColHeads))
		for j := range r.ColHeads {
			cells[i][j] = formatValue(r.Values[i][j], r.Unit)
		}
	}
	for j, h := range r.ColHeads {
		widths[j+1] = len(h)
		for i := range r.RowHeads {
			if len(cells[i][j]) > widths[j+1] {
				widths[j+1] = len(cells[i][j])
			}
		}
	}
	line := func(parts []string) {
		for j, p := range parts {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], p)
		}
		b.WriteByte('\n')
	}
	line(append([]string{"method"}, r.ColHeads...))
	for i, h := range r.RowHeads {
		line(append([]string{h}, cells[i]...))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func formatValue(v float64, unit string) string {
	switch unit {
	case "s":
		return time.Duration(v * float64(time.Second)).Round(time.Millisecond).String()
	case "ms":
		return fmt.Sprintf("%.1f", v)
	case "%":
		return fmt.Sprintf("%.1f%%", v)
	case "bytes":
		return formatBytes(v)
	case "x":
		return fmt.Sprintf("%.1fx", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

func formatBytes(v float64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

// sizeLabel renders a delta size in MB for column heads.
func sizeLabel(rows int) string {
	mb := float64(rows) * workload.RecordBytes / 1_000_000
	if mb < 10 {
		return fmt.Sprintf("%.1fMB", mb)
	}
	return fmt.Sprintf("%.0fMB", mb)
}

// median returns the median of the samples.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// timeIt measures fn once.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// scratch returns a fresh subdirectory of the work dir.
func scratch(cfg *Config, name string) (string, error) {
	dir := filepath.Join(cfg.WorkDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// newSourceDB opens a source engine with a deterministic clock and the
// options the source-side experiments use.
func newSourceDB(cfg *Config, dir string, archive bool) (*engine.DB, *workload.Clock, error) {
	clock := workload.NewClock()
	db, err := engine.Open(dir, engine.Options{
		Now:       clock.Now,
		PoolPages: 512,
		Archive:   archive,
		Obs:       cfg.Obs,
		ObsDB:     filepath.Base(dir),
	})
	if err != nil {
		return nil, nil, err
	}
	return db, clock, nil
}

// newWarehouseDB opens a destination engine with production-durability
// commits, the regime where loader-vs-import contrasts are honest.
func newWarehouseDB(cfg *Config, dir string) (*engine.DB, *workload.Clock, error) {
	clock := workload.NewClock()
	db, err := engine.Open(dir, engine.Options{
		Now:       clock.Now,
		PoolPages: 512,
		WALSync:   wal.SyncFull,
		Obs:       cfg.Obs,
		ObsDB:     filepath.Base(dir),
	})
	if err != nil {
		return nil, nil, err
	}
	return db, clock, nil
}

// populatedSource builds a parts source table of n rows.
func populatedSource(cfg *Config, name string, n int, archive bool) (*engine.DB, *workload.Clock, error) {
	dir, err := scratch(cfg, name)
	if err != nil {
		return nil, nil, err
	}
	db, clock, err := newSourceDB(cfg, dir, archive)
	if err != nil {
		return nil, nil, err
	}
	if err := workload.CreateParts(db); err != nil {
		db.Close()
		return nil, nil, err
	}
	if err := workload.Populate(db, n); err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, clock, nil
}
