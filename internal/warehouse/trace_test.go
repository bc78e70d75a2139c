package warehouse

import (
	"math"
	"testing"

	"opdelta/internal/obs"
	"opdelta/internal/wal"
)

// TestParallelApplyTraceMonotone runs a captured workload through the
// span tracer end to end in-process: the test plays the transport role
// (Begin + Enqueued + Dequeued), the parallel integrator stamps
// lock/apply/durable and completes each trace, and every trace's span
// chain must be monotone in pipeline order and contiguous from capture
// to durable. The parallel appliers stamp traces from several
// goroutines, so the race detector covers the tracer's hot path here
// too.
func TestParallelApplyTraceMonotone(t *testing.T) {
	w := equivWarehouse(t, wal.SyncFull, false)
	ops := randomOpWorkload(t, 7, 30)
	reg := obs.NewRegistry()
	stages := []string{obs.StageCapture, obs.StageQueue, obs.StageLock, obs.StageApply, obs.StageDurable}
	spans := obs.NewSpanTracer(reg, len(stages)*len(ops)+1)
	for _, op := range ops {
		tr := spans.Begin("src", op.Seq, obs.TraceContext{
			TraceID: obs.TraceID("src", op.Seq), CaptureUnixNs: op.Time.UnixNano()})
		tr.Enqueued()
		tr.Dequeued()
		op.Trace = tr
	}
	in := &ParallelIntegrator{W: w, Workers: 4}
	if _, err := in.Apply(ops); err != nil {
		t.Fatal(err)
	}

	var freshSum float64
	for _, op := range ops {
		chain := spans.TraceSpans(obs.TraceID("src", op.Seq))
		if len(chain) != len(stages) {
			t.Fatalf("trace seq=%d has %d spans, want %d: %+v", op.Seq, len(chain), len(stages), chain)
		}
		prevEnd := op.Time.UnixNano()
		var prevID uint64
		for i, sp := range chain {
			if sp.Name != stages[i] {
				t.Fatalf("trace seq=%d span %d = %s, want %s", op.Seq, i, sp.Name, stages[i])
			}
			if sp.StartUnixNs != prevEnd || sp.ParentID != prevID {
				t.Errorf("trace seq=%d: %s (start %d, parent %x) not chained to its predecessor (end %d, id %x)",
					op.Seq, sp.Name, sp.StartUnixNs, sp.ParentID, prevEnd, prevID)
			}
			if sp.EndUnixNs < sp.StartUnixNs {
				t.Errorf("trace seq=%d: %s ends (%d) before it starts (%d)", op.Seq, sp.Name, sp.EndUnixNs, sp.StartUnixNs)
			}
			prevEnd, prevID = sp.EndUnixNs, sp.SpanID
		}
		freshness := prevEnd - op.Time.UnixNano()
		if freshness <= 0 {
			t.Errorf("trace seq=%d freshness = %d, want > 0", op.Seq, freshness)
		}
		freshSum += float64(freshness) / 1e9
	}

	snap := reg.Snapshot()
	// Freshness covers each chain from capture to durable.
	if m := snap.Get("span_e2e_seconds"); m == nil || m.Count != uint64(len(ops)) || math.Abs(m.Sum-freshSum) > 1e-9*freshSum {
		t.Fatalf("e2e histogram = %+v, want %d observations summing to %g", m, len(ops), freshSum)
	}
	for _, stage := range []string{"lock", "apply", "durable"} {
		m := snap.Get("span_stage_seconds", obs.L("stage", stage))
		if m == nil || m.Count != uint64(len(ops)) {
			t.Fatalf("stage %q histogram = %+v, want %d observations", stage, m, len(ops))
		}
	}
}
