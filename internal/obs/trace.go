package obs

import (
	"sync/atomic"
	"time"
)

// Stage span names, in pipeline order. A Trace turns the stamps of one
// delta into one span per stage, each covering the gap between two
// adjacent stamps:
//
//	capture: captured -> enqueued  (source commit to transport append)
//	queue:   enqueued -> dequeued  (time sitting in the transport queue)
//	lock:    dequeued -> locked    (scheduling + lock pre-declaration)
//	apply:   locked   -> applied   (statement execution at the warehouse)
//	durable: applied  -> durable   (commit + WAL group-commit fsync wait)
//
// Freshness lag is captured -> durable: how stale the warehouse answer
// was for data the source had already committed.
const (
	StageCapture = "capture"
	StageQueue   = "queue"
	StageLock    = "lock"
	StageApply   = "apply"
	StageDurable = "durable"
)

var stages = [...]string{StageCapture, StageQueue, StageLock, StageApply, StageDurable}

// Begin starts the in-flight trace of the delta with the given source
// and sequence number. tc names the trace and where it hangs:
//
//   - TraceID: the trace the spans join. Zero means unsampled; the
//     trace still feeds span_stage_seconds and span_e2e_seconds, but
//     its spans never enter the ring and it never enters the slow log.
//   - SpanID: the caller's wire span, parent of the first span here.
//     Zero makes the trace a local root beginning with its capture
//     span; otherwise the capture stage belongs to the peer process
//     that recorded it, and the chain here begins at queue.
//   - CaptureUnixNs: when the source captured the delta, on this
//     process's clock (a caller with a remote source subtracts its
//     clock offset first); Done measures freshness lag from it.
//
// A nil tracer yields a nil trace, on which every stamp is a no-op.
func (st *SpanTracer) Begin(source string, seq uint64, tc TraceContext) *Trace {
	if st == nil {
		return nil
	}
	return &Trace{st: st, tc: tc, source: source, seq: seq}
}

// Trace is one in-flight delta. Stamps are atomic int64 unix nanos, so
// the stages may be stamped from different goroutines (the capture
// side, the daemon's reader, and a parallel applier) without
// coordination. All methods tolerate a nil receiver.
type Trace struct {
	st     *SpanTracer
	tc     TraceContext
	source string
	seq    uint64

	enqueued atomic.Int64
	dequeued atomic.Int64
	locked   atomic.Int64
	applied  atomic.Int64
	durable  atomic.Int64
}

func stamp(slot *atomic.Int64, ns int64) { slot.CompareAndSwap(0, ns) }

// Enqueued marks the delta appended to the transport queue.
func (tr *Trace) Enqueued() {
	if tr != nil {
		stamp(&tr.enqueued, time.Now().UnixNano())
	}
}

// EnqueuedAt marks the delta appended to the transport queue at ns,
// for a caller that learned the append time from elsewhere (the
// networked applier reads it off the topic's span handoff).
func (tr *Trace) EnqueuedAt(ns int64) {
	if tr != nil {
		stamp(&tr.enqueued, ns)
	}
}

// Dequeued marks the delta read back out of the transport queue.
func (tr *Trace) Dequeued() {
	if tr != nil {
		stamp(&tr.dequeued, time.Now().UnixNano())
	}
}

// Locked marks the applier's lock plan granted.
func (tr *Trace) Locked() {
	if tr != nil {
		stamp(&tr.locked, time.Now().UnixNano())
	}
}

// Applied marks the delta's statements executed at the warehouse.
func (tr *Trace) Applied() {
	if tr != nil {
		stamp(&tr.applied, time.Now().UnixNano())
	}
}

// Durable marks the warehouse commit durable (WAL fsync complete).
func (tr *Trace) Durable() {
	if tr != nil {
		stamp(&tr.durable, time.Now().UnixNano())
	}
}

// Done finishes the trace: it records one span per stage whose two
// bounding stamps were both taken, each parented on the span before
// it (the first on the caller's wire span), and, if the delta reached
// durability, observes its freshness lag. Call exactly once, after
// the final stamp.
func (tr *Trace) Done() {
	if tr == nil {
		return
	}
	first := tr.tc.CaptureUnixNs
	if tr.tc.SpanID != 0 {
		first = 0 // the peer recorded the capture span
	}
	bounds := [len(stages) + 1]int64{first, tr.enqueued.Load(), tr.dequeued.Load(),
		tr.locked.Load(), tr.applied.Load(), tr.durable.Load()}
	var spans [len(stages)]SpanRecord
	n, parent := 0, tr.tc.SpanID
	for i, name := range stages {
		if bounds[i] == 0 || bounds[i+1] == 0 {
			continue
		}
		var id uint64
		if tr.tc.TraceID != 0 {
			id = SpanIDFor(tr.tc.TraceID, name)
		}
		spans[n] = SpanRecord{TraceID: tr.tc.TraceID, SpanID: id, ParentID: parent, Name: name,
			Source: tr.source, Seq: tr.seq, StartUnixNs: bounds[i], EndUnixNs: bounds[i+1]}
		n, parent = n+1, id
	}
	tr.st.record(spans[:n])
	if durable := bounds[len(stages)]; durable != 0 && tr.tc.CaptureUnixNs != 0 {
		tr.st.ObserveE2E(tr.tc.TraceID, tr.source, tr.seq, durable-tr.tc.CaptureUnixNs)
	}
}
