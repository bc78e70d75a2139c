package netrepl

import (
	"errors"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	"opdelta/internal/transport"
	"opdelta/internal/warehouse"
)

// Applier drains one topic into one warehouse through the parallel
// integrator. The queue gives at-least-once delivery (a crash between
// apply and Ack replays the tail); the integrator's AppliedLog turns
// that into exactly-once effects. Each op gets a trace beginning at
// its source capture timestamp — carried inside the op encoding — so
// the warehouse side measures true end-to-end freshness across the
// wire.
type Applier struct {
	Topic *Topic
	// Integrator applies batches; set Applied on it for exactly-once.
	Integrator *warehouse.ParallelIntegrator
	// SchemaOf resolves schemas for ops carrying before images; nil is
	// fine when none do.
	SchemaOf func(table string) (*catalog.Schema, error)
	// Spans, when set, traces each op from dequeue to durable into the
	// stage histograms and the skew-corrected end-to-end lag. An op
	// claiming a span handoff also completes its wire trace: its
	// queue/lock/apply/durable spans join the ring under the persist
	// span, and a slow end-to-end lag reaches the slow-span log.
	Spans *obs.SpanTracer
	// Bootstrap, when set, is this source's snapshot-bootstrap
	// coordinator: the applier feeds it every applied batch (footprints
	// + cursor) and polls it when idle, so chunk reconciliation runs on
	// this goroutine, strictly serialized with delta application.
	Bootstrap *Bootstrapper
	// Obs receives the applier's metrics; nil keeps a private registry.
	Obs *obs.Registry
	// BatchOps bounds ops per integrator call. Default 256.
	BatchOps int
	// PollEvery paces the empty-queue wait. Default 5ms.
	PollEvery time.Duration
}

// Run applies until stop closes. The final partial batch is applied
// and acked before returning, so a graceful shutdown loses nothing.
func (a *Applier) Run(stop <-chan struct{}) error {
	reg := a.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	batchOps := a.BatchOps
	if batchOps <= 0 {
		batchOps = 256
	}
	poll := a.PollEvery
	if poll <= 0 {
		poll = 5 * time.Millisecond
	}
	l := obs.L("source", a.Topic.Source)
	applied := reg.Counter("netrepl_applied_ops_total", l)
	// Freshness lag of this source's replica: capture→durable latency of
	// the most recently applied op. A scrape between batches sees the
	// lag the pipeline actually delivered, not a value that grows while
	// the source is simply quiet.
	freshness := reg.Gauge("netrepl_freshness_lag_us", l)
	// Replication lag, raw and skew-corrected. Raw subtracts the
	// source's capture timestamp from our clock — it silently includes
	// the clock offset between the machines. Corrected subtracts the
	// per-connection offset the shipper's NTP-style estimator reported
	// (Topic.Skew), bounding the residual error by half the probe RTT.
	lagRaw := reg.Histogram("netrepl_replication_lag_raw_seconds", obs.DurationBuckets, l)
	lagCorrected := reg.Histogram("netrepl_replication_lag_seconds", obs.DurationBuckets, l)
	lagGauge := reg.Gauge("netrepl_replication_lag_ns", l)
	stopping := false
	for {
		// The source's clock offset, for moving capture stamps onto this
		// process's clock.
		skew, _, _ := a.Topic.Skew()
		var batch []*opdelta.Op
		for len(batch) < batchOps {
			msg, err := a.Topic.Q.Next()
			if errors.Is(err, transport.ErrEmpty) {
				break
			}
			if err != nil {
				return err
			}
			op, _, err := opdelta.DecodeOpResolve(msg, a.SchemaOf)
			if err != nil {
				return err
			}
			// Claim the span handoff for every dequeued op even when
			// tracing is off here — an unclaimed handoff is an orphan.
			h := a.Topic.TakeSpanHandoff(op.Seq)
			op.Trace = a.beginTrace(op, h, skew)
			op.Trace.Dequeued()
			batch = append(batch, op)
		}
		if len(batch) == 0 {
			if stopping {
				return nil
			}
			if err := a.Bootstrap.Poll(); err != nil {
				return err
			}
			// Ops can land while we sleep here; after stop, read the
			// queue once more and return only when it is still empty.
			select {
			case <-stop:
				stopping = true
			case <-time.After(poll):
			}
			continue
		}
		if _, err := a.Integrator.Apply(batch); err != nil {
			return err
		}
		if err := a.Topic.Q.Ack(); err != nil {
			return err
		}
		if err := a.Bootstrap.Observe(batch); err != nil {
			return err
		}
		applied.Add(uint64(len(batch)))
		last := batch[len(batch)-1]
		raw := time.Since(last.Time)
		freshness.Set(raw.Microseconds())
		lagRaw.ObserveDuration(raw)
		corrected := raw
		if off, _, ok := a.Topic.Skew(); ok {
			corrected -= time.Duration(off)
		}
		if corrected < 0 {
			corrected = 0
		}
		lagCorrected.ObserveDuration(corrected)
		lagGauge.Set(corrected.Nanoseconds())
	}
}

// beginTrace starts op's trace. Without a handoff the trace is
// unsampled and measures from the op's own capture time. With one it
// joins the batch's wire trace under the server's persist span,
// measures from the frame's capture time (its oldest op), and is
// queued from the moment the batch became durable on the topic — or,
// if the applier outran that stamp, from when the frame arrived.
func (a *Applier) beginTrace(op *opdelta.Op, h *SpanHandoff, skew int64) *obs.Trace {
	if h == nil {
		return a.Spans.Begin(a.Topic.Source, op.Seq, obs.TraceContext{CaptureUnixNs: op.Time.UnixNano() + skew})
	}
	tid := h.TC.TraceID
	tr := a.Spans.Begin(a.Topic.Source, op.Seq, obs.TraceContext{TraceID: tid,
		SpanID: obs.SpanIDFor(tid, "persist"), CaptureUnixNs: h.TC.CaptureUnixNs + skew})
	queued := h.PersistEndNs()
	if queued == 0 {
		queued = h.RecvNs
	}
	tr.EnqueuedAt(queued)
	return tr
}
