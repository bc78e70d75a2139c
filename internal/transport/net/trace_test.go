package netrepl

import (
	"errors"
	"testing"
	"time"

	"opdelta/internal/fault"
	"opdelta/internal/obs"
)

// TestTraceTrailerRoundTrip: the flag-gated trailer carries the trace
// context without disturbing the payload it rides on.
func TestTraceTrailerRoundTrip(t *testing.T) {
	body := deltaPayload(41, [][]byte{[]byte("op-42")})
	tc := obs.TraceContext{TraceID: 0xfeedface, SpanID: 0xdead, CaptureUnixNs: 123456789}
	traced := appendTraceTrailer(append([]byte(nil), body...), tc)

	got, rest, err := splitTraceTrailer(FlagTrace, traced)
	if err != nil {
		t.Fatal(err)
	}
	if got != tc {
		t.Fatalf("trailer round trip = %+v, want %+v", got, tc)
	}
	if string(rest) != string(body) {
		t.Fatalf("stripped payload differs from original")
	}
	prev, ops, err := parseDelta(rest)
	if err != nil || prev != 41 || len(ops) != 1 || string(ops[0]) != "op-42" {
		t.Fatalf("stripped payload no longer parses: prev=%d ops=%v err=%v", prev, ops, err)
	}

	// Without the flag the payload passes through untouched — an
	// untraced frame whose last 24 bytes merely look like a trailer is
	// not misparsed.
	zero, rest, err := splitTraceTrailer(0, traced)
	if err != nil || !zero.Zero() || len(rest) != len(traced) {
		t.Fatalf("flagless split: tc=%+v len=%d err=%v, want passthrough", zero, len(rest), err)
	}

	// Flag set but payload shorter than a trailer: corrupt frame.
	if _, _, err := splitTraceTrailer(FlagTrace, make([]byte, traceTrailerLen-1)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated trailer err = %v, want ErrBadFrame", err)
	}
}

// TestTracedFrameTornByNet: the trailer sits inside the frame CRC, so a
// connection that tears a traced frame mid-flight surfaces a read error
// instead of a frame with a corrupt trace context.
func TestTracedFrameTornByNet(t *testing.T) {
	nw := fault.NewNet(fault.NetProfile{Seed: 7, TruncateProb: 1})
	defer nw.Close()
	client, err := nw.Dial()
	if err != nil {
		t.Fatal(err)
	}
	server, err := nw.Listener().Accept()
	if err != nil {
		t.Fatal(err)
	}
	body := appendTraceTrailer(deltaPayload(0, [][]byte{[]byte("op")}),
		obs.TraceContext{TraceID: 1, SpanID: 2, CaptureUnixNs: 3})
	WriteFrame(client, FrameDelta, FlagTrace, body) // torn: write reports the cut
	if _, _, _, err := ReadFrame(server); err == nil {
		t.Fatal("torn traced frame read back successfully")
	}
}

// TestProbeEchoRoundTrip covers the HEARTBEAT payloads: the probe's
// timestamps and current estimate, and the echo's three skew times.
// An empty or short heartbeat is a corrupt frame like any other.
func TestProbeEchoRoundTrip(t *testing.T) {
	t0, off, rtt, has, err := parseProbe(probePayload(100, -7, 42, true))
	if err != nil || t0 != 100 || off != -7 || rtt != 42 || !has {
		t.Fatalf("probe round trip: t0=%d off=%d rtt=%d has=%v err=%v", t0, off, rtt, has, err)
	}
	for _, bad := range [][]byte{nil, probePayload(1, 2, 3, false)[:24]} {
		if _, _, _, _, err := parseProbe(bad); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%d-byte probe: err = %v, want ErrBadFrame", len(bad), err)
		}
	}
	ts, err := parseEcho(echoPayload(skewTimes{T0: 1, T1: 2, T2: 3}))
	if err != nil || ts != (skewTimes{T0: 1, T1: 2, T2: 3}) {
		t.Fatalf("echo round trip: %+v err=%v", ts, err)
	}
	if _, err := parseEcho(nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty echo: err = %v, want ErrBadFrame", err)
	}
}

// TestWelcomeSkewTimes: every WELCOME, bootstrap or stream mode, carries
// the handshake timestamps after its structural fields; a bare 8-byte
// seq payload is a corrupt frame.
func TestWelcomeSkewTimes(t *testing.T) {
	prog := []BootstrapProgress{{Table: "parts", LastKey: []byte("k"), Done: false}}
	wts := skewTimes{T0: 11, T1: 22, T2: 33}
	seq, mode, gotProg, gotTs, err := parseWelcome(welcomePayload(9, ModeBootstrap, prog, wts))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 9 || mode != ModeBootstrap || len(gotProg) != 1 || gotProg[0].Table != "parts" {
		t.Fatalf("welcome structural fields: seq=%d mode=%d prog=%v", seq, mode, gotProg)
	}
	if gotTs != wts {
		t.Fatalf("welcome skew times = %+v, want %+v", gotTs, wts)
	}
	seq, mode, _, gotTs, err = parseWelcome(welcomePayload(5, ModeStream, nil, wts))
	if err != nil || seq != 5 || mode != ModeStream || gotTs != wts {
		t.Fatalf("stream-mode welcome: seq=%d mode=%d ts=%+v err=%v", seq, mode, gotTs, err)
	}
	if _, _, _, _, err := parseWelcome(seqPayload(5)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bare 8-byte WELCOME: err = %v, want ErrBadFrame", err)
	}
}

// TestSkewEstimatorSymmetric: with equal forward and return delay the
// NTP offset formula recovers the clock offset exactly.
func TestSkewEstimatorSymmetric(t *testing.T) {
	const offset = int64(5_000_000) // server 5ms ahead
	const delay = int64(1_000_000)  // 1ms each way
	e := &SkewEstimator{}
	t0 := int64(1_000_000_000)
	t1 := t0 + delay + offset // server receive, server clock
	t2 := t1 + 100            // server processing
	t3 := t2 - offset + delay // client receive, client clock
	e.Sample(t0, t1, t2, t3)
	off, rtt, ok := e.Estimate()
	if !ok {
		t.Fatal("no estimate after sample")
	}
	if off != offset {
		t.Fatalf("symmetric offset = %d, want %d", off, offset)
	}
	if wantRTT := 2 * delay; rtt != wantRTT {
		t.Fatalf("rtt = %d, want %d", rtt, wantRTT)
	}
}

// TestSkewEstimatorAsymmetric: unequal path delays bias the estimate,
// but the error is bounded by half the measured RTT.
func TestSkewEstimatorAsymmetric(t *testing.T) {
	const offset = int64(-3_000_000) // server 3ms behind
	const fwd = int64(4_000_000)     // slow forward path
	const ret = int64(1_000_000)     // fast return path
	e := &SkewEstimator{}
	t0 := int64(2_000_000_000)
	t1 := t0 + fwd + offset
	t2 := t1 + 50
	t3 := t2 - offset + ret
	e.Sample(t0, t1, t2, t3)
	off, rtt, ok := e.Estimate()
	if !ok {
		t.Fatal("no estimate after sample")
	}
	errNs := off - offset
	if errNs < 0 {
		errNs = -errNs
	}
	if bound := rtt / 2; errNs > bound {
		t.Fatalf("asymmetric error %dns exceeds rtt/2 bound %dns", errNs, bound)
	}
}

// TestSkewEstimatorKeepsMinRTT: a later, slower sample must not evict a
// faster one — minimum-RTT filtering is what bounds the error.
func TestSkewEstimatorKeepsMinRTT(t *testing.T) {
	e := &SkewEstimator{}
	base := int64(3_000_000_000)
	sample := func(delay, offset int64) {
		t0 := base
		t1 := t0 + delay + offset
		t2 := t1 + 10
		t3 := t2 - offset + delay
		e.Sample(t0, t1, t2, t3)
		base += int64(time.Second)
	}
	sample(1_000_000, 500_000) // fast, offset 0.5ms
	fastOff, fastRTT, _ := e.Estimate()
	sample(50_000_000, 9_000_000) // slow, wildly different offset
	off, rtt, ok := e.Estimate()
	if !ok || off != fastOff || rtt != fastRTT {
		t.Fatalf("estimate after slow sample = (%d, %d), want fast sample kept (%d, %d)",
			off, rtt, fastOff, fastRTT)
	}
	sample(200_000, -250_000) // faster still: replaces
	off, rtt, _ = e.Estimate()
	if rtt != 400_000 || off != -250_000 {
		t.Fatalf("estimate after faster sample = (%d, %d), want (-250000, 400000)", off, rtt)
	}
}
