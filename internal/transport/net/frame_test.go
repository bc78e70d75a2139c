package netrepl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"opdelta/internal/obs"
)

// TestFrameRoundTrip: every type and assorted payload sizes survive
// write→read intact.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xA5}, 10_000)}
	types := []byte{FrameHello, FrameWelcome, FrameDelta, FrameAck, FrameBusy, FrameHeartbeat, FrameShutdown, FrameReject}
	var buf bytes.Buffer
	for _, typ := range types {
		for i, p := range payloads {
			buf.Reset()
			if err := WriteFrame(&buf, typ, FlagReply, p); err != nil {
				t.Fatalf("%s payload %d: write: %v", frameName(typ), i, err)
			}
			gt, gf, gp, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("%s payload %d: read: %v", frameName(typ), i, err)
			}
			if gt != typ || gf != FlagReply || !bytes.Equal(gp, p) {
				t.Fatalf("%s payload %d: round trip mismatch", frameName(typ), i)
			}
		}
	}
}

// TestFrameCorruptionDetected: flipping any single byte of an encoded
// frame must fail the read — the CRC covers header and payload both.
func TestFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameDelta, 0, []byte("the quick brown fox")); err != nil {
		t.Fatal(err)
	}
	clean := append([]byte(nil), buf.Bytes()...)
	for i := range clean {
		for _, bit := range []byte{0x01, 0x80} {
			dirty := append([]byte(nil), clean...)
			dirty[i] ^= bit
			_, _, _, err := ReadFrame(bytes.NewReader(dirty))
			if err == nil {
				t.Fatalf("flipped bit %02x at byte %d went undetected", bit, i)
			}
		}
	}
	// A torn frame (prefix only) is a transport error, not silence.
	for _, cut := range []int{1, headerSize - 1, headerSize, len(clean) - 1} {
		_, _, _, err := ReadFrame(bytes.NewReader(clean[:cut]))
		if err == nil {
			t.Fatalf("torn frame (%d of %d bytes) read successfully", cut, len(clean))
		}
	}
	// Oversized declared length fails before allocation.
	huge := append([]byte(nil), clean...)
	huge[2], huge[3], huge[4], huge[5] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, _, _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized length: err = %v, want ErrBadFrame", err)
	}
}

// TestDeltaPayloadRoundTrip: batch encode/parse preserves op frames and
// rejects truncation.
func TestDeltaPayloadRoundTrip(t *testing.T) {
	ops := [][]byte{
		append(seqPayload(7), []byte("op-seven")...),
		append(seqPayload(8), []byte("op-eight")...),
		seqPayload(9),
	}
	p := deltaPayload(6, ops)
	prev, got, err := parseDelta(p)
	if err != nil {
		t.Fatal(err)
	}
	if prev != 6 {
		t.Fatalf("prev seq = %d, want 6", prev)
	}
	if len(got) != len(ops) {
		t.Fatalf("parsed %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if !bytes.Equal(got[i], ops[i]) {
			t.Fatalf("op %d mismatch", i)
		}
		seq, err := opSeq(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(7 + i); seq != want {
			t.Fatalf("op %d seq = %d, want %d", i, seq, want)
		}
	}
	if _, _, err := parseDelta(p[:len(p)-2]); err == nil {
		t.Fatal("truncated DELTA parsed successfully")
	}
	if _, _, err := parseDelta(append(p, 0)); err == nil {
		t.Fatal("DELTA with trailing garbage parsed successfully")
	}
}

// TestHelloRoundTrip checks the handshake payload codec.
func TestHelloRoundTrip(t *testing.T) {
	v, base, sendNs, src, err := parseHello(helloPayload("src-a", 42, 777))
	if err != nil {
		t.Fatal(err)
	}
	if v != Version || src != "src-a" || base != 42 || sendNs != 777 {
		t.Fatalf("parsed version %d source %q base %d sendNs %d", v, src, base, sendNs)
	}
	if _, _, _, _, err := parseHello([]byte{Version}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("HELLO without base: err = %v, want ErrBadFrame", err)
	}
	// A foreign version is peeked before the rest of the payload, so
	// the server can name it in its REJECT whatever shape follows.
	for _, foreign := range [][]byte{append([]byte{1}, "old"...), append([]byte{2, 42}, "src-a"...)} {
		if v, _, _, _, _ := parseHello(foreign); v != foreign[0] {
			t.Fatalf("foreign HELLO %v: version = %d, want %d", foreign, v, foreign[0])
		}
	}
	seq, err := parseSeq(seqPayload(1 << 40))
	if err != nil || seq != 1<<40 {
		t.Fatalf("seq round trip: %d, %v", seq, err)
	}
	if _, err := parseSeq([]byte{1, 2, 3}); err == nil {
		t.Fatal("short seq payload parsed successfully")
	}
}

// hugeCount is a uvarint element count no payload can hold; before
// counts were bounded by the bytes left it reached make() as a slice
// capacity and panicked.
var hugeCount = binary.AppendUvarint(nil, 1<<62)

// TestPayloadCountBounded: every count-bearing parser rejects a count
// larger than its remaining bytes as a corrupt frame.
func TestPayloadCountBounded(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	welcome := cat(seqPayload(7), []byte{ModeBootstrap}, hugeCount, make([]byte, 24))
	cases := []struct {
		name  string
		parse func([]byte) error
		p     []byte
	}{
		{"DELTA", func(p []byte) error { _, _, err := parseDelta(p); return err },
			cat([]byte{0}, hugeCount)},
		{"SNAPSHOT_CHUNK", func(p []byte) error { _, _, _, _, _, _, err := parseChunk(p); return err },
			cat([]byte{1, 0, 0}, appendBlob(nil, []byte("parts")), appendBlob(nil, nil), hugeCount)},
		{"CHUNK_ACK", func(p []byte) error { _, _, _, _, err := parseChunkAck(p); return err },
			cat([]byte{1, 0, chunkResend}, hugeCount)},
		{"WELCOME", func(p []byte) error { _, _, _, _, err := parseWelcome(p); return err }, welcome},
	}
	for _, c := range cases {
		if err := c.parse(c.p); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s with count 2^62: err = %v, want ErrBadFrame", c.name, err)
		}
	}
}

// FuzzPayloadParsers feeds every input to every payload parser and the
// trace-trailer split: none may panic, and every failure must be a
// corrupt-frame error (the server drops the connection on exactly
// those).
func FuzzPayloadParsers(f *testing.F) {
	// One valid payload of each kind, plus a huge-count DELTA.
	tc := obs.TraceContext{TraceID: 1, SpanID: 2, CaptureUnixNs: 3}
	seeds := [][]byte{
		helloPayload("src-a", 42, 777),
		welcomePayload(9, ModeBootstrap, []BootstrapProgress{{Table: "parts", LastKey: []byte("k")}, {Table: "t2", Done: true}},
			skewTimes{T0: 1, T1: 2, T2: 3}),
		welcomePayload(5, ModeStream, nil, skewTimes{T0: 4, T1: 5, T2: 6}),
		seqPayload(42),
		deltaPayload(6, [][]byte{append(seqPayload(7), "op"...), seqPayload(8)}),
		appendTraceTrailer(deltaPayload(0, [][]byte{seqPayload(1)}), tc),
		watermarkPayload(wmHigh, 3, 1, 99),
		chunkPayload(3, 1, chunkFinal, "parts", []byte("pk"), [][]byte{[]byte("row-1"), nil}),
		chunkAckPayload(3, 1, chunkResend, [][]byte{[]byte("k1"), []byte("k2")}),
		probePayload(100, -7, 42, true),
		echoPayload(skewTimes{T0: 1, T1: 2, T2: 3}),
		append([]byte{0}, hugeCount...),
	}
	for _, p := range seeds {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		check := func(name string, err error) {
			if err != nil && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s: err = %v, want nil or ErrBadFrame", name, err)
			}
		}
		_, _, _, _, err := parseHello(p)
		check("HELLO", err)
		_, _, _, _, err = parseWelcome(p)
		check("WELCOME", err)
		_, err = parseSeq(p)
		check("ACK", err)
		_, _, err = parseDelta(p)
		check("DELTA", err)
		_, _, _, _, err = parseWatermark(p)
		check("WATERMARK", err)
		_, _, _, _, _, _, err = parseChunk(p)
		check("SNAPSHOT_CHUNK", err)
		_, _, _, _, err = parseChunkAck(p)
		check("CHUNK_ACK", err)
		_, _, _, _, err = parseProbe(p)
		check("probe", err)
		_, err = parseEcho(p)
		check("echo", err)
		_, _, err = splitTraceTrailer(FlagTrace, p)
		check("trace trailer", err)
	})
}

// io.Reader sanity: ReadFrame must work over a reader that returns one
// byte at a time (TCP segment boundaries are arbitrary).
func TestFrameReadByteAtATime(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameAck, 0, seqPayload(42)); err != nil {
		t.Fatal(err)
	}
	typ, _, payload, err := ReadFrame(iotest{r: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if typ != FrameAck {
		t.Fatalf("type = %s", frameName(typ))
	}
	if seq, _ := parseSeq(payload); seq != 42 {
		t.Fatalf("seq = %d", seq)
	}
}

type iotest struct{ r io.Reader }

func (o iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}
