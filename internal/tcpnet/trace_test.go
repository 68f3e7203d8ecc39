package tcpnet

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"gengar/internal/telemetry/span"
)

// startTracedServer launches one daemon and returns it together with
// its address, so tests can read its tracer's slow-op ring.
func startTracedServer(t *testing.T, mutate func(*ServerConfig)) (*PoolServer, string) {
	t.Helper()
	cfg := ServerConfig{ID: 1, PoolBytes: 1 << 20}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewPoolServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(lis) }()
	t.Cleanup(srv.Close)
	return srv, lis.Addr().String()
}

// stages flattens a record's stage names.
func stages(r span.Record) []string {
	out := make([]string, len(r.Stages))
	for i, s := range r.Stages {
		out[i] = s.Stage
	}
	return out
}

// findRecord polls the tracer's ring for a record matching op and
// traceID (0 matches any) — the server half finishes on the writer
// goroutine after the response writev, slightly after the client
// observes the response.
func findRecord(t *testing.T, tr *span.Tracer, op string, traceID uint64) span.Record {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		for _, r := range tr.Records() {
			if r.Op == op && (traceID == 0 || r.TraceID == traceID) {
				return r
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q record with trace ID %#x in ring: %+v", op, traceID, tr.Records())
		}
		time.Sleep(time.Millisecond)
	}
}

func hasStage(seq []string, want string) bool {
	for _, s := range seq {
		if s == want {
			return true
		}
	}
	return false
}

// TestTracedOpsStitchClientAndServerSpans drives a sampled read and a
// sampled staged write through a real daemon and checks both halves of
// each trace: the client span's wire stages, the server span's engine
// stages, and the shared trace ID that stitches them.
func TestTracedOpsStitchClientAndServerSpans(t *testing.T) {
	srv, addr := startTracedServer(t, nil)
	p, err := DialConfig(PoolConfig{Addrs: []string{addr}, Timeout: 2 * time.Second, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	a, err := p.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x7e}, 256)
	if err := p.Write(a, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if err := p.Read(a, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read returned wrong bytes")
	}

	// Client halves: every op sampled at 1-in-1.
	cRead := findRecord(t, p.Tracer(), "read", 0)
	if cRead.Remote || cRead.TraceID == 0 {
		t.Fatalf("client read span: %+v", cRead)
	}
	cSeq := stages(cRead)
	for _, want := range []string{"encode", "netWait", "decode"} {
		if !hasStage(cSeq, want) {
			t.Fatalf("client read stages %v missing %q", cSeq, want)
		}
	}
	cWrite := findRecord(t, p.Tracer(), "write", 0)
	wSeq := stages(cWrite)
	for _, want := range []string{"encode", "netWait"} {
		if !hasStage(wSeq, want) {
			t.Fatalf("client write stages %v missing %q", wSeq, want)
		}
	}

	// Server halves: remote spans carrying the client's trace IDs.
	sRead := findRecord(t, srv.Tracer(), "read", cRead.TraceID)
	if !sRead.Remote {
		t.Fatalf("server read span not remote: %+v", sRead)
	}
	sSeq := stages(sRead)
	for _, want := range []string{"queueWait", "dispatch", "writevFlush"} {
		if !hasStage(sSeq, want) {
			t.Fatalf("server read stages %v missing %q", sSeq, want)
		}
	}
	if !hasStage(sSeq, "cacheHit") && !hasStage(sSeq, "nvmCopy") {
		t.Fatalf("server read stages %v name no serving path", sSeq)
	}
	sWrite := findRecord(t, srv.Tracer(), "write", cWrite.TraceID)
	swSeq := stages(sWrite)
	for _, want := range []string{"queueWait", "dispatch", "ringStage", "writevFlush"} {
		if !hasStage(swSeq, want) {
			t.Fatalf("server write stages %v missing %q", swSeq, want)
		}
	}
	// The daemon's records name the object and bytes each op touched.
	for _, r := range []span.Record{sRead, sWrite} {
		if r.Addr != uint64(a) || r.Len != 256 {
			t.Fatalf("server %s record names addr %#x len %d, want %#x len 256", r.Op, r.Addr, r.Len, uint64(a))
		}
	}
}

// TestClientGatesTraceOnNegotiation proves the wire extension is only
// sent to peers that advertised featureTrace: with the feature bit
// cleared locally, traced ops degrade to plain frames and no client
// spans open.
func TestClientGatesTraceOnNegotiation(t *testing.T) {
	addrs := startServers(t, 1, nil)
	p, err := DialConfig(PoolConfig{Addrs: addrs, Timeout: 2 * time.Second, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	// Simulate a pre-extension peer: negotiation said no.
	for _, sc := range p.conns {
		sc.features &^= featureTrace
	}
	a, err := p.Malloc(128)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{9}, 128)
	if err := p.Write(a, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := p.Read(a, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("roundtrip broken without trace negotiation")
	}
	if recs := p.Tracer().Records(); len(recs) != 0 {
		t.Fatalf("spans opened against a peer without featureTrace: %+v", recs)
	}
}

// TestServerRejectsMalformedTraceExtension sends a traced frame whose
// extension is garbage; the server must tear the connection down like
// any other unparseable header, not serve a misdecoded request.
func TestServerRejectsMalformedTraceExtension(t *testing.T) {
	_, addr := startTracedServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Frame: id 1, OpRead with the traced bit, then an extension whose
	// length word promises fewer bytes than this version requires.
	body := binary.BigEndian.AppendUint64(nil, 1)
	body = append(body, uint8(OpRead)|tagTraced)
	body = append(body, 4, 0xde, 0xad, 0xbe, 0xef)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	frame = append(frame, body...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("server answered a frame with a malformed trace extension")
	}
}
