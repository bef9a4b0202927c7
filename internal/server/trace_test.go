package server

import (
	"bufio"
	"fmt"
	"testing"

	"sealdb/internal/lsm"
	"sealdb/internal/obs"
	"sealdb/internal/wire"
)

// TestTraceE2EAttribution is the tracing acceptance test: a client
// negotiating wire.FeatureTrace turns the engine tracer on, and a GET
// issued over TCP with a known request id yields a journaled span tree
// whose op_get root carries that wire id and the platter reads the
// lookup caused, with a stage child per part of the read path.
func TestTraceE2EAttribution(t *testing.T) {
	cfg := lsm.DefaultConfig(lsm.ModeSEALDB)
	cfg.Trace.SampleEvery = 1 // journal every op; Enabled stays false until negotiated
	db, err := lsm.Open(cfg)
	if err != nil {
		t.Fatalf("open db: %v", err)
	}
	srv, err := Serve(db, "127.0.0.1:0", Config{})
	if err != nil {
		db.Close()
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})

	nc, br, hr := rawConn(t, srv.Addr().String(),
		wire.Hello{Magic: wire.Magic, Version: wire.Version,
			Features: wire.FeatureTrace})
	st, body, err := wire.ParseReply(hr.Payload)
	if err != nil || st != wire.StatusOK {
		t.Fatalf("handshake reply: %v %v", st, err)
	}
	h, err := wire.DecodeHello(body)
	if err != nil {
		t.Fatalf("decode hello: %v", err)
	}
	if h.Features&wire.FeatureTrace == 0 {
		t.Fatalf("server did not grant FeatureTrace (features %#x)", h.Features)
	}
	// Push enough data through the wire that early keys are flushed to
	// SSTables, so the probe GET must do physical reads.
	val := make([]byte, 2048)
	const puts = 300
	var buf []byte
	for id := uint64(1); id <= puts; id++ {
		key := []byte(fmt.Sprintf("trace-key-%04d", id))
		buf = wire.AppendFrame(buf, &wire.Frame{Op: wire.OpPut, ReqID: id,
			Payload: wire.AppendPut(nil, key, val)})
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("write puts: %v", err)
	}
	drainOK(t, br, puts)

	const probeID = 0xBEEF
	f := wire.Frame{Op: wire.OpGet, ReqID: probeID,
		Payload: wire.AppendGet(nil, []byte("trace-key-0001"))}
	if err := wire.WriteFrame(nc, &f); err != nil {
		t.Fatalf("write get: %v", err)
	}
	drainOK(t, br, 1)

	var root *obs.SpanNode
	for _, n := range obs.SpanTrees(db.Events()) {
		if n.Type == "op_get" && n.Fields["req_id"] == probeID {
			root = n
		}
	}
	if root == nil {
		t.Fatalf("no op_get span with wire req id %#x in the journal: negotiating FeatureTrace did not enable the engine tracer", probeID)
	}
	if root.Fields["reads"] == 0 || root.Fields["read_bytes"] == 0 {
		t.Errorf("op_get totals = %v, want attributed physical reads", root.Fields)
	}
	if len(root.Children) == 0 {
		t.Error("op_get span has no stage children")
	}
}

// drainOK reads n replies and requires every status to be OK.
func drainOK(t *testing.T, br *bufio.Reader, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
		if err != nil {
			t.Fatalf("read reply %d: %v", i, err)
		}
		st, _, err := wire.ParseReply(f.Payload)
		if err != nil || st != wire.StatusOK {
			t.Fatalf("reply %d (req %d): status %v err %v", i, f.ReqID, st, err)
		}
	}
}
