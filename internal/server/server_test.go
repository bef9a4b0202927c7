package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sealdb/internal/lsm"
	"sealdb/internal/sealclient"
	"sealdb/internal/wire"
)

func newTestServer(t *testing.T, cfg Config) (*lsm.DB, *Server) {
	t.Helper()
	db, err := lsm.Open(lsm.DefaultConfig(lsm.ModeSEALDB))
	if err != nil {
		t.Fatalf("open db: %v", err)
	}
	srv, err := Serve(db, "127.0.0.1:0", cfg)
	if err != nil {
		db.Close()
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return db, srv
}

// TestServerE2E is the acceptance test: two sealclient connections
// pooled across four worker goroutines drive pipelined mixed
// reads/writes over a real TCP socket, each worker owning a disjoint
// key range and checking every read against its own model; at the end
// the server's full contents are compared against an in-process
// oracle DB that replayed the same acknowledged mutations.
func TestServerE2E(t *testing.T) {
	_, srv := newTestServer(t, Config{})

	oracle, err := lsm.Open(lsm.DefaultConfig(lsm.ModeSEALDB))
	if err != nil {
		t.Fatalf("open oracle: %v", err)
	}
	defer oracle.Close()
	var oracleMu sync.Mutex

	addr := srv.Addr().String()
	clients := make([]*sealclient.Client, 2)
	for i := range clients {
		c, err := sealclient.Dial(addr, sealclient.Options{Conns: 1, Timeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer c.Close()
		clients[i] = c
	}

	const workers = 4
	const opsPerWorker = 400
	const keyspace = 64
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Two workers per client: concurrent requests on a shared
			// connection pipeline.
			cl := clients[w%len(clients)]
			rng := rand.New(rand.NewSource(int64(w) + 1))
			model := map[string]string{}
			key := func(i int) []byte { return []byte(fmt.Sprintf("w%d-key%05d", w, i)) }
			fail := func(format string, args ...any) {
				select {
				case errCh <- fmt.Errorf("worker %d: %s", w, fmt.Sprintf(format, args...)):
				default:
				}
			}
			mutateOracle := func(f func(b *lsm.Batch)) error {
				b := lsm.NewBatch()
				f(b)
				oracleMu.Lock()
				defer oracleMu.Unlock()
				return oracle.Apply(b)
			}
			for i := 0; i < opsPerWorker; i++ {
				k := key(rng.Intn(keyspace))
				switch p := rng.Float64(); {
				case p < 0.5: // put
					v := []byte(fmt.Sprintf("w%d-val-%d", w, i))
					if err := cl.Put(k, v); err != nil {
						fail("Put(%q): %v", k, err)
						return
					}
					model[string(k)] = string(v)
					if err := mutateOracle(func(b *lsm.Batch) { b.Put(k, v) }); err != nil {
						fail("oracle Put: %v", err)
						return
					}
				case p < 0.6: // delete
					if err := cl.Delete(k); err != nil {
						fail("Delete(%q): %v", k, err)
						return
					}
					delete(model, string(k))
					if err := mutateOracle(func(b *lsm.Batch) { b.Delete(k) }); err != nil {
						fail("oracle Delete: %v", err)
						return
					}
				case p < 0.7: // atomic batch of three
					var batch sealclient.Batch
					var keys [][]byte
					var vals [][]byte
					for j := 0; j < 3; j++ {
						bk := key(rng.Intn(keyspace))
						bv := []byte(fmt.Sprintf("w%d-batch-%d-%d", w, i, j))
						batch.Put(bk, bv)
						keys, vals = append(keys, bk), append(vals, bv)
					}
					if err := cl.Apply(&batch); err != nil {
						fail("Apply: %v", err)
						return
					}
					if err := mutateOracle(func(b *lsm.Batch) {
						for j := range keys {
							b.Put(keys[j], vals[j])
						}
					}); err != nil {
						fail("oracle Apply: %v", err)
						return
					}
					for j := range keys {
						model[string(keys[j])] = string(vals[j])
					}
				case p < 0.9: // read, checked against the worker's model
					v, err := cl.Get(k)
					want, ok := model[string(k)]
					switch {
					case !ok && !errors.Is(err, sealclient.ErrNotFound):
						fail("Get(%q) = %v, want ErrNotFound", k, err)
						return
					case ok && (err != nil || string(v) != want):
						fail("Get(%q) = (%q, %v), want %q", k, v, err, want)
						return
					}
				default: // scan within the worker's own prefix
					kvs, err := cl.Scan([]byte(fmt.Sprintf("w%d-", w)), 10)
					if err != nil {
						fail("Scan: %v", err)
						return
					}
					for _, e := range kvs {
						if !strings.HasPrefix(string(e.Key), fmt.Sprintf("w%d-", w)) {
							break // ran past the worker's range; fine
						}
						if want, ok := model[string(e.Key)]; ok && string(e.Value) != want {
							fail("Scan saw %q=%q, model has %q", e.Key, e.Value, want)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Full-store comparison against the oracle: same keys, same values,
	// same order.
	got, err := clients[0].Scan(nil, 1<<20)
	if err != nil {
		t.Fatalf("final scan: %v", err)
	}
	want, err := oracle.Scan(nil, 1<<20)
	if err != nil {
		t.Fatalf("oracle scan: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("server has %d live keys, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("entry %d: server %q=%q, oracle %q=%q",
				i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}

	// STATS over the wire reflects the run.
	raw, err := clients[0].Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var stats struct {
		Degraded bool `json:"degraded"`
		Server   struct {
			Requests        int64 `json:"requests"`
			CoalescedGroups int64 `json:"coalesced_groups"`
			CoalescedWrites int64 `json:"coalesced_writes"`
		} `json:"server"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats payload: %v\n%s", err, raw)
	}
	if stats.Degraded {
		t.Fatal("store reports degraded after a clean run")
	}
	if stats.Server.Requests < workers*opsPerWorker {
		t.Fatalf("server counted %d requests, want >= %d", stats.Server.Requests, workers*opsPerWorker)
	}
	if stats.Server.CoalescedGroups == 0 || stats.Server.CoalescedWrites < stats.Server.CoalescedGroups {
		t.Fatalf("implausible coalescing stats: %d groups, %d writes",
			stats.Server.CoalescedGroups, stats.Server.CoalescedWrites)
	}

	// The observability handler exposes the serving-layer series and
	// the per-connection profile.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, series := range []string{
		"sealdb_server_conns_accepted_total",
		"sealdb_server_conns_open",
		"sealdb_server_inflight",
		"sealdb_server_requests_total",
		"sealdb_server_bytes_in_total",
		"sealdb_server_bytes_out_total",
		"sealdb_server_coalesced_commits_total",
		"sealdb_server_coalesced_group_requests",
		"sealdb_server_get_latency_ns",
		"sealdb_server_write_latency_ns",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/conns", nil))
	var conns []ConnInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &conns); err != nil {
		t.Fatalf("/debug/conns: %v\n%s", err, rec.Body.String())
	}
	if len(conns) != len(clients) {
		t.Fatalf("/debug/conns shows %d connections, want %d", len(conns), len(clients))
	}
	for _, ci := range conns {
		if !ci.Handshook || ci.Requests == 0 || ci.BytesIn == 0 || ci.BytesOut == 0 {
			t.Errorf("connection %d looks idle: %+v", ci.ID, ci)
		}
	}

	// And the DB-level endpoints still answer through the same handler.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/levels", nil))
	if rec.Code != 200 {
		t.Errorf("/debug/levels = %d, want 200", rec.Code)
	}
}

// rawConn dials and handshakes a bare TCP connection for protocol-
// level tests.
func rawConn(t *testing.T, addr string, h wire.Hello) (net.Conn, *bufio.Reader, wire.Frame) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	f := wire.Frame{Op: wire.OpHello, Payload: wire.AppendHello(nil, h)}
	if err := wire.WriteFrame(nc, &f); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	br := bufio.NewReader(nc)
	rf, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
	if err != nil {
		t.Fatalf("read hello reply: %v", err)
	}
	return nc, br, rf
}

// TestPipelinedOutOfOrderResponses proves the wire contract directly:
// many requests written back-to-back without reading, responses
// matched by request ID regardless of arrival order.
func TestPipelinedOutOfOrderResponses(t *testing.T) {
	db, srv := newTestServer(t, Config{})
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	nc, br, hr := rawConn(t, srv.Addr().String(),
		wire.Hello{Magic: wire.Magic, Version: wire.Version})
	st, _, err := wire.ParseReply(hr.Payload)
	if err != nil || st != wire.StatusOK {
		t.Fatalf("handshake reply: %v %v", st, err)
	}

	// Interleave gets and puts: replies to the gets may overtake the
	// puts' group-commit acks.
	const n = 32
	var buf []byte
	for id := uint64(1); id <= n; id++ {
		if id%2 == 0 {
			buf = wire.AppendFrame(buf, &wire.Frame{Op: wire.OpGet, ReqID: id,
				Payload: wire.AppendGet(nil, []byte("k"))})
		} else {
			buf = wire.AppendFrame(buf, &wire.Frame{Op: wire.OpPut, ReqID: id,
				Payload: wire.AppendPut(nil, []byte("k"), []byte("v2"))})
		}
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("write pipeline: %v", err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		f, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
		if err != nil {
			t.Fatalf("read reply %d: %v", i, err)
		}
		if f.Op != wire.OpReply || seen[f.ReqID] || f.ReqID < 1 || f.ReqID > n {
			t.Fatalf("reply %d: op=%#x id=%d (dup=%v)", i, byte(f.Op), f.ReqID, seen[f.ReqID])
		}
		seen[f.ReqID] = true
		st, _, err := wire.ParseReply(f.Payload)
		if err != nil || st != wire.StatusOK {
			t.Fatalf("reply %d (req %d): status %v err %v", i, f.ReqID, st, err)
		}
	}
}

func TestHandshakeRefusals(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	cases := []struct {
		name string
		h    wire.Hello
		want wire.Status
	}{
		{"bad magic", wire.Hello{Magic: 0xDEADBEEF, Version: wire.Version}, wire.StatusBadRequest},
		{"future version", wire.Hello{Magic: wire.Magic, Version: 99}, wire.StatusUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, rf := rawConn(t, srv.Addr().String(), tc.h)
			st, _, err := wire.ParseReply(rf.Payload)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if st != tc.want {
				t.Fatalf("status = %v, want %v", st, tc.want)
			}
		})
	}
}

func TestFeatureNegotiationIntersects(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	_, _, rf := rawConn(t, srv.Addr().String(),
		wire.Hello{Magic: wire.Magic, Version: wire.Version, Features: 1<<0 | wire.FeatureTrace | 1<<9})
	st, body, err := wire.ParseReply(rf.Payload)
	if err != nil || st != wire.StatusOK {
		t.Fatalf("handshake: %v %v", st, err)
	}
	h, err := wire.DecodeHello(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Features != wire.FeatureTrace {
		t.Fatalf("negotiated features = %#x, want trace only (retired and unknown bits dropped)", h.Features)
	}
}

func TestMaxConnsRejection(t *testing.T) {
	_, srv := newTestServer(t, Config{MaxConns: 1})
	c1, err := sealclient.Dial(srv.Addr().String(), sealclient.Options{})
	if err != nil {
		t.Fatalf("first dial: %v", err)
	}
	defer c1.Close()
	_, err = sealclient.Dial(srv.Addr().String(), sealclient.Options{DialTimeout: 2 * time.Second})
	if !errors.Is(err, sealclient.ErrUnavailable) {
		t.Fatalf("second dial err = %v, want ErrUnavailable", err)
	}
}

// TestGracefulDrain closes the server while writes are in flight:
// every write acknowledged OK must be readable from the DB afterward,
// and the client must fail cleanly rather than hang.
func TestGracefulDrain(t *testing.T) {
	db, srv := newTestServer(t, Config{DrainTimeout: 3 * time.Second})
	c, err := sealclient.Dial(srv.Addr().String(), sealclient.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	var mu sync.Mutex
	acked := map[string]string{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			k := fmt.Sprintf("drain-key%06d", i)
			v := fmt.Sprintf("val%d", i)
			if err := c.Put([]byte(k), []byte(v)); err != nil {
				return // server went away; expected
			}
			mu.Lock()
			acked[k] = v
			mu.Unlock()
		}
	}()

	// Let some writes land, then drain mid-stream.
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 50 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("client writer still running after server close")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(acked) < 50 {
		t.Fatalf("only %d acked writes", len(acked))
	}
	for k, v := range acked {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("acked write %q lost after drain: (%q, %v)", k, got, err)
		}
	}
}

// TestOversizedFrameRefused checks the explicit TooLarge refusal: a
// header declaring one byte past wire.DefaultMaxFrame is refused before
// any of its body is read.
func TestOversizedFrameRefused(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	nc, br, hr := rawConn(t, srv.Addr().String(),
		wire.Hello{Magic: wire.Magic, Version: wire.Version})
	if st, _, err := wire.ParseReply(hr.Payload); err != nil || st != wire.StatusOK {
		t.Fatalf("handshake: %v %v", st, err)
	}
	hdr := binary.LittleEndian.AppendUint32(nil, wire.DefaultMaxFrame+1)
	if _, err := nc.Write(hdr); err != nil {
		t.Fatalf("write: %v", err)
	}
	rf, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
	if err != nil {
		t.Fatalf("read refusal: %v", err)
	}
	st, _, err := wire.ParseReply(rf.Payload)
	if err != nil {
		t.Fatalf("parse refusal: %v", err)
	}
	if st != wire.StatusTooLarge {
		t.Fatalf("status = %v, want StatusTooLarge", st)
	}
}

// TestStatsBodyDoesNotGrowWithCompactions checks that the STATS reply
// carries counters, not the engine's per-job records: after dozens of
// flushes and compactions the body is as long as before them, give or
// take the digits its counters gained.
func TestStatsBodyDoesNotGrowWithCompactions(t *testing.T) {
	db, srv := newTestServer(t, Config{})
	c, err := sealclient.Dial(srv.Addr().String(), sealclient.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	before, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	val := make([]byte, 1024)
	rng := rand.New(rand.NewSource(1))
	for len(db.Stats().Compactions) < 40 {
		rng.Read(val)
		if err := db.Put([]byte(fmt.Sprintf("key%08d", rng.Intn(1<<20))), val); err != nil {
			t.Fatal(err)
		}
	}
	after, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if grew := len(after) - len(before); grew > 256 {
		t.Fatalf("STATS body grew %d bytes (%d → %d) over 40 jobs:\n%s", grew, len(before), len(after), after)
	}
	var p struct {
		Stats struct{ FlushCount int64 } `json:"stats"`
	}
	if err := json.Unmarshal(after, &p); err != nil || p.Stats.FlushCount == 0 {
		t.Fatalf("STATS lost its counters: flushes %d, err %v\n%s", p.Stats.FlushCount, err, after)
	}
}
