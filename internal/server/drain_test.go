package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"sealdb/internal/lsm"
	"sealdb/internal/sealclient"
	"sealdb/internal/wire"
)

// cleanShutdownErr reports whether err is an acceptable way for an
// in-flight request to fail during a graceful drain: the connection
// went away or the store refused cleanly. A timeout or a garbled
// frame would mean the drain left a response half-written.
func cleanShutdownErr(err error) bool {
	return errors.Is(err, sealclient.ErrConn) ||
		errors.Is(err, sealclient.ErrStoreClosed) ||
		errors.Is(err, sealclient.ErrClosed) ||
		errors.Is(err, sealclient.ErrUnavailable)
}

// TestDrainUnderMultiClientLoad races Close against four clients,
// each hammering mixed reads and writes from two goroutines. The
// drain contract: Close returns within DrainTimeout plus slack, every
// racing op ends in nil or a clean sentinel (never a timeout, never a
// torn frame surfacing as a decode error), and every write that was
// acknowledged OK is readable straight from the DB afterwards.
func TestDrainUnderMultiClientLoad(t *testing.T) {
	const (
		nClients    = 4
		perClient   = 2
		drainWindow = 3 * time.Second
	)
	db, srv := newTestServer(t, Config{DrainTimeout: drainWindow})

	var mu sync.Mutex
	acked := map[string]string{}

	var wg sync.WaitGroup
	started := make(chan struct{})
	for ci := 0; ci < nClients; ci++ {
		c, err := sealclient.Dial(srv.Addr().String(), sealclient.Options{
			Timeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatalf("dial %d: %v", ci, err)
		}
		defer c.Close()
		for g := 0; g < perClient; g++ {
			wg.Add(1)
			go func(c *sealclient.Client, worker int) {
				defer wg.Done()
				for i := 0; ; i++ {
					k := fmt.Sprintf("drain-w%02d-%06d", worker, i)
					v := fmt.Sprintf("val-%d", i)
					if err := c.Put([]byte(k), []byte(v)); err != nil {
						if !cleanShutdownErr(err) {
							t.Errorf("worker %d put: dirty shutdown error %v", worker, err)
						}
						return
					}
					mu.Lock()
					acked[k] = v
					n := len(acked)
					mu.Unlock()
					if n >= nClients*perClient*20 {
						select {
						case <-started:
						default:
							close(started)
						}
					}
					// Read back an earlier own write; during the race a
					// clean connection error is fine, a wrong value never is.
					if i > 0 {
						rk := fmt.Sprintf("drain-w%02d-%06d", worker, i-1)
						got, err := c.Get([]byte(rk))
						if err != nil {
							if !cleanShutdownErr(err) {
								t.Errorf("worker %d get: dirty shutdown error %v", worker, err)
							}
							return
						}
						if string(got) != fmt.Sprintf("val-%d", i-1) {
							t.Errorf("worker %d read torn value %q for %s", worker, got, rk)
							return
						}
					}
				}
			}(c, ci*perClient+g)
		}
	}

	// Let traffic build, then drain mid-stream and time it.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("workers never reached steady state")
	}
	t0 := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if took := time.Since(t0); took > drainWindow+2*time.Second {
		t.Fatalf("Close took %v, want under DrainTimeout (%v) plus slack", took, drainWindow)
	}

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(15 * time.Second):
		t.Fatal("client workers still running after server close")
	}

	// Durability of the ack: everything acknowledged OK must be in the
	// store, bypassing the (now closed) TCP path.
	mu.Lock()
	defer mu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no writes acked before drain; test raced wrong")
	}
	for k, v := range acked {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("acked write %q lost after drain: (%q, %v)", k, got, err)
		}
	}
	t.Logf("drained with %d acked writes intact", len(acked))
}

// TestDrainIdleConnectionsIsFast checks that Close does not sit out
// the whole DrainTimeout waiting on idle connections: readers blocked
// in ReadFrame must be kicked immediately, so a server with only idle
// clients drains in a fraction of the configured window.
func TestDrainIdleConnectionsIsFast(t *testing.T) {
	_, srv := newTestServer(t, Config{DrainTimeout: 10 * time.Second})
	var clients []*sealclient.Client
	for i := 0; i < 3; i++ {
		c, err := sealclient.Dial(srv.Addr().String(), sealclient.Options{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer c.Close()
		// One round trip each so the connection is fully established
		// and the server-side reader is parked in a blocking read.
		if err := c.Put([]byte(fmt.Sprintf("idle%d", i)), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		clients = append(clients, c)
	}

	t0 := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Fatalf("Close with idle connections took %v, want well under the 10s DrainTimeout", took)
	}

	// The drained connections fail cleanly, not with timeouts.
	for i, c := range clients {
		if _, err := c.Get([]byte("idle0")); err == nil || !cleanShutdownErr(err) {
			t.Fatalf("client %d post-drain get: err = %v, want clean shutdown sentinel", i, err)
		}
	}
}

// stallReplies pipelines n GETs of a 256 KiB value on a raw connection
// and never reads a reply, then waits until the server's reader stops
// making progress: it is blocked in a reply write the client will not
// absorb.
func stallReplies(t *testing.T, db *lsm.DB, srv *Server, n int) *net.TCPConn {
	t.Helper()
	if err := db.Put([]byte("big"), make([]byte, 256<<10)); err != nil {
		t.Fatal(err)
	}
	nc, _, _ := rawConn(t, srv.Addr().String(),
		wire.Hello{Magic: wire.Magic, Version: wire.Version})
	var buf []byte
	for id := uint64(1); id <= uint64(n); id++ {
		buf = wire.AppendFrame(buf, &wire.Frame{Op: wire.OpGet, ReqID: id, Payload: wire.AppendGet(nil, []byte("big"))})
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("write pipeline: %v", err)
	}
	last := int64(-1)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		got := srv.m.requests.Value()
		if got > 0 && got == last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server reader never stalled (%d requests executed)", got)
		}
		last = got
	}
	if got := srv.m.requests.Value(); got >= int64(n) {
		t.Fatalf("server executed all %d requests; replies were absorbed, nothing stalled", got)
	}
	return nc.(*net.TCPConn)
}

// TestDrainReleasesReaderBlockedInReplyWrite checks that Close returns
// within DrainTimeout plus slack, well before the 10 s write deadline,
// while a connection's reader is blocked writing replies to a client
// that never reads: force-closing the socket fails that write.
func TestDrainReleasesReaderBlockedInReplyWrite(t *testing.T) {
	db, srv := newTestServer(t, Config{DrainTimeout: 200 * time.Millisecond})
	stallReplies(t, db, srv, 200)
	t0 := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if took := time.Since(t0); took > 3*time.Second {
		t.Fatalf("Close took %v with a reader blocked in its reply write", took)
	}
	if n := len(srv.openConns()); n != 0 {
		t.Fatalf("%d connections still open after Close", n)
	}
}

// TestFailedReplyWriteClosesConnection resets a connection whose
// reader is blocked in a reply write: the failed write must end the
// connection at once, not after the reader has executed every
// request still buffered, whose replies could only be dropped.
func TestFailedReplyWriteClosesConnection(t *testing.T) {
	const n = 200
	db, srv := newTestServer(t, Config{})
	nc := stallReplies(t, db, srv, n)
	if err := nc.SetLinger(0); err != nil {
		t.Fatal(err)
	}
	nc.Close() // with linger 0: a reset, failing the server's write
	for deadline := time.Now().Add(5 * time.Second); len(srv.openConns()) > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("connection still open 5s after its client reset it")
		}
	}
	if got := srv.m.requests.Value(); got >= n {
		t.Fatalf("server executed %d of %d requests after their replies could no longer be written", got, n)
	}
	if srv.m.connErrors.Value() == 0 {
		t.Fatal("failed reply write not counted as a connection error")
	}
}
