package sealclient

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sealdb/internal/wire"
)

// stubServer accepts connections, answers the handshake, and then
// hands each decoded request frame to handle (which may return no
// reply to simulate a stall, or close the connection).
type stubServer struct {
	ln     net.Listener
	dials  atomic.Int64
	handle func(nc net.Conn, f wire.Frame) bool // false = drop connection
}

func newStubServer(t *testing.T, handle func(net.Conn, wire.Frame) bool) *stubServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &stubServer{ln: ln, handle: handle}
	go s.loop()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *stubServer) loop() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.dials.Add(1)
		go s.serve(nc)
	}
}

func (s *stubServer) serve(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	// Handshake.
	f, err := wire.ReadFrame(br, 1024)
	if err != nil || f.Op != wire.OpHello {
		return
	}
	h, err := wire.DecodeHello(f.Payload)
	if err != nil {
		return
	}
	ack := wire.Reply(f.ReqID, wire.StatusOK, wire.AppendHello(nil, wire.Hello{
		Magic: wire.Magic, Version: wire.Version, Features: h.Features,
	}))
	if err := wire.WriteFrame(nc, &ack); err != nil {
		return
	}
	for {
		f, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
		if err != nil {
			return
		}
		if !s.handle(nc, f) {
			return
		}
	}
}

func TestRequestTimeout(t *testing.T) {
	// A server that swallows every request forever: the client's
	// per-request timeout must fire, and the connection must survive.
	s := newStubServer(t, func(nc net.Conn, f wire.Frame) bool { return true })
	c, err := Dial(s.ln.Addr().String(), Options{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.Get([]byte("k"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Get err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v, want ~100ms", d)
	}
}

func TestLateReplyAfterTimeoutIsDiscarded(t *testing.T) {
	// Reply only to the second request; the first times out and its
	// late answer (never sent here) must not be delivered to the second
	// request's waiter. Verifies ID matching, not FIFO matching.
	var n atomic.Int64
	s := newStubServer(t, func(nc net.Conn, f wire.Frame) bool {
		if n.Add(1) == 1 {
			return true // swallow the first request
		}
		r := wire.Reply(f.ReqID, wire.StatusOK, []byte("v2"))
		return wire.WriteFrame(nc, &r) == nil
	})
	c, err := Dial(s.ln.Addr().String(), Options{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if _, err := c.Get([]byte("a")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("first Get err = %v, want ErrTimeout", err)
	}
	v, err := c.Get([]byte("b"))
	if err != nil || string(v) != "v2" {
		t.Fatalf("second Get = %q, %v; want v2", v, err)
	}
}

func TestBoundedReadRetry(t *testing.T) {
	// Drop the connection on the first two requests, answer the third:
	// a Get with its 2 retries must succeed after redialing, and the
	// dial count proves the retries happened over fresh connections.
	var n atomic.Int64
	s := newStubServer(t, func(nc net.Conn, f wire.Frame) bool {
		if n.Add(1) <= 2 {
			return false // kill the connection without replying
		}
		r := wire.Reply(f.ReqID, wire.StatusOK, []byte("ok"))
		return wire.WriteFrame(nc, &r) == nil
	})
	c, err := Dial(s.ln.Addr().String(), Options{Timeout: time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	v, err := c.Get([]byte("k"))
	if err != nil || string(v) != "ok" {
		t.Fatalf("Get = %q, %v; want ok after retries", v, err)
	}
	if got := s.dials.Load(); got != 3 {
		t.Fatalf("server saw %d dials, want 3 (initial + 2 redials)", got)
	}
}

func TestRetryExhaustionSurfacesConnError(t *testing.T) {
	// A server that always drops the connection: after the retry budget
	// is spent the client must report a connection error, and the dial
	// count must equal 1 + readRetries.
	s := newStubServer(t, func(nc net.Conn, f wire.Frame) bool { return false })
	c, err := Dial(s.ln.Addr().String(), Options{Timeout: time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if _, err := c.Get([]byte("k")); !errors.Is(err, ErrConn) {
		t.Fatalf("Get err = %v, want ErrConn", err)
	}
	if got := s.dials.Load(); got != 3 {
		t.Fatalf("server saw %d dials, want 3", got)
	}
}

func TestWritesAreNotRetried(t *testing.T) {
	var n atomic.Int64
	s := newStubServer(t, func(nc net.Conn, f wire.Frame) bool {
		n.Add(1)
		return false
	})
	c, err := Dial(s.ln.Addr().String(), Options{Timeout: time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if err := c.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrConn) {
		t.Fatalf("Put err = %v, want ErrConn", err)
	}
	if got := n.Load(); got != 1 {
		t.Fatalf("server saw %d write attempts, want exactly 1 (no retry)", got)
	}
}

func TestHandshakeVersionRefusal(t *testing.T) {
	// A listener that refuses the handshake with UNAVAILABLE: Dial must
	// fail with the mapped error, not hang or report a bare EOF.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		f, err := wire.ReadFrame(bufio.NewReader(nc), 1024)
		if err != nil {
			return
		}
		r := wire.Reply(f.ReqID, wire.StatusUnavailable, []byte("unsupported protocol version"))
		if err := wire.WriteFrame(nc, &r); err != nil {
			return
		}
	}()

	_, err = Dial(ln.Addr().String(), Options{DialTimeout: time.Second})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Dial err = %v, want ErrUnavailable", err)
	}
}

func TestStatusMapping(t *testing.T) {
	s := newStubServer(t, func(nc net.Conn, f wire.Frame) bool {
		var st wire.Status
		switch f.Op {
		case wire.OpGet:
			st = wire.StatusNotFound
		case wire.OpPut:
			st = wire.StatusDegraded
		default:
			st = wire.StatusInternal
		}
		r := wire.Reply(f.ReqID, st, []byte("x"))
		return wire.WriteFrame(nc, &r) == nil
	})
	c, err := Dial(s.ln.Addr().String(), Options{Timeout: time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if _, err := c.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get err = %v, want ErrNotFound", err)
	}
	if err := c.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put err = %v, want ErrDegraded", err)
	}
}

func TestClosedClient(t *testing.T) {
	s := newStubServer(t, func(nc net.Conn, f wire.Frame) bool {
		r := wire.Reply(f.ReqID, wire.StatusOK, nil)
		return wire.WriteFrame(nc, &r) == nil
	})
	c, err := Dial(s.ln.Addr().String(), Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := c.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close err = %v, want ErrClosed", err)
	}
}

// TestWriteBlockedPastDeadline stalls a connection's writes: the stub
// takes one request and then stops reading, and both ends' socket
// buffers are shrunk so a 4 MiB frame cannot fit. The caller holding
// the write lock gets ErrTimeout at its deadline and fails the
// connection, since its frame is cut short; a second caller that
// waited on the lock past its own, earlier deadline gets ErrTimeout
// without touching the stream, so the connection outlives it; the
// next call redials.
func TestWriteBlockedPastDeadline(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	var n atomic.Int64
	s := newStubServer(t, func(nc net.Conn, f wire.Frame) bool {
		if n.Add(1) == 1 {
			if tc, ok := nc.(*net.TCPConn); ok {
				if err := tc.SetReadBuffer(4 << 10); err != nil {
					return false
				}
			}
			<-release // stop reading this connection
			return false
		}
		r := wire.Reply(f.ReqID, wire.StatusOK, []byte("ok"))
		return wire.WriteFrame(nc, &r) == nil
	})
	c, err := Dial(s.ln.Addr().String(), Options{Timeout: time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	cc, err := c.pick()
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.nc.(*net.TCPConn).SetWriteBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	getK := func(b []byte) []byte { return wire.AppendGet(b, []byte("k")) }
	if _, _, err := cc.do(wire.OpGet, getK, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("unanswered Get err = %v, want ErrTimeout", err)
	}

	held := make(chan error, 1)
	go func() {
		_, _, err := cc.do(wire.OpPut, func(b []byte) []byte { return wire.AppendPut(b, []byte("k"), make([]byte, 4<<20)) }, time.Second)
		held <- err
	}()
	for len(cc.wlock) == 0 { // wait until the Put holds the write lock
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if _, _, err := cc.do(wire.OpGet, getK, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Get waiting on the write lock: err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("lock waiter gave up after %v, want ~50ms", d)
	}
	if cc.isDead() {
		t.Fatal("a lock waiter's timeout failed the connection")
	}
	if err := <-held; !errors.Is(err, ErrTimeout) {
		t.Fatalf("blocked Put err = %v, want ErrTimeout", err)
	}
	if !cc.isDead() {
		t.Fatal("a frame cut off mid-write left the connection alive")
	}
	if v, err := c.Get([]byte("k")); err != nil || string(v) != "ok" {
		t.Fatalf("Get after the failed write = %q, %v; want ok on a new connection", v, err)
	}
	if got := s.dials.Load(); got != 2 {
		t.Fatalf("server saw %d dials, want 2 (one redial)", got)
	}
}

// TestTimedOutWaiterIsNotReusedUnderItsLateReply races replies against
// their requests' timeouts on one connection. Each round sends a
// request the stub answers after about its timeout, then one it
// answers at once, and every answer is the request's own key. A
// timed-out request's reply channel and timer are recycled only when
// its ID was still registered; were one recycled after the reader had
// taken its channel, the late reply would land there and be returned
// to the next request on the connection.
func TestTimedOutWaiterIsNotReusedUnderItsLateReply(t *testing.T) {
	var wmu sync.Mutex
	answer := func(nc net.Conn, f wire.Frame) {
		key, _ := wire.DecodeGet(f.Payload)
		r := wire.Reply(f.ReqID, wire.StatusOK, key)
		wmu.Lock()
		defer wmu.Unlock()
		_ = wire.WriteFrame(nc, &r)
	}
	const timeout = time.Millisecond
	s := newStubServer(t, func(nc net.Conn, f wire.Frame) bool {
		if key, _ := wire.DecodeGet(f.Payload); bytes.HasPrefix(key, []byte("slow")) {
			delay := timeout/2 + time.Duration(rand.Int63n(int64(timeout)))
			time.AfterFunc(delay, func() { answer(nc, f) })
		} else {
			answer(nc, f)
		}
		return true
	})
	c, err := Dial(s.ln.Addr().String(), Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	// A slow request's write is bound by its 1 ms deadline too, and a
	// write that misses it kills the connection: pick redials.
	get := func(key string, timeout time.Duration) ([]byte, error) {
		cc, err := c.pick()
		if err != nil {
			return nil, err
		}
		_, v, err := cc.do(wire.OpGet, func(b []byte) []byte { return wire.AppendGet(b, []byte(key)) }, timeout)
		return v, err
	}
	timeouts := 0
	for i := 0; i < 500; i++ {
		slow := fmt.Sprintf("slow%d", i)
		if v, err := get(slow, timeout); errors.Is(err, ErrTimeout) {
			timeouts++
		} else if err != nil || string(v) != slow {
			t.Fatalf("Get(%s) = %q, %v", slow, v, err)
		}
		fast := fmt.Sprintf("fast%d", i)
		if v, err := get(fast, 10*time.Second); err != nil || string(v) != fast {
			t.Fatalf("Get(%s) after a racing timeout = %q, %v", fast, v, err)
		}
	}
	if timeouts == 0 {
		t.Fatal("no request timed out: the test raced nothing")
	}
}
