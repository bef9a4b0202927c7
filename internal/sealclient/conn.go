package sealclient

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"sealdb/internal/obs"
	"sealdb/internal/wire"
)

// connSlot is one pool position: it holds at most one live clientConn
// and redials lazily after a failure kills the previous one.
type connSlot struct {
	mu     sync.Mutex
	cc     *clientConn // guarded by mu; nil until first use or after death
	closed bool        // guarded by mu
}

// get returns the slot's live connection, dialing a fresh one if the
// slot is empty or its connection has died.
func (s *connSlot) get(c *Client) (*clientConn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.cc != nil && !s.cc.isDead() {
		return s.cc, nil
	}
	cc, err := dialConn(c.addr, &c.o)
	if err != nil {
		return nil, err
	}
	s.cc = cc
	return cc, nil
}

func (s *connSlot) close() {
	s.mu.Lock()
	cc := s.cc
	s.closed = true
	s.cc = nil
	s.mu.Unlock()
	if cc != nil {
		cc.fail(ErrClosed)
	}
}

// reply is one matched response, delivered to the waiter that sent the
// request. A non-empty body is the waiter's own copy.
type reply struct {
	status wire.Status
	body   []byte
	err    error
}

// waiter is a request's reply channel and timeout timer, recycled
// through waiterPool from one request to the next.
type waiter struct {
	ch    chan reply
	timer *time.Timer
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan reply, 1)} }}

// maxKeptBuf bounds the capacity a connection's read or write buffer
// keeps between frames; one grown past it is dropped, not pinned.
const maxKeptBuf = 1 << 20

// clientConn is one pipelined connection. A caller writes its own
// request frame under the write lock, then waits for the reply that
// the connection's one goroutine, its reader, matches to it by request
// ID. A failed read or a write cut off mid-frame fails every pending
// request and marks the connection dead; the pool then redials.
type clientConn struct {
	nc       net.Conn
	features uint32

	// wlock is the write lock, a one-slot semaphore so that a caller
	// whose deadline passes while it waits can give up without
	// touching the stream. It guards wbuf, the buffer each request
	// frame is encoded into and written from.
	wlock chan struct{}
	wbuf  []byte

	// mu guards the request-ID/waiter state every in-flight request
	// touches twice; profiled as the "sealclient_conn_mu" contention
	// site so /debug/contention, and the benchmark's per-site lock
	// snapshot, tell client-side lock waits from the engine's.
	mu      obs.Mutex
	nextID  uint64                // guarded by mu
	waiters map[uint64]chan reply // guarded by mu
	dead    bool                  // guarded by mu
	deadErr error                 // guarded by mu
}

// dialConn establishes and handshakes one connection synchronously,
// then starts its reader.
func dialConn(addr string, o *Options) (*clientConn, error) {
	nc, err := net.DialTimeout("tcp", addr, o.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConn, err)
	}
	cc := &clientConn{
		nc:      nc,
		wlock:   make(chan struct{}, 1),
		waiters: make(map[uint64]chan reply),
	}
	cc.mu.Profile("sealclient_conn_mu")
	if err := cc.handshake(o); err != nil {
		nc.Close()
		return nil, err
	}
	go cc.readLoop()
	return cc, nil
}

// handshake runs the hello exchange synchronously on the dialing
// goroutine, bounded by the dial timeout.
func (cc *clientConn) handshake(o *Options) error {
	if err := cc.nc.SetDeadline(time.Now().Add(o.dialTimeout())); err != nil {
		return fmt.Errorf("%w: %v", ErrConn, err)
	}
	var features uint32
	if o.Trace {
		features = wire.FeatureTrace
	}
	hello := wire.Hello{
		Magic:    wire.Magic,
		Version:  wire.Version,
		Features: features,
	}
	f := wire.Frame{Op: wire.OpHello, ReqID: 0, Payload: wire.AppendHello(nil, hello)}
	if err := wire.WriteFrame(cc.nc, &f); err != nil {
		return fmt.Errorf("%w: handshake write: %v", ErrConn, err)
	}
	// ReadFrame reads exactly one frame, so nothing past the hello
	// reply is taken from the stream the read loop goes on with.
	rf, err := wire.ReadFrame(cc.nc, 1024)
	if err != nil {
		return fmt.Errorf("%w: handshake read: %v", ErrConn, err)
	}
	st, body, err := wire.ParseReply(rf.Payload)
	if err != nil {
		return fmt.Errorf("%w: handshake reply: %v", ErrConn, err)
	}
	if st != wire.StatusOK {
		return statusErr(st, body)
	}
	h, err := wire.DecodeHello(body)
	if err != nil {
		return fmt.Errorf("%w: handshake hello: %v", ErrConn, err)
	}
	cc.features = h.Features
	if err := cc.nc.SetDeadline(time.Time{}); err != nil {
		return fmt.Errorf("%w: %v", ErrConn, err)
	}
	return nil
}

// isDead reports whether the connection has failed.
func (cc *clientConn) isDead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.dead
}

// fail marks the connection dead and delivers err to every pending
// waiter. Idempotent.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	cc.dead = true
	cc.deadErr = err
	waiters := cc.waiters
	cc.waiters = nil
	cc.mu.Unlock()
	cc.nc.Close()
	for _, ch := range waiters {
		ch <- reply{err: err}
	}
}

// register allocates a request ID and files ch as its waiter.
func (cc *clientConn) register(ch chan reply) (uint64, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.dead {
		return 0, cc.deadErr
	}
	cc.nextID++
	cc.waiters[cc.nextID] = ch
	return cc.nextID, nil
}

// timedOut gives up on request id after its timer fired, and reports
// ErrTimeout. Its waiter is recycled only if id was still registered:
// otherwise the reader or fail has taken the channel and may yet send
// to it, and the waiter is left to the collector.
func (cc *clientConn) timedOut(id uint64, w *waiter) error {
	cc.mu.Lock()
	_, ok := cc.waiters[id]
	delete(cc.waiters, id)
	cc.mu.Unlock()
	if ok {
		waiterPool.Put(w)
	}
	return ErrTimeout
}

// do writes one request, its payload appended by payload, and waits
// for its matched reply, both within the timeout.
func (cc *clientConn) do(op wire.Op, payload func([]byte) []byte, timeout time.Duration) (wire.Status, []byte, error) {
	deadline := time.Now().Add(timeout)
	w := waiterPool.Get().(*waiter)
	id, err := cc.register(w.ch)
	if err != nil {
		waiterPool.Put(w)
		return 0, nil, err
	}
	if w.timer == nil {
		w.timer = time.NewTimer(timeout)
	} else {
		w.timer.Reset(timeout)
	}
	select {
	case cc.wlock <- struct{}{}:
	case <-w.timer.C:
		return 0, nil, cc.timedOut(id, w)
	}
	err = cc.nc.SetWriteDeadline(deadline)
	if err == nil {
		cc.wbuf = wire.AppendRequest(cc.wbuf[:0], op, id, payload)
		_, err = cc.nc.Write(cc.wbuf)
		if cap(cc.wbuf) > maxKeptBuf {
			cc.wbuf = nil
		}
	}
	<-cc.wlock
	if err != nil {
		// The frame may be cut short, so the stream is lost; fail
		// hands this request the connection's error.
		cc.fail(fmt.Errorf("%w: write: %v", ErrConn, err))
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return 0, nil, ErrTimeout // w's channel holds fail's error
		}
	}
	select {
	case r := <-w.ch:
		w.timer.Stop()
		waiterPool.Put(w)
		return r.status, r.body, r.err
	case <-w.timer.C:
		return 0, nil, cc.timedOut(id, w)
	}
}

// readLoop matches response frames to waiters until the connection
// fails or closes. Frames are read into one reused buffer; a waiter
// gets its own copy of a non-empty body.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.nc, 64<<10)
	var buf []byte
	for {
		f, err := wire.ReadFrameInto(br, wire.DefaultMaxFrame, &buf)
		if err != nil {
			cc.fail(fmt.Errorf("%w: read: %v", ErrConn, err))
			return
		}
		if f.Op != wire.OpReply {
			cc.fail(fmt.Errorf("%w: unexpected frame op 0x%02x", ErrConn, byte(f.Op)))
			return
		}
		st, body, err := wire.ParseReply(f.Payload)
		if err != nil {
			cc.fail(fmt.Errorf("%w: bad reply: %v", ErrConn, err))
			return
		}
		cc.mu.Lock()
		ch := cc.waiters[f.ReqID]
		delete(cc.waiters, f.ReqID)
		cc.mu.Unlock()
		// A reply for an unknown ID is a timed-out request's late answer;
		// drop it.
		if ch != nil {
			ch <- reply{status: st, body: bytes.Clone(body)}
		}
		if cap(buf) > maxKeptBuf {
			buf = nil
		}
	}
}
