package sealclient

import (
	"bufio"
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
// request.
type reply struct {
	status wire.Status
	body   []byte
	err    error
}

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
	// touching the stream.
	wlock chan struct{}

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
	features := wire.FeaturePipeline
	if o.Trace {
		features |= wire.FeatureTrace
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
	rf, err := wire.ReadFrame(bufio.NewReader(io1{cc.nc}), 1024)
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

// io1 restricts reads to one byte at a time so the handshake's
// throwaway bufio.Reader cannot buffer past the hello reply and
// swallow bytes that belong to the steady-state read loop.
type io1 struct{ nc net.Conn }

func (r io1) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return r.nc.Read(p)
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

// register allocates a request ID and a waiter channel for it.
func (cc *clientConn) register() (uint64, chan reply, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.dead {
		return 0, nil, cc.deadErr
	}
	cc.nextID++
	id := cc.nextID
	ch := make(chan reply, 1)
	cc.waiters[id] = ch
	return id, ch, nil
}

// unregister drops a waiter (after a timeout); its late reply, if any,
// is discarded by the read loop.
func (cc *clientConn) unregister(id uint64) {
	cc.mu.Lock()
	delete(cc.waiters, id)
	cc.mu.Unlock()
}

// do writes one request and waits for its matched reply, both within
// the timeout.
func (cc *clientConn) do(op wire.Op, payload []byte, timeout time.Duration) (wire.Status, []byte, error) {
	deadline := time.Now().Add(timeout)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	id, ch, err := cc.register()
	if err != nil {
		return 0, nil, err
	}
	select {
	case cc.wlock <- struct{}{}:
	case <-timer.C:
		cc.unregister(id)
		return 0, nil, ErrTimeout
	}
	err = cc.nc.SetWriteDeadline(deadline)
	if err == nil {
		err = wire.WriteFrame(cc.nc, &wire.Frame{Op: op, ReqID: id, Payload: payload})
	}
	<-cc.wlock
	if err != nil {
		// The frame may be cut short, so the stream is lost; fail
		// hands this request the connection's error.
		cc.fail(fmt.Errorf("%w: write: %v", ErrConn, err))
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return 0, nil, ErrTimeout
		}
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return 0, nil, r.err
		}
		return r.status, r.body, nil
	case <-timer.C:
		cc.unregister(id)
		return 0, nil, ErrTimeout
	}
}

// readLoop matches response frames to waiters until the connection
// fails or closes.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.nc, 64<<10)
	for {
		f, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
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
		if ch != nil {
			ch <- reply{status: st, body: body}
		}
		// A reply for an unknown ID is a timed-out request's late answer;
		// drop it.
	}
}
