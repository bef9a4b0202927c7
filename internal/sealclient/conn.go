package sealclient

import (
	"bufio"
	"fmt"
	"net"
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

// clientConn is one pipelined connection: a writer goroutine draining
// a request channel into a buffered socket writer (flushing whenever
// the channel runs dry), and a reader goroutine matching response
// frames to waiters by request ID. Either goroutine failing fails
// every pending request and marks the connection dead; the pool then
// redials.
type clientConn struct {
	nc       net.Conn
	features uint32

	sendCh chan outFrame

	// mu guards the request-ID/waiter state every in-flight request
	// touches twice; profiled as the "sealclient_conn_mu" contention
	// site so /debug/contention, and the benchmark's per-site lock
	// snapshot, tell client-side lock waits from the engine's.
	mu      obs.Mutex
	nextID  uint64                // guarded by mu
	waiters map[uint64]chan reply // guarded by mu
	dead    bool                  // guarded by mu
	deadErr error                 // guarded by mu

	done chan struct{} // closed once the connection is dead
	once sync.Once
}

type outFrame struct {
	f wire.Frame
	// errTo receives a send-side failure so the waiter is not left
	// hanging on a request that never reached the socket.
	errTo chan reply
	reqID uint64
}

// dialConn establishes and handshakes one connection synchronously,
// then starts its goroutine pair.
func dialConn(addr string, o *Options) (*clientConn, error) {
	nc, err := net.DialTimeout("tcp", addr, o.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConn, err)
	}
	cc := &clientConn{
		nc:      nc,
		sendCh:  make(chan outFrame, 64),
		waiters: make(map[uint64]chan reply),
		done:    make(chan struct{}),
	}
	cc.mu.Profile("sealclient_conn_mu")
	if err := cc.handshake(o); err != nil {
		nc.Close()
		return nil, err
	}
	go cc.writeLoop()
	go cc.readLoop(o.maxFrame())
	return cc, nil
}

// handshake runs the hello exchange synchronously on the dialing
// goroutine, bounded by the dial timeout.
func (cc *clientConn) handshake(o *Options) error {
	if err := cc.nc.SetDeadline(time.Now().Add(o.dialTimeout())); err != nil {
		return fmt.Errorf("%w: %v", ErrConn, err)
	}
	features := wire.FeaturePipeline | wire.FeatureCoalesce
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
	cc.once.Do(func() { close(cc.done) })
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

// do sends one request and waits for its matched reply or the timeout.
func (cc *clientConn) do(op wire.Op, payload []byte, timeout time.Duration) (wire.Status, []byte, error) {
	id, ch, err := cc.register()
	if err != nil {
		return 0, nil, err
	}
	of := outFrame{f: wire.Frame{Op: op, ReqID: id, Payload: payload}, errTo: ch, reqID: id}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case cc.sendCh <- of:
	case <-cc.done:
		cc.unregister(id)
		return 0, nil, cc.deadError()
	case <-timer.C:
		cc.unregister(id)
		return 0, nil, ErrTimeout
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

func (cc *clientConn) deadError() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.deadErr != nil {
		return cc.deadErr
	}
	return ErrConn
}

// writeLoop drains the request channel into a buffered writer,
// flushing whenever no more requests are immediately queued.
func (cc *clientConn) writeLoop() {
	bw := bufio.NewWriterSize(cc.nc, 64<<10)
	for {
		select {
		case of := <-cc.sendCh:
			if err := cc.writeOne(bw, of); err != nil {
				cc.fail(err)
				return
			}
		drain:
			for {
				select {
				case of2 := <-cc.sendCh:
					if err := cc.writeOne(bw, of2); err != nil {
						cc.fail(err)
						return
					}
				default:
					break drain
				}
			}
			if err := bw.Flush(); err != nil {
				cc.fail(fmt.Errorf("%w: flush: %v", ErrConn, err))
				return
			}
		case <-cc.done:
			return
		}
	}
}

func (cc *clientConn) writeOne(bw *bufio.Writer, of outFrame) error {
	if err := wire.WriteFrame(bw, &of.f); err != nil {
		return fmt.Errorf("%w: write: %v", ErrConn, err)
	}
	return nil
}

// readLoop matches response frames to waiters until the connection
// fails or closes.
func (cc *clientConn) readLoop(maxFrame int) {
	br := bufio.NewReaderSize(cc.nc, 64<<10)
	for {
		f, err := wire.ReadFrame(br, maxFrame)
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
