// Package netfault is an in-process, frame-aware TCP fault proxy for
// the chaos harness: it sits between a sealclient and the SEALDB
// server, forwards whole wire-protocol frames, and injects network
// faults — delayed frames, truncated frames, dropped connections, and
// TCP resets — at deterministic points.
//
// Determinism model: faults are armed one-shot per direction and
// consumed in FIFO order by the next frame the proxy observes in that
// direction, on whichever connection carries it. The chaos campaign
// arms faults only at tick barriers (no traffic in flight) against a
// proxy serving exactly one sequential client, so "the next frame" is
// a deterministic op regardless of goroutine scheduling. Frames are
// never split or reordered except by an armed fault, so the proxy is
// invisible when idle.
//
// The package is transport-only: it parses just the 4-byte length
// prefix of the wire framing and never decodes payloads, so it works
// for any frame the protocol may grow.
package netfault

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Direction names a flow through the proxy.
type Direction int

const (
	// ToServer is the client→server request flow.
	ToServer Direction = iota
	// ToClient is the server→client response flow.
	ToClient
)

func (d Direction) String() string {
	switch d {
	case ToServer:
		return "to_server"
	case ToClient:
		return "to_client"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Kind is a fault type.
type Kind int

const (
	// Delay holds the frame for Fault.Delay before forwarding it.
	// Outcome-neutral: the request still completes.
	Delay Kind = iota
	// Drop discards the frame and closes both sides of the
	// connection cleanly (the peer sees EOF).
	Drop
	// Reset discards the frame and aborts the client side with TCP
	// RST (SO_LINGER 0), the closest an in-process proxy gets to a
	// yanked cable.
	Reset
	// Truncate forwards only Fault.Bytes bytes of the encoded frame
	// and then closes both sides: the receiver sees a torn frame.
	Truncate
)

func (k Kind) String() string {
	switch k {
	case Delay:
		return "delay"
	case Drop:
		return "drop"
	case Reset:
		return "reset"
	case Truncate:
		return "truncate"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one armed network fault.
type Fault struct {
	Kind Kind
	// Bytes is how much of the encoded frame (length prefix included)
	// Truncate forwards before killing the connection. Clamped to
	// [1, frameLen-1] so the result is always a torn frame.
	Bytes int
	// Delay is the hold time for Kind Delay.
	Delay time.Duration
}

// Stats counts the proxy's activity.
type Stats struct {
	Conns     int64 `json:"conns"`
	FramesUp  int64 `json:"frames_to_server"`
	FramesDn  int64 `json:"frames_to_client"`
	Delays    int64 `json:"delays"`
	Drops     int64 `json:"drops"`
	Resets    int64 `json:"resets"`
	Truncates int64 `json:"truncates"`
}

// maxFrame bounds the length prefix the proxy will buffer; anything
// larger is treated as a protocol error and kills the connection.
const maxFrame = 32 << 20

// Proxy is one listening fault proxy forwarding to a fixed target.
type Proxy struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	armed  [2][]Fault         // per-direction FIFO; guarded by mu
	links  map[*link]struct{} // live connection pairs; guarded by mu
	stats  Stats              // guarded by mu
	closed bool               // guarded by mu

	wg sync.WaitGroup
}

// link is one proxied connection pair.
type link struct {
	client net.Conn // the accepted side
	server net.Conn // the dialed side
	once   sync.Once
}

// closeBoth tears the pair down cleanly (peers see EOF).
func (l *link) closeBoth() {
	l.once.Do(func() {
		l.client.Close()
		l.server.Close()
	})
}

// reset aborts the client side with an RST and closes the server side.
func (l *link) reset() {
	l.once.Do(func() {
		if tc, ok := l.client.(*net.TCPConn); ok {
			// Errors are advisory: the close below wins either way.
			tc.SetLinger(0)
		}
		l.client.Close()
		l.server.Close()
	})
}

// Listen starts a proxy on a fresh loopback port forwarding to target.
func Listen(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, links: map[*link]struct{}{}}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; clients dial this instead
// of the server.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Arm queues a one-shot fault: the next frame observed flowing in dir
// consumes it. Multiple armed faults fire in FIFO order, one frame
// each.
func (p *Proxy) Arm(dir Direction, f Fault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed[dir] = append(p.armed[dir], f)
}

// ClearArmed discards faults armed but not yet consumed.
func (p *Proxy) ClearArmed() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed[ToServer] = nil
	p.armed[ToClient] = nil
}

// KillAll drops every live proxied connection (clean close, peers see
// EOF) without stopping the listener — a momentary partition; clients
// may redial through the proxy.
func (p *Proxy) KillAll() {
	p.mu.Lock()
	links := make([]*link, 0, len(p.links))
	for l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	for _, l := range links {
		l.closeBoth()
	}
}

// Stats returns a snapshot of the proxy's counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close stops the listener, kills live connections, and waits for the
// pump goroutines to exit.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.KillAll()
	p.wg.Wait()
	return err
}

// takeFault pops the next armed fault for dir, if any.
func (p *Proxy) takeFault(dir Direction) (Fault, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.armed[dir]
	if len(q) == 0 {
		return Fault{}, false
	}
	f := q[0]
	p.armed[dir] = q[1:]
	switch f.Kind {
	case Delay:
		p.stats.Delays++
	case Drop:
		p.stats.Drops++
	case Reset:
		p.stats.Resets++
	case Truncate:
		p.stats.Truncates++
	}
	return f, true
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			nc.Close()
			continue
		}
		l := &link{client: nc, server: up}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			l.closeBoth()
			return
		}
		p.links[l] = struct{}{}
		p.stats.Conns++
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(l, ToServer)
		go p.pump(l, ToClient)
	}
}

// forget removes a finished link.
func (p *Proxy) forget(l *link) {
	p.mu.Lock()
	delete(p.links, l)
	p.mu.Unlock()
}

// noteFrame counts one frame about to be forwarded.
func (p *Proxy) noteFrame(dir Direction) {
	p.mu.Lock()
	if dir == ToServer {
		p.stats.FramesUp++
	} else {
		p.stats.FramesDn++
	}
	p.mu.Unlock()
}

// pump copies whole frames in one direction, applying armed faults.
// Any transport or framing error tears down both sides: a half-open
// proxy link would hang the pipeline invisibly.
func (p *Proxy) pump(l *link, dir Direction) {
	defer p.wg.Done()
	src, dst := l.client, l.server
	if dir == ToClient {
		src, dst = l.server, l.client
	}
	defer l.closeBoth()
	defer p.forget(l)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if int64(n) > maxFrame {
			return
		}
		frame := make([]byte, 4+int(n))
		copy(frame, hdr[:])
		if _, err := io.ReadFull(src, frame[4:]); err != nil {
			return
		}
		if f, ok := p.takeFault(dir); ok {
			switch f.Kind {
			case Delay:
				time.Sleep(f.Delay)
			case Drop:
				l.closeBoth()
				return
			case Reset:
				l.reset()
				return
			case Truncate:
				b := f.Bytes
				if b < 1 {
					b = 1
				}
				if b >= len(frame) {
					b = len(frame) - 1
				}
				// Best effort: the point is the missing tail, not
				// whether the prefix landed.
				dst.Write(frame[:b])
				l.closeBoth()
				return
			}
		}
		// Counted before it is forwarded: the stat must never lag an
		// effect a peer can observe (the echo of this frame may reach a
		// reader of Stats before this goroutine runs again).
		p.noteFrame(dir)
		if _, err := dst.Write(frame); err != nil {
			return
		}
	}
}
