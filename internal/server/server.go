// Package server is SEALDB's network front end: a TCP server speaking
// the internal/wire protocol over an open *lsm.DB.
//
// Architecture (see DESIGN.md, "Serving layer"):
//
//   - Each accepted connection gets one goroutine. It decodes the
//     pipelined request frames in arrival order, executes each inline
//     and writes its reply into a buffered writer, flushed whenever no
//     further whole request is buffered.
//   - Reads (GET/SCAN/STATS) run on that goroutine. So do writes
//     (PUT/DELETE/WRITEBATCH): the request is decoded into the
//     connection's one lsm.Batch and applied with DB.ApplyCtx, whose
//     writer queue commits concurrent connections' batches as one group.
//     A read therefore waits behind its own connection's earlier write,
//     never another connection's.
//   - Backpressure is structural: the goroutine executes one request at
//     a time and blocks in its reply write once the client stops
//     reading (and then stops reading the socket, so TCP flow control
//     stops the client), and a connection limit bounds the goroutine
//     population. Slow clients are bounded by a write deadline on every
//     reply write that may reach the socket; one that fails closes the
//     connection.
//   - Close drains gracefully: the listener stops, readers are kicked
//     out of their blocking reads, inflight requests finish and their
//     acks flush, then connections close.
//
// The package uses real wall-clock time (deadlines, latency series):
// it sits above the simulated device stack, outside the noclock
// determinism boundary.
package server

import (
	"net"
	"sync"
	"time"

	"sealdb/internal/lsm"
	"sealdb/internal/obs"
	"sealdb/internal/wire"
)

// Config tunes the server. The zero value serves with the defaults.
type Config struct {
	// MaxConns bounds concurrently served connections; further
	// accepts are answered with StatusUnavailable and closed.
	// 0 means 256.
	MaxConns int
	// DrainTimeout bounds graceful shutdown; connections still open
	// after it are force-closed. 0 means 5s.
	DrainTimeout time.Duration
}

const (
	// writeTimeout is the slow-client deadline for writing replies: a
	// connection that cannot absorb its replies in time is closed.
	writeTimeout = 10 * time.Second
	// handshakeTimeout bounds the wait for the client hello.
	handshakeTimeout = 5 * time.Second
)

// Server is a running network front end over one DB.
type Server struct {
	db  *lsm.DB
	cfg Config
	ln  net.Listener
	m   *metrics

	// mu guards server state shared between the accept loop, the
	// stats path, and every connection's teardown; profiled as the
	// "server_mu" contention site.
	mu     obs.Mutex
	conns  map[*conn]struct{} // guarded by mu
	nextID uint64             // guarded by mu
	closed bool               // guarded by mu

	connWG sync.WaitGroup // accept loop + connection goroutines
}

// Serve binds addr (host:port; ":0" picks a free port) and serves db
// on background goroutines until Close.
func Serve(db *lsm.DB, addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 256
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	s := &Server{
		db:    db,
		cfg:   cfg,
		ln:    ln,
		conns: map[*conn]struct{}{},
	}
	s.mu.Profile("server_mu")
	s.m = newMetrics(db.ObsRegistry(), s)
	s.connWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// acceptLoop admits connections up to the configured bound.
func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		if len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.m.connsRejected.Inc()
			// Reject politely: the refusal is a frame, not a RST, so the
			// client can report "server full" instead of a bare EOF.
			s.rejectConn(nc)
			continue
		}
		s.nextID++
		c := newConn(s, s.nextID, nc)
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.m.connsAccepted.Inc()
		s.connWG.Add(1)
		go c.readLoop()
	}
}

// rejectConn answers an over-limit connection with UNAVAILABLE and
// closes it.
func (s *Server) rejectConn(nc net.Conn) {
	f := wire.Reply(0, wire.StatusUnavailable, []byte("server: connection limit reached"))
	if err := nc.SetWriteDeadline(time.Now().Add(writeTimeout)); err == nil {
		if err := wire.WriteFrame(nc, &f); err != nil {
			s.m.connErrors.Inc()
		}
	}
	nc.Close()
}

// removeConn forgets a finished connection.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// openConns snapshots the live connection set.
func (s *Server) openConns() []*conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		out = append(out, c)
	}
	return out
}

// Close shuts the server down gracefully: stop accepting, kick every
// reader out of its blocking read, let inflight requests finish and
// their responses flush, then close the connections. Connections that
// have not drained within DrainTimeout are force-closed. Safe to call
// more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	err := s.ln.Close()
	for _, c := range s.openConns() {
		c.beginDrain()
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		// Force-close: unflushed replies are dropped, and a reader
		// blocked in a reply write fails out of it.
		for _, c := range s.openConns() {
			c.nc.Close()
		}
		<-done
	}
	return err
}

// statsPayload is the STATS reply body (JSON). Degraded-mode state
// rides along so a remote client can see why its writes are rejected.
// Stats carries the engine's scalar counters only: the per-job records
// grow by one per flush or compaction, so they stay out of the reply.
type statsPayload struct {
	Stats         lsm.Stats   `json:"stats"`
	Mode          string      `json:"mode"`
	Seq           uint64      `json:"seq"`
	Degraded      bool        `json:"degraded"`
	DegradedCause string      `json:"degraded_cause,omitempty"`
	Server        serverStats `json:"server"`
}

// serverStats summarizes the front end inside the STATS payload.
type serverStats struct {
	OpenConns     int   `json:"open_conns"`
	AcceptedConns int64 `json:"accepted_conns"`
	Requests      int64 `json:"requests"`
	// CoalescedGroups is how many engine group commits a request of this
	// server headed; CoalescedWrites is how many batches those groups
	// absorbed in total, so writes/groups is the average batching factor.
	CoalescedGroups int64 `json:"coalesced_groups"`
	CoalescedWrites int64 `json:"coalesced_writes"`
}

func (s *Server) stats() statsPayload {
	st := s.db.Stats()
	st.Compactions = nil
	p := statsPayload{
		Stats: st,
		Mode:  s.db.Mode().String(),
		Seq:   uint64(s.db.Seq()),
		Server: serverStats{
			OpenConns:       len(s.openConns()),
			AcceptedConns:   s.m.connsAccepted.Value(),
			Requests:        s.m.requests.Value(),
			CoalescedGroups: s.m.coalescedCommits.Value(),
			CoalescedWrites: s.m.coalescedReqs.Snapshot().Sum,
		},
	}
	if err := s.db.Degraded(); err != nil {
		p.Degraded = true
		p.DegradedCause = err.Error()
	}
	return p
}
