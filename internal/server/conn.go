package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"sync/atomic"
	"time"

	"sealdb/internal/lsm"
	"sealdb/internal/wire"
)

// maxBatchBytes bounds the capacity a connection's batch and request
// buffer keep between requests; one grown past it is dropped.
const maxBatchBytes = 4 << 20

// conn is one served connection, run by one goroutine: it reads each
// pipelined request, executes it and writes the reply into a buffered
// writer it flushes whenever no further whole request is buffered.
type conn struct {
	id  uint64
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	// rbuf is what each request is read into: its payload, and every
	// slice decoded from it, is valid until its dispatch returns.
	rbuf []byte
	// werr is the first failed reply write; the reader stops at it,
	// since every later reply would be lost.
	werr error

	// traced is set by the handshake when the client negotiated
	// wire.FeatureTrace: this connection's request ids are threaded
	// into the engine tracer. Written before any dispatch, read only
	// by the reader goroutine.
	traced bool
	// batch is the reader's one write batch, decoded into and Reset per
	// write request; group receives the engine's facts about the group
	// commit it landed in. Both belong to the reader goroutine.
	batch *lsm.Batch
	group lsm.GroupCommit

	// Connection stats, read by /debug/conns without locks.
	opened    time.Time
	remote    string
	requests  atomic.Int64
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	pending   atomic.Int64
	handshook atomic.Bool
}

func newConn(s *Server, id uint64, nc net.Conn) *conn {
	return &conn{
		id:     id,
		srv:    s,
		nc:     nc,
		br:     bufio.NewReaderSize(nc, 64<<10),
		bw:     bufio.NewWriterSize(nc, 64<<10),
		batch:  lsm.NewBatch(),
		opened: time.Now(),
		remote: nc.RemoteAddr().String(),
	}
}

// beginDrain kicks the reader out of its blocking read so the
// connection winds down; inflight requests still complete and flush.
func (c *conn) beginDrain() {
	if err := c.nc.SetReadDeadline(time.Now()); err != nil {
		c.nc.Close()
	}
}

// reply writes one reply into the connection's buffered writer, its
// header straight into the writer's free space and its body after it,
// first arming the slow-client deadline if the write may reach the
// socket. The first failed write is kept in werr and every later reply
// is dropped. Called from the reader goroutine.
func (c *conn) reply(reqID uint64, st wire.Status, body []byte) {
	hdr := wire.AppendReplyHeader(c.bw.AvailableBuffer(), reqID, st, len(body))
	n := len(hdr) + len(body)
	if c.werr == nil && n > c.bw.Available() {
		c.werr = c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	}
	if c.werr == nil {
		_, c.werr = c.bw.Write(hdr)
	}
	if c.werr == nil {
		_, c.werr = c.bw.Write(body)
	}
	if c.werr == nil {
		c.bytesOut.Add(int64(n))
		c.srv.m.bytesOut.Add(int64(n))
	}
}

// replyErr answers a failed request with its error's status and text; a
// miss needs no text, so it allocates nothing on either end.
func (c *conn) replyErr(reqID uint64, err error) {
	st := wire.StatusInternal
	switch {
	case errors.Is(err, lsm.ErrNotFound):
		c.reply(reqID, wire.StatusNotFound, nil)
		return
	case errors.Is(err, lsm.ErrDegraded):
		st = wire.StatusDegraded
	case errors.Is(err, lsm.ErrClosed):
		st = wire.StatusClosed
	case errors.Is(err, lsm.ErrCorruptBlock):
		st = wire.StatusCorrupt
	}
	c.reply(reqID, st, []byte(err.Error()))
}

// badRequest counts and refuses a request that does not decode.
func (c *conn) badRequest(reqID uint64, msg string) {
	c.srv.m.badRequests.Inc()
	c.reply(reqID, wire.StatusBadRequest, []byte(msg))
}

// flush pushes the buffered replies to the socket under the
// slow-client deadline and reports whether the connection can go on.
func (c *conn) flush() bool {
	if c.werr == nil && c.bw.Buffered() > 0 {
		if c.werr = c.nc.SetWriteDeadline(time.Now().Add(writeTimeout)); c.werr == nil {
			c.werr = c.bw.Flush()
		}
	}
	return c.werr == nil
}

// readLoop is the connection's goroutine.
func (c *conn) readLoop() {
	defer c.srv.connWG.Done()
	defer c.teardown()

	if !c.handshake() {
		return
	}
	for {
		// Reply before a read that could block; a pipelined burst
		// already buffered is answered in one flush.
		if !wire.FrameBuffered(c.br) && !c.flush() {
			return
		}
		f, err := wire.ReadFrameInto(c.br, wire.DefaultMaxFrame, &c.rbuf)
		if err != nil {
			// Oversized frames earn an explicit refusal before the
			// connection dies; everything else (EOF, deadline, reset)
			// ends the read loop silently.
			if errors.Is(err, wire.ErrFrameTooLarge) {
				c.reply(0, wire.StatusTooLarge, []byte(err.Error()))
			}
			return
		}
		n := int64(4 + len(c.rbuf)) // the length prefix and the bytes it covers
		c.bytesIn.Add(n)
		c.srv.m.bytesIn.Add(n)
		c.requests.Add(1)
		c.srv.m.requests.Inc()
		c.pending.Add(1)
		c.dispatch(&f)
		c.pending.Add(-1)
		if cap(c.rbuf) > maxBatchBytes {
			c.rbuf = nil
		}
		if c.werr != nil {
			return
		}
	}
}

// dispatch executes one request frame and writes its reply.
func (c *conn) dispatch(f *wire.Frame) {
	switch f.Op {
	case wire.OpGet:
		c.doGet(f)
	case wire.OpScan:
		c.doScan(f)
	case wire.OpStats:
		c.doStats(f)
	case wire.OpPut, wire.OpDelete, wire.OpWriteBatch:
		c.doWrite(f)
	case wire.OpHello:
		// A second hello is a protocol error, but a harmless one.
		c.reply(f.ReqID, wire.StatusBadRequest, []byte("server: duplicate handshake"))
	default:
		c.badRequest(f.ReqID, "server: unknown opcode")
	}
}

func (c *conn) doGet(f *wire.Frame) {
	key, err := wire.DecodeGet(f.Payload)
	if err != nil {
		c.badRequest(f.ReqID, err.Error())
		return
	}
	start := time.Now()
	var ctx lsm.OpContext
	if c.traced {
		ctx.ReqID = f.ReqID
	}
	v, err := c.srv.db.GetCtx(key, ctx)
	c.srv.m.getLatency.Observe(time.Since(start).Nanoseconds())
	if err != nil {
		c.replyErr(f.ReqID, err)
		return
	}
	c.reply(f.ReqID, wire.StatusOK, v)
}

func (c *conn) doScan(f *wire.Frame) {
	start, limit, err := wire.DecodeScan(f.Payload)
	if err != nil {
		c.badRequest(f.ReqID, err.Error())
		return
	}
	t0 := time.Now()
	kvs, err := c.srv.db.Scan(start, int(limit))
	c.srv.m.scanLatency.Observe(time.Since(t0).Nanoseconds())
	if err != nil {
		c.replyErr(f.ReqID, err)
		return
	}
	out := make([]wire.KV, len(kvs))
	for i := range kvs {
		out[i] = wire.KV{Key: kvs[i].Key, Value: kvs[i].Value}
	}
	c.reply(f.ReqID, wire.StatusOK, wire.AppendScanReply(nil, out))
}

func (c *conn) doStats(f *wire.Frame) {
	body, err := json.Marshal(c.srv.stats())
	if err != nil {
		c.replyErr(f.ReqID, err)
		return
	}
	c.reply(f.ReqID, wire.StatusOK, body)
}

// doWrite decodes a write request into the connection's batch, applies
// it inline and replies with its group commit's outcome.
func (c *conn) doWrite(f *wire.Frame) {
	defer c.resetBatch()
	if err := c.decodeWrite(f); err != nil {
		c.badRequest(f.ReqID, err.Error())
	} else if mutationAckBeforeCommit {
		// Intentional bug for the chaos harness's mutation self-test
		// (build tag sealdb_chaos_mutation): the OK leaves before the
		// engine logs the write, so a power cut mid-apply loses it.
		c.reply(f.ReqID, wire.StatusOK, nil)
		c.flush()
		c.commit(f.ReqID) // the outcome is dropped: that is the bug
	} else if err := c.commit(f.ReqID); err != nil {
		c.replyErr(f.ReqID, err)
	} else {
		c.reply(f.ReqID, wire.StatusOK, nil)
	}
}

// decodeWrite fills the connection's batch from a PUT, DELETE or
// WRITEBATCH payload.
func (c *conn) decodeWrite(f *wire.Frame) (err error) {
	var key, value []byte
	var entries []wire.BatchEntry
	switch f.Op {
	case wire.OpPut:
		if key, value, err = wire.DecodePut(f.Payload); err == nil {
			c.batch.Put(key, value)
		}
	case wire.OpDelete:
		if key, err = wire.DecodeDelete(f.Payload); err == nil {
			c.batch.Delete(key)
		}
	case wire.OpWriteBatch:
		entries, err = wire.DecodeWriteBatch(f.Payload)
		for _, e := range entries {
			if e.Delete {
				c.batch.Delete(e.Key)
			} else {
				c.batch.Put(e.Key, e.Value)
			}
		}
	}
	return err
}

// commit applies the connection's batch (an empty WRITEBATCH commits
// nothing) and feeds the group-commit series from what the engine
// reports about the batch's group; the group's head counts the group.
func (c *conn) commit(reqID uint64) error {
	if c.batch.Len() == 0 {
		return nil
	}
	ctx := lsm.OpContext{Group: &c.group}
	if c.traced {
		ctx.ReqID = reqID
	}
	start := time.Now()
	err := c.srv.db.ApplyCtx(c.batch, ctx)
	m, g := c.srv.m, &c.group
	m.writeLatency.Observe(time.Since(start).Nanoseconds())
	m.coalesceWait.Observe(g.Began.Sub(start).Nanoseconds())
	if g.Head {
		m.coalescedCommits.Inc()
		m.coalescedReqs.Observe(int64(g.Batches))
		m.coalescedEntries.Observe(int64(g.Entries))
	}
	return err
}

// resetBatch readies the connection's batch for the next request.
func (c *conn) resetBatch() {
	if c.batch.Cap() > maxBatchBytes {
		c.batch = lsm.NewBatch()
		return
	}
	c.batch.Reset()
}

// handshake performs the version/feature exchange. The client's first
// frame must be a valid hello within the handshake timeout.
func (c *conn) handshake() bool {
	if err := c.nc.SetReadDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return false
	}
	f, err := wire.ReadFrameInto(c.br, 1024, &c.rbuf)
	if err != nil {
		c.srv.m.handshakeFails.Inc()
		return false
	}
	refuse := func(st wire.Status, msg string) bool {
		c.srv.m.handshakeFails.Inc()
		c.reply(f.ReqID, st, []byte(msg))
		return false
	}
	if f.Op != wire.OpHello {
		return refuse(wire.StatusBadRequest, "server: expected HELLO")
	}
	h, err := wire.DecodeHello(f.Payload)
	if err != nil {
		return refuse(wire.StatusBadRequest, err.Error())
	}
	if h.Magic != wire.Magic {
		return refuse(wire.StatusBadRequest, "server: bad protocol magic")
	}
	if h.Version != wire.Version {
		return refuse(wire.StatusUnavailable, "server: unsupported protocol version")
	}
	if err := c.nc.SetReadDeadline(time.Time{}); err != nil {
		return false
	}
	reply := wire.Hello{
		Magic:    wire.Magic,
		Version:  wire.Version,
		Features: h.Features & wire.FeatureTrace,
	}
	if reply.Features&wire.FeatureTrace != 0 {
		// Tracing is engine-global and sticky for the server's
		// lifetime: one traced client turns the tracer on for
		// everyone (untraced connections' ops are simply anonymous).
		c.traced = true
		c.srv.db.SetTracing(true)
	}
	c.reply(f.ReqID, wire.StatusOK, wire.AppendHello(nil, reply))
	c.handshook.Store(true)
	return true
}

// teardown runs when the reader exits, every request it read answered:
// it flushes what replies it can and closes the socket.
func (c *conn) teardown() {
	if !c.flush() {
		c.srv.m.connErrors.Inc()
	}
	c.nc.Close()
	c.srv.removeConn(c)
}
