// Package sealclient is the Go client for a SEALDB network server
// (internal/server): a connection pool where every connection
// pipelines requests — many may be outstanding at once, responses are
// matched to waiters by request ID in whatever order the server sends
// them — with per-request timeouts and a fixed schedule of retries of
// idempotent reads over redialed connections.
//
// The client speaks only internal/wire; it has no dependency on the
// engine, so it is exactly what an external consumer of the protocol
// would build.
package sealclient

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sealdb/internal/wire"
)

// Client errors. Status-mapped errors wrap these sentinels, so
// errors.Is works across the network boundary.
var (
	// ErrNotFound reports a GET for a key that does not exist.
	ErrNotFound = errors.New("sealclient: key not found")
	// ErrDegraded reports a write rejected because the remote store is
	// in read-only degraded mode after a permanent device failure;
	// retrying against the same server cannot succeed.
	ErrDegraded = errors.New("sealclient: store is in read-only degraded mode")
	// ErrStoreClosed reports an operation against a closed remote DB.
	ErrStoreClosed = errors.New("sealclient: remote store is closed")
	// ErrUnavailable reports a refused connection or request (server
	// full or shutting down).
	ErrUnavailable = errors.New("sealclient: server unavailable")
	// ErrTimeout reports a request that exceeded its per-request
	// timeout; its fate at the server is unknown.
	ErrTimeout = errors.New("sealclient: request timed out")
	// ErrClosed reports use of a closed client.
	ErrClosed = errors.New("sealclient: client is closed")
	// ErrConn wraps transport-level failures (dial, read, write, reset).
	ErrConn = errors.New("sealclient: connection error")
	// ErrCorrupt reports that the server detected on-media corruption
	// (an SSTable block failed its CRC) while serving the request.
	ErrCorrupt = errors.New("sealclient: store detected media corruption")
)

// Read retries. An idempotent read (GET, SCAN, STATS) that fails at
// the connection level is retried up to readRetries times, each on a
// freshly dialed connection after a sleep drawn uniformly from
// [0, cap) (full jitter), where cap is retryBaseDelay doubled per
// retry: 2 and 4 ms. While the server reports DEGRADED the caps are
// multiplied by 4: the store will not heal by hammering it. Writes are
// never retried, not on failures and not while the server reports
// DEGRADED, because a timed-out or broken write may still have
// committed.
const (
	readRetries    = 2
	retryBaseDelay = 2 * time.Millisecond
)

// Options tunes a client. The zero value dials with the defaults.
type Options struct {
	// Conns is the connection pool size. 0 means 1.
	Conns int
	// Timeout is the per-request timeout. 0 means 10s.
	Timeout time.Duration
	// DialTimeout bounds connection establishment (including the
	// handshake). 0 means 5s.
	DialTimeout time.Duration
	// Sleep replaces time.Sleep for backoff waits; tests and the
	// chaos harness inject recorders or no-ops here. Nil means
	// time.Sleep. It is called once per retry, including zero
	// delays.
	Sleep func(time.Duration)
	// Rand replaces the jitter source: it must return a uniform
	// value in [0, n). Nil means a private math/rand source seeded
	// from the clock at Dial. Called concurrently; the default is
	// mutex-guarded, injected sources must be safe themselves.
	Rand func(n int64) int64
	// Trace requests wire.FeatureTrace in the handshake: the server
	// then threads this client's request ids into the engine tracer,
	// so sampled operations journal span trees attributing physical
	// I/O back to individual requests. Check Features() after Dial to
	// see whether the server granted it.
	Trace bool
}

func (o *Options) conns() int {
	if o.Conns > 0 {
		return o.Conns
	}
	return 1
}

func (o *Options) timeout() time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	return 10 * time.Second
}

func (o *Options) dialTimeout() time.Duration {
	if o.DialTimeout > 0 {
		return o.DialTimeout
	}
	return 5 * time.Second
}

// Client is a pooled, pipelining SEALDB client. Safe for concurrent
// use; concurrent requests on the same pooled connection pipeline.
type Client struct {
	addr string
	o    Options

	rr     atomic.Uint64 // round-robin cursor
	slots  []*connSlot
	closed atomic.Bool

	// degraded tracks the last write's view of the server: set when a
	// write is rejected with DEGRADED, cleared when one succeeds.
	// While set, read-retry backoff caps are multiplied.
	degraded atomic.Bool

	sleep func(time.Duration)
	rnd   func(n int64) int64

	// Features is the feature mask negotiated on the first dialed
	// connection.
	features atomic.Uint32
}

// Dial connects to a server, establishing (and handshaking) the first
// pooled connection eagerly so configuration errors surface here; the
// rest of the pool dials lazily.
func Dial(addr string, o Options) (*Client, error) {
	c := &Client{addr: addr, o: o, slots: make([]*connSlot, o.conns())}
	for i := range c.slots {
		c.slots[i] = &connSlot{}
	}
	c.sleep = o.Sleep
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	c.rnd = o.Rand
	if c.rnd == nil {
		var mu sync.Mutex
		src := rand.New(rand.NewSource(time.Now().UnixNano()))
		c.rnd = func(n int64) int64 {
			mu.Lock()
			defer mu.Unlock()
			return src.Int63n(n)
		}
	}
	cc, err := c.slots[0].get(c)
	if err != nil {
		return nil, err
	}
	c.features.Store(cc.features)
	return c, nil
}

// Features returns the feature mask negotiated with the server.
func (c *Client) Features() uint32 { return c.features.Load() }

// Close tears down every pooled connection. In-flight requests fail
// with ErrConn.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, s := range c.slots {
		s.close()
	}
	return nil
}

// pick returns a live pooled connection, dialing its slot if needed.
func (c *Client) pick() (*clientConn, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	n := c.rr.Add(1)
	return c.slots[int(n)%len(c.slots)].get(c)
}

// roundTrip sends one request, its payload appended by payload, on one
// connection and waits for its reply.
func (c *Client) roundTrip(op wire.Op, payload func([]byte) []byte) (wire.Status, []byte, error) {
	cc, err := c.pick()
	if err != nil {
		return 0, nil, err
	}
	return cc.do(op, payload, c.o.timeout())
}

// read is roundTrip for an idempotent request plus the retry loop:
// connection-level failures redial and retry after a backoff sleep.
// Status errors and timeouts are never retried (a timeout's fate at
// the server is unknown). A non-OK status returns as its error.
func (c *Client) read(op wire.Op, payload func([]byte) []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		st, body, err := c.roundTrip(op, payload)
		switch {
		case err == nil && st != wire.StatusOK:
			return nil, statusErr(st, body)
		case err == nil:
			return body, nil
		case attempt == readRetries || !errors.Is(err, ErrConn):
			return nil, err
		}
		c.sleep(c.backoffDelay(attempt))
	}
}

// write is roundTrip for a mutation, which is never retried, and
// updates the client's degraded view from its reply status. A non-OK
// status returns as its error.
func (c *Client) write(op wire.Op, payload func([]byte) []byte) error {
	st, body, err := c.roundTrip(op, payload)
	if err != nil {
		return err
	}
	switch st {
	case wire.StatusOK:
		c.degraded.Store(false)
		return nil
	case wire.StatusDegraded:
		c.degraded.Store(true)
	}
	return statusErr(st, body)
}

// backoffDelay computes the sleep before retry number attempt+1:
// uniform in [0, retryBaseDelay<<attempt), four times that while the
// client last saw the server DEGRADED.
func (c *Client) backoffDelay(attempt int) time.Duration {
	capDelay := retryBaseDelay << uint(attempt)
	if c.degraded.Load() {
		capDelay *= 4
	}
	return time.Duration(c.rnd(int64(capDelay)))
}

// Degraded reports whether the most recent write observed the server
// in read-only degraded mode.
func (c *Client) Degraded() bool { return c.degraded.Load() }

// statusErr maps a non-OK reply to a wrapped sentinel error.
func statusErr(st wire.Status, body []byte) error {
	switch st {
	case wire.StatusNotFound:
		return ErrNotFound
	case wire.StatusDegraded:
		return fmt.Errorf("%w: %s", ErrDegraded, body)
	case wire.StatusClosed:
		return fmt.Errorf("%w: %s", ErrStoreClosed, body)
	case wire.StatusUnavailable:
		return fmt.Errorf("%w: %s", ErrUnavailable, body)
	case wire.StatusCorrupt:
		return fmt.Errorf("%w: %s", ErrCorrupt, body)
	default:
		return fmt.Errorf("sealclient: %s: %s", st, body)
	}
}

// Get returns the value of key. Idempotent: retried on connection
// failures up to the configured bound.
func (c *Client) Get(key []byte) ([]byte, error) {
	return c.read(wire.OpGet, func(b []byte) []byte { return wire.AppendGet(b, key) })
}

// Put writes a key/value pair. Not retried.
func (c *Client) Put(key, value []byte) error {
	return c.write(wire.OpPut, func(b []byte) []byte { return wire.AppendPut(b, key, value) })
}

// Delete writes a tombstone for key. Not retried.
func (c *Client) Delete(key []byte) error {
	return c.write(wire.OpDelete, func(b []byte) []byte { return wire.AppendDelete(b, key) })
}

// Batch collects mutations for one atomic WRITEBATCH request.
type Batch struct {
	entries []wire.BatchEntry
}

// Put queues a key/value write. The slices are retained until Apply.
func (b *Batch) Put(key, value []byte) {
	b.entries = append(b.entries, wire.BatchEntry{Key: key, Value: value})
}

// Delete queues a tombstone.
func (b *Batch) Delete(key []byte) {
	b.entries = append(b.entries, wire.BatchEntry{Delete: true, Key: key})
}

// Len returns the number of queued mutations.
func (b *Batch) Len() int { return len(b.entries) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() { b.entries = b.entries[:0] }

// Apply sends the batch as one atomic write. Not retried.
func (c *Client) Apply(b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	return c.write(wire.OpWriteBatch, func(p []byte) []byte { return wire.AppendWriteBatch(p, b.entries) })
}

// KV is one scan result entry.
type KV struct {
	Key   []byte
	Value []byte
}

// Scan returns up to limit live entries with keys >= start.
// Idempotent: retried on connection failures.
func (c *Client) Scan(start []byte, limit int) ([]KV, error) {
	if limit < 0 {
		limit = 0
	}
	body, err := c.read(wire.OpScan, func(b []byte) []byte { return wire.AppendScan(b, start, uint32(limit)) })
	if err != nil {
		return nil, err
	}
	wkvs, err := wire.DecodeScanReply(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConn, err)
	}
	out := make([]KV, len(wkvs))
	for i, e := range wkvs {
		out[i] = KV{Key: e.Key, Value: e.Value}
	}
	return out, nil
}

// Stats fetches the server's STATS payload (engine stats, mode,
// degraded state, serving-layer counters) as raw JSON. Idempotent:
// retried on connection failures.
func (c *Client) Stats() (json.RawMessage, error) {
	body, err := c.read(wire.OpStats, func(b []byte) []byte { return b })
	return json.RawMessage(body), err
}
