package server

import (
	"errors"
	"testing"

	"sealdb/internal/lsm"
	"sealdb/internal/sealclient"
	"sealdb/internal/wire"
)

// newBatchConn returns a connection over a fresh DB with nothing but
// what the write path touches: the server's metrics and the batch.
func newBatchConn(t *testing.T) *conn {
	t.Helper()
	db, err := lsm.Open(lsm.DefaultConfig(lsm.ModeSEALDB))
	if err != nil {
		t.Fatalf("open db: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	s := &Server{db: db}
	s.m = newMetrics(db.ObsRegistry(), s)
	return &conn{srv: s, batch: lsm.NewBatch()}
}

// TestConnBatchSteadyStateAllocations asserts a connection's write
// cycle — decode the request into its batch, apply it, Reset — allocates
// nothing once warm: the whole point of Batch.Reset keeping capacity.
func TestConnBatchSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation accounting is meaningless here")
	}
	c := newBatchConn(t)
	val := make([]byte, 512)
	frames := []wire.Frame{
		{Op: wire.OpPut, ReqID: 1, Payload: wire.AppendPut(nil, []byte("key000001"), val)},
		{Op: wire.OpDelete, ReqID: 2, Payload: wire.AppendDelete(nil, []byte("key000002"))},
	}
	i := 0
	cycle := func() {
		f := &frames[i%len(frames)]
		i++
		if err := c.decodeWrite(f); err != nil {
			t.Fatal(err)
		}
		if err := c.commit(f.ReqID); err != nil {
			t.Fatal(err)
		}
		c.resetBatch()
	}
	// Warm the batch's backing buffer to steady-state capacity first.
	for j := 0; j < 8; j++ {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n > 0 {
		t.Fatalf("steady-state write cycle allocates %.1f objects/op, want 0", n)
	}
	if !c.group.Head || c.group.Batches != 1 || c.group.Entries != 1 {
		t.Fatalf("a lone writer's group = %+v, want a head of one batch, one entry", c.group)
	}
}

// TestConnBatchDropsBalloonedBatches asserts a connection does not pin
// an oversized buffer: a batch grown past maxBatchBytes is replaced,
// while an ordinary one is kept and reused.
func TestConnBatchDropsBalloonedBatches(t *testing.T) {
	c := newBatchConn(t)
	small := c.batch
	f := wire.Frame{Op: wire.OpPut, Payload: wire.AppendPut(nil, []byte("k"), []byte("v"))}
	if err := c.decodeWrite(&f); err != nil {
		t.Fatal(err)
	}
	c.resetBatch()
	if c.batch != small || c.batch.Len() != 0 {
		t.Fatalf("an ordinary batch was not kept and reset")
	}
	big := wire.Frame{Op: wire.OpPut, Payload: wire.AppendPut(nil, []byte("k"), make([]byte, maxBatchBytes+1))}
	if err := c.decodeWrite(&big); err != nil {
		t.Fatal(err)
	}
	if c.batch.Cap() <= maxBatchBytes {
		t.Fatalf("test batch capacity %d did not exceed the bound", c.batch.Cap())
	}
	ballooned := c.batch
	c.resetBatch()
	if c.batch == ballooned || c.batch.Cap() > maxBatchBytes {
		t.Fatalf("ballooned batch (cap %d) was retained", ballooned.Cap())
	}
}

// TestRoundTripSteadyStateAllocations bounds what one request costs
// the process once a connection is warm, counting both ends of a
// loopback connection: a Put allocates at most once, and a Get hit at
// most twice, the engine's copy of the value and the client's copy of
// the reply body, and a miss not at all (its reply has no body). Frames
// are read into and built in reused buffers, and the client's reply
// channel and timer are recycled.
func TestRoundTripSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation accounting is meaningless here")
	}
	_, srv := newTestServer(t, Config{})
	c, err := sealclient.Dial(srv.Addr().String(), sealclient.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key, val := []byte("key000001"), make([]byte, 1024)
	put := func() {
		if err := c.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	get := func() {
		if v, err := c.Get(key); err != nil || len(v) != len(val) {
			t.Fatalf("Get = %d bytes, %v", len(v), err)
		}
	}
	for i := 0; i < 100; i++ {
		put()
		get()
	}
	if n := testing.AllocsPerRun(200, put); n > 1 {
		t.Errorf("a Put round trip allocates %.2f objects, want <= 1", n)
	}
	if n := testing.AllocsPerRun(200, get); n > 2 {
		t.Errorf("a Get hit round trip allocates %.2f objects, want <= 2", n)
	}
	miss := func() {
		if _, err := c.Get([]byte("absent")); !errors.Is(err, sealclient.ErrNotFound) {
			t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
		}
	}
	if n := testing.AllocsPerRun(200, miss); n > 0 {
		t.Errorf("a Get miss round trip allocates %.2f objects, want 0", n)
	}
}
