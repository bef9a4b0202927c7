package lsm

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sealdb/internal/invariant"
	"sealdb/internal/obs"
)

// TestGetHotPathAllocsTracingOff is the tracing-overhead acceptance
// check: with tracing disabled, a memtable-hit Get performs exactly
// the one allocation it always did (the returned value copy) — the
// tracer's presence costs one atomic load and nothing on the heap.
// Allocation accounting is unreliable under the race detector, so the
// test is gated like the server's batch-pool check.
func TestGetHotPathAllocsTracingOff(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	if invariant.Enabled {
		t.Skip("lock-order watchdog allocates on profiled acquisitions")
	}
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	key, val := []byte("hot-key"), []byte("hot-value")
	if err := d.Put(key, val); err != nil {
		t.Fatal(err)
	}
	if d.tracer.enabled.Load() {
		t.Fatal("tracing unexpectedly on")
	}
	if n := testing.AllocsPerRun(500, func() {
		if _, err := d.Get(key); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("memtable-hit Get allocates %.1f times per op, want <= 1 (value copy)", n)
	}
}

// TestTableGetAllocsTracingOff: a Get that a cached row or a cached block
// of an SSTable answers allocates at most the value it returns. The level
// lookup takes the one candidate of a sorted level without building a
// list, and the block iterators parse keys into stack buffers.
func TestTableGetAllocsTracingOff(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	if invariant.Enabled {
		t.Skip("lock-order watchdog allocates on profiled acquisitions")
	}
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	for i := 0; i < 2000; i++ {
		value := make([]byte, 32)
		if i%50 == 0 {
			value = bigValue(string(key(i)), 1000)
		}
		if err := d.Put(key(i), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		key  []byte
	}{{"row", key(1000)}, {"block", key(1001)}} {
		rows := d.cache.Stats().RowEntries
		for i := 0; i < 2; i++ {
			if _, err := d.Get(tc.key); err != nil {
				t.Fatal(err)
			}
		}
		if formed := d.cache.Stats().RowEntries - rows; formed != map[string]int{"row": 1, "block": 0}[tc.name] {
			t.Fatalf("%s: set-up: two reads formed %d rows", tc.name, formed)
		}
		var n float64
		reads, misses := readCost(d, func() {
			n = testing.AllocsPerRun(500, func() {
				if _, err := d.Get(tc.key); err != nil {
					t.Fatal(err)
				}
			})
		})
		if reads != 0 || misses != 0 {
			t.Fatalf("%s: set-up: the Gets missed %d blocks and read the device %d times", tc.name, misses, reads)
		}
		if n > 1 {
			t.Errorf("a Get served by a cached %s allocates %.1f times per op, want <= 1 (value copy)", tc.name, n)
		}
	}
}

// TestTraceSpanTreeAttribution drives a table-reading Get with tracing
// on and every operation sampled, then checks the journal holds its
// span tree: an op_get root carrying the caller's request id and the
// device counters' delta across the call as its totals, and stage
// children for the levels visited, each inside the root's interval.
func TestTraceSpanTreeAttribution(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	cfg.Trace = TraceConfig{Enabled: true, SampleEvery: 1}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Push enough data through the memtable that early keys live in
	// SSTables and a Get must touch the platter.
	val := make([]byte, 512)
	for i := 0; i < 200; i++ {
		if err := d.Put([]byte(fmt.Sprintf("key-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	before := d.disk.Stats()
	if _, err := d.GetCtx([]byte("key-0000"), OpContext{ReqID: 42}); err != nil {
		t.Fatal(err)
	}
	after := d.disk.Stats()

	var root *obs.SpanNode
	for _, n := range obs.SpanTrees(d.Events()) {
		if n.Type == "op_get" && n.Fields["req_id"] == 42 {
			root = n
		}
	}
	if root == nil {
		t.Fatal("no op_get span with req_id 42 in the journal")
	}
	want := map[string]int64{
		"reads":       after.ReadOps - before.ReadOps,
		"writes":      after.WriteOps - before.WriteOps,
		"read_bytes":  after.BytesRead - before.BytesRead,
		"write_bytes": after.BytesWritten - before.BytesWritten,
		"seeks":       after.Seeks - before.Seeks,
	}
	if want["reads"] == 0 {
		t.Fatal("set-up: the Get read nothing from the device")
	}
	for k, w := range want {
		if root.Fields[k] != w {
			t.Errorf("op_get %s = %d, the device counters moved %d", k, root.Fields[k], w)
		}
	}
	if root.StartNS != int64(before.BusyTime) || root.EndNS != int64(after.BusyTime) {
		t.Errorf("op_get lasts %d..%d, the device clock ran %d..%d",
			root.StartNS, root.EndNS, before.BusyTime, after.BusyTime)
	}
	stages := checkStages(t, root)
	if stages == 0 {
		t.Error("op_get has no stage children")
	}
}

// checkStages requires every child of an op root to be a stage lying
// inside the root's interval, and returns how many there are.
func checkStages(t *testing.T, root *obs.SpanNode) int {
	t.Helper()
	for _, c := range root.Children {
		if !strings.HasPrefix(c.Type, "stage_") {
			t.Errorf("%s has a %s child; want stages only", root.Type, c.Type)
		}
		if c.StartNS < root.StartNS || c.EndNS > root.EndNS || c.StartNS > c.EndNS {
			t.Errorf("%s %d..%d outside %s %d..%d",
				c.Type, c.StartNS, c.EndNS, root.Type, root.StartNS, root.EndNS)
		}
	}
	return len(root.Children)
}

// TestTracedGetTakesNoEngineLock: a traced Get is as lock-free as an
// untraced one, so it completes while another goroutine holds d.mu.
func TestTracedGetTakesNoEngineLock(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	cfg.Trace = TraceConfig{Enabled: true, SampleEvery: 1}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := d.GetCtx([]byte("k"), OpContext{ReqID: 7})
		done <- err
	}()
	select {
	case err := <-done:
		d.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		d.mu.Unlock()
		<-done
		t.Fatal("a traced Get waited for the engine lock")
	}
}

// TestTracedConcurrentOps runs traced Gets and Puts from four goroutines
// over one key range with every operation sampled. Every span tree
// comes out whole: no child lost its root, and every stage lies inside
// its root.
func TestTracedConcurrentOps(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	cfg.Trace = TraceConfig{Enabled: true, SampleEvery: 1}
	cfg.JournalCapacity = 1 << 16
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const keys, ops = 300, 400
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i%keys)) }
	val := make([]byte, 128)
	for i := 0; i < keys; i++ {
		if err := d.Put(key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := key(i*7 + g*131)
				var err error
				if g < 2 {
					_, err = d.GetCtx(k, OpContext{ReqID: uint64(g*ops + i + 1)})
				} else {
					err = d.Put(k, val)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := d.JournalDropped(); n != 0 {
		t.Fatalf("journal dropped %d events; raise JournalCapacity", n)
	}
	gets, applies := 0, 0
	for _, n := range obs.SpanTrees(d.Events()) {
		if n.ParentDropped {
			t.Errorf("%s span %d lost its parent %d", n.Type, n.ID, n.Parent)
		}
		switch n.Type {
		case "op_get":
			gets++
		case "op_apply":
			applies++
		default:
			continue
		}
		checkStages(t, n)
	}
	// A group commit holds at most one batch of each writer.
	if gets != 2*ops || applies < keys+ops {
		t.Errorf("journal holds %d op_get and %d op_apply trees, want %d and at least %d", gets, applies, 2*ops, keys+ops)
	}
}
