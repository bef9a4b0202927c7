package lsm

import (
	"fmt"
	"testing"

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
// on and every operation sampled, then checks the journal holds the
// full causal chain: an op_get root carrying the caller's request id
// and I/O totals, stage children for the levels visited, and at least
// one io child attributing a physical access with its byte length.
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
	if _, err := d.GetCtx([]byte("key-0000"), OpContext{ReqID: 42}); err != nil {
		t.Fatal(err)
	}

	var root *obs.SpanNode
	for _, n := range obs.SpanTrees(d.Events()) {
		if n.Type == "op_get" && n.Fields["req_id"] == 42 {
			root = n
		}
	}
	if root == nil {
		t.Fatal("no op_get span with req_id 42 in the journal")
	}
	if root.Fields["reads"] == 0 || root.Fields["read_bytes"] == 0 {
		t.Errorf("op_get totals = %v, want physical reads attributed", root.Fields)
	}
	var ios, stages int
	for _, c := range root.Children {
		switch {
		case c.Type == "io":
			ios++
			if c.Fields["length"] <= 0 {
				t.Errorf("io span without byte length: %v", c.Fields)
			}
			if c.StartNS < root.StartNS || c.EndNS > root.EndNS {
				t.Errorf("io span %d..%d outside op %d..%d",
					c.StartNS, c.EndNS, root.StartNS, root.EndNS)
			}
		case len(c.Type) > 6 && c.Type[:6] == "stage_":
			stages++
		}
	}
	if ios == 0 {
		t.Error("op_get has no attributed io children")
	}
	if stages == 0 {
		t.Error("op_get has no stage children")
	}
}
