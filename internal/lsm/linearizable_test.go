package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sealdb/internal/chaos/history"
)

// linearArms are the stores the concurrent-history test runs on:
// SEALDB inline and with separated values (value-log GC running behind
// the readers), and SMRDB for its overlapped level.
func linearArms() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"sealdb", tinyConfig(ModeSEALDB)},
		{"sealdb+vlog", vlogConfig()},
		{"smrdb", tinyConfig(ModeSMRDB)},
	}
}

const (
	linearKeys    = 48
	linearWriters = 4
	linearPuts    = 1500 // per writer
)

func linearKey(i int) []byte { return fmt.Appendf(nil, "lk%03d", i) }

// recordHistory runs writers, Get readers, scanners and a maintenance
// goroutine against one fresh store of cfg, and returns the real-time
// history of what the clients saw: 4 writers put unique values (writer,
// counter) to shared keys and now and then delete one; 4 readers Get
// random keys; 2 scanners run Scan and ScanReverse, every key of the
// range a scan covered counting as a read over the scan's interval
// (found or not); and one goroutine flushes, compacts ranges and
// collects the value log (with separation on) until the writers are done.
func recordHistory(t *testing.T, cfg Config) []history.RegOp {
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	origin := time.Now()
	now := func() int64 { return int64(time.Since(origin)) }

	var (
		wg, writers sync.WaitGroup
		done        = make(chan struct{})
		mu          sync.Mutex
		ops         []history.RegOp
	)
	record := func(local []history.RegOp) {
		mu.Lock()
		ops = append(ops, local...)
		mu.Unlock()
	}
	// The writers' first batches queue behind a held d.mu and commit as
	// one group, so every arm checks a grouped commit.
	d.mu.Lock()
	for w := 0; w < linearWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var local []history.RegOp
			defer func() { record(local) }()
			for i := 0; i < linearPuts; i++ {
				key := linearKey(rng.Intn(linearKeys))
				op := history.RegOp{Client: w, Key: string(key), Kind: history.KindPut}
				var err error
				if rng.Intn(10) == 0 {
					op.Kind = history.KindDelete
					op.Invoke = now()
					err = d.Delete(key)
				} else {
					v := fmt.Appendf(nil, "w%d-%06d-", w, i)
					v = append(v, bytes.Repeat([]byte{'a' + byte(w)}, 64+(i*37)%320)...)
					op.Value = string(v)
					op.Invoke = now()
					err = d.Put(key, v)
				}
				op.Response = now()
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				local = append(local, op)
			}
		}(w)
	}
	awaitQueued(d, linearWriters)
	d.mu.Unlock()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var local []history.RegOp
			defer func() { record(local) }()
			for {
				select {
				case <-done:
					return
				default:
				}
				key := linearKey(rng.Intn(linearKeys))
				op := history.RegOp{Client: 100 + r, Key: string(key), Kind: history.KindGet, Invoke: now()}
				v, err := d.Get(key)
				op.Response = now()
				if err != nil && err != ErrNotFound {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				op.Value, op.Found = string(v), err == nil
				local = append(local, op)
			}
		}(r)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + s)))
			var local []history.RegOp
			defer func() { record(local) }()
			for {
				select {
				case <-done:
					return
				default:
				}
				start, limit := rng.Intn(linearKeys), 1+rng.Intn(12)
				inv := now()
				var kvs []KV
				var err error
				if s == 0 {
					kvs, err = d.Scan(linearKey(start), limit)
				} else {
					kvs, err = d.ScanReverse(linearKey(start), limit)
				}
				resp := now()
				if err != nil {
					t.Errorf("scanner %d: %v", s, err)
					return
				}
				// The keys the scan covered: from start to its last record,
				// or to the end of the key space if it stopped short.
				lo, hi := start, linearKeys-1
				if s == 1 {
					lo, hi = 0, start
				}
				if len(kvs) == limit {
					var last int
					fmt.Sscanf(string(kvs[len(kvs)-1].Key), "lk%03d", &last)
					if s == 0 {
						hi = last
					} else {
						lo = last
					}
				}
				got := map[string][]byte{}
				for _, rec := range kvs {
					got[string(rec.Key)] = rec.Value
				}
				for i := lo; i <= hi; i++ {
					v, found := got[string(linearKey(i))]
					local = append(local, history.RegOp{
						Client: 200 + s, Key: string(linearKey(i)), Kind: history.KindGet,
						Value: string(v), Found: found, Invoke: inv, Response: resp,
					})
				}
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(300))
		for step := 0; ; step++ {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
			var err error
			switch step % 3 {
			case 0:
				err = d.FlushMemtable()
			case 1:
				lo := rng.Intn(linearKeys)
				err = d.CompactRange(linearKey(lo), linearKey(lo+rng.Intn(16)))
			case 2:
				if cfg.vlogEnabled() {
					_, _, err = vlogGC(d)
				}
			}
			if err != nil {
				t.Errorf("maintenance step %d: %v", step, err)
				return
			}
		}
	}()
	writers.Wait()
	close(done)
	wg.Wait()
	if err := d.VerifyIntegrity(); err != nil {
		t.Error(err)
	}
	st := d.Stats()
	// Every Put and Delete is a one-entry batch, so fewer group commits
	// than entries means a group carried several writers' batches.
	groups, batches := d.metrics.writeLatency.Snapshot().Count, d.metrics.writes.Value()
	t.Logf("%d ops recorded; %d batches in %d group commits; %d flushes, %d compactions, %d vlog GC passes",
		len(ops), batches, groups, st.FlushCount, st.CompactionCount, st.VlogGCRuns)
	if st.FlushCount == 0 || st.CompactionCount == 0 || cfg.vlogEnabled() && st.VlogGCRuns == 0 {
		t.Errorf("maintenance did not run beside the clients: %+v", st)
	}
	if groups >= batches {
		t.Errorf("%d group commits for %d batches: no group carried two, so no grouped commit was checked", groups, batches)
	}
	return ops
}

// TestConcurrentHistoryIsLinearizable: Gets, scans and iterator steps
// take no engine lock and read a published state at the visible
// sequence number, so what concurrent clients see, flushes, compactions
// and value-log GC running underneath, must be a linearizable register
// history per key. Run under -race too.
func TestConcurrentHistoryIsLinearizable(t *testing.T) {
	for _, arm := range linearArms() {
		t.Run(arm.name, func(t *testing.T) {
			ops := recordHistory(t, arm.cfg)
			if v := history.CheckLinearizable(ops); len(v) > 0 {
				t.Fatalf("%d violations, first: %v", len(v), v[0])
			}
		})
	}
}
