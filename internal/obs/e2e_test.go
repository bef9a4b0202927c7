package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"sealdb/internal/kv"
	"sealdb/internal/lsm"
	"sealdb/internal/obs"
)

// loadStore opens a small store and writes enough data to force
// flushes and compactions.
func loadStore(t *testing.T, mode lsm.Mode) *lsm.DB {
	t.Helper()
	cfg := lsm.Config{Mode: mode, Geometry: lsm.ScaledGeometry(32*kv.KiB, 1*kv.GiB), Seed: 1}
	db, err := lsm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	val := make([]byte, 1024)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("user%09d", i*7919%2000)
		if err := db.Put([]byte(key), val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("user%09d", i)
		if _, err := db.Get([]byte(key)); err != nil && err != lsm.ErrNotFound {
			t.Fatal(err)
		}
	}
	return db
}

// TestMetricsScrapeE2E drives a loaded store's ObsHandler over real
// HTTP and checks the Prometheus exposition carries live engine
// activity.
func TestMetricsScrapeE2E(t *testing.T) {
	db := loadStore(t, lsm.ModeSEALDB)

	srv, err := obs.Serve("127.0.0.1:0", db.ObsHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr.String()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	counter := func(name string) int64 {
		t.Helper()
		for _, line := range strings.Split(metrics, "\n") {
			var v int64
			if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 && !strings.HasPrefix(line, "#") {
				return v
			}
		}
		t.Fatalf("metric %s not found in scrape", name)
		return 0
	}
	if got := counter("sealdb_flush_total"); got == 0 {
		t.Error("no flushes counted")
	}
	if got := counter("sealdb_compaction_total"); got == 0 {
		t.Error("no compactions counted")
	}
	if got := counter("sealdb_writes_total"); got != 2000 {
		t.Errorf("writes = %d, want 2000", got)
	}
	if got := counter("sealdb_gets_total"); got != 200 {
		t.Errorf("gets = %d, want 200", got)
	}
	for _, want := range []string{
		"sealdb_write_latency_ns_count",
		"sealdb_write_latency_ns_sum",
		"sealdb_awa 1\n",
		"sealdb_bloom_negatives ",
		"sealdb_dband_frontier_bytes ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// JSON variant of the same endpoint.
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(get("/metrics?format=json")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["sealdb_flush_total"] == 0 {
		t.Error("JSON snapshot has no flushes")
	}
	if snap.Histograms["sealdb_write_latency_ns"].Count != 2000 {
		t.Errorf("JSON write latency count = %d", snap.Histograms["sealdb_write_latency_ns"].Count)
	}

	// Debug endpoints parse and carry live state.
	var levels []lsm.LevelInfo
	if err := json.Unmarshal([]byte(get("/debug/levels")), &levels); err != nil {
		t.Fatal(err)
	}
	var files int
	for _, l := range levels {
		files += l.Files
	}
	if files == 0 {
		t.Error("/debug/levels reports an empty tree")
	}
	var sets lsm.SetProfile
	if err := json.Unmarshal([]byte(get("/debug/sets")), &sets); err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	if err := json.Unmarshal([]byte(get("/debug/events")), &events); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	for _, e := range events {
		types[e.Type]++
	}
	if types["flush"] == 0 || types["compaction"] == 0 {
		t.Errorf("journal missing flush/compaction spans: %v", types)
	}
	var faults lsm.FaultProfile
	if err := json.Unmarshal([]byte(get("/debug/faults")), &faults); err != nil {
		t.Fatal(err)
	}
	if faults.Degraded {
		t.Error("/debug/faults reports a healthy store as degraded")
	}
	if faults.Retry == nil {
		t.Error("/debug/faults missing retry-layer counters")
	}
}

// TestMetricsSnapshotDirect exercises the public API without HTTP and
// checks the fixed-band modes surface media-cache activity.
func TestMetricsSnapshotDirect(t *testing.T) {
	db := loadStore(t, lsm.ModeLevelDB)
	s := db.MetricsSnapshot()
	if s.Counters["sealdb_flush_total"] == 0 {
		t.Error("no flushes in snapshot")
	}
	if s.Gauges["sealdb_media_cache_cleans"] == 0 {
		t.Error("fixed-band drive reported no media-cache cleans")
	}
	if s.Gauges["sealdb_awa"] <= 1 {
		t.Errorf("leveldb-on-SMR AWA = %v, want > 1", s.Gauges["sealdb_awa"])
	}
}
