package lsm

import (
	"net/http"

	"sealdb/internal/obs"
	"sealdb/internal/smr"
)

// dbMetrics holds the engine's hot-path metric handles so
// instrumentation sites pay one atomic add, not a registry lookup.
// Every name has a reader in DESIGN.md §Observability; TestMetricNameSet
// compares that table with what is registered.
type dbMetrics struct {
	writes, writeBytes       *obs.Counter
	gets, getHits            *obs.Counter
	flushes, flushBytes      *obs.Counter
	compactions              *obs.Counter
	compactionReadBytes      *obs.Counter
	compactionWriteBytes     *obs.Counter
	trivialMoves             *obs.Counter
	setsCreated, setsDropped *obs.Counter
	walRotations             *obs.Counter
	sstableCorrupt           *obs.Counter
	sstableStreamed          *obs.Counter

	// Value-log (key–value separation) accounting (vlog.go).
	vlogAppendBytes *obs.Counter
	vlogReads       *obs.Counter
	vlogCacheHits   *obs.Counter
	vlogGCRuns      *obs.Counter
	vlogGCRelocated *obs.Counter

	writeLatency *obs.Histogram
}

// initObs builds the DB's metrics registry and event journal and
// wires the block cache's corruption observer into them. Called once from
// OpenDevice, before recovery (so recovery flushes are journaled).
func (d *DB) initObs() {
	d.reg = obs.NewRegistry()
	d.journal = obs.NewJournal(d.cfg.journalCapacity(), d.deviceNow)

	m := &d.metrics
	m.writes = d.reg.Counter("sealdb_writes_total")
	m.writeBytes = d.reg.Counter("sealdb_write_bytes_total")
	m.gets = d.reg.Counter("sealdb_gets_total")
	m.getHits = d.reg.Counter("sealdb_get_hits_total")
	m.flushes = d.reg.Counter("sealdb_flush_total")
	m.flushBytes = d.reg.Counter("sealdb_flush_bytes_total")
	m.compactions = d.reg.Counter("sealdb_compaction_total")
	m.compactionReadBytes = d.reg.Counter("sealdb_compaction_read_bytes_total")
	m.compactionWriteBytes = d.reg.Counter("sealdb_compaction_write_bytes_total")
	m.trivialMoves = d.reg.Counter("sealdb_trivial_move_total")
	m.setsCreated = d.reg.Counter("sealdb_sets_created_total")
	m.setsDropped = d.reg.Counter("sealdb_sets_dropped_total")
	m.walRotations = d.reg.Counter("sealdb_wal_rotations_total")
	m.sstableCorrupt = d.reg.Counter("sealdb_sstable_corrupt_blocks_total")
	m.sstableStreamed = d.reg.Counter("sealdb_sstable_streamed_blocks_total")
	m.vlogAppendBytes = d.reg.Counter("sealdb_vlog_append_bytes_total")
	m.vlogReads = d.reg.Counter("sealdb_vlog_reads_total")
	m.vlogCacheHits = d.reg.Counter("sealdb_vlog_cache_hits_total")
	m.vlogGCRuns = d.reg.Counter("sealdb_vlog_gc_runs_total")
	m.vlogGCRelocated = d.reg.Counter("sealdb_vlog_gc_relocated_bytes_total")
	m.writeLatency = d.reg.Histogram("sealdb_write_latency_ns")

	// Media corruption detected on the read path: count it and
	// journal the damaged block's location so operators can map it
	// back to a table file without re-reading the device.
	d.cache.SetCorruptObserver(func(file, offset uint64) {
		m.sstableCorrupt.Inc()
		d.journal.Record("sstable_corrupt_block", map[string]int64{
			"file": int64(file), "offset": int64(offset),
		})
	})

	d.tracer.init(d)
}

// journalCapacity returns the event-journal ring bound.
func (c *Config) journalCapacity() int {
	if c.JournalCapacity > 0 {
		return c.JournalCapacity
	}
	return 4096
}

// collectGauges is the one collection pass behind MetricsSnapshot and
// /metrics: it enters the engine mutex once, reads each subsystem's
// stats once, and writes every gauge from those locals. A gauge is
// added here as one more line, never as a closure that locks again.
// Must not be called with d.mu held.
func (d *DB) collectGauges(g map[string]float64) {
	d.mu.Lock()
	memBytes := d.mem.ApproximateSize()
	var vlogLive, vlogDead int64
	var vlogSegments int
	if d.cfg.vlogEnabled() {
		// The active segment's length is the writer's, which d.mu guards.
		vlogLive, vlogDead, vlogSegments = d.vlogTotals()
	}
	d.mu.Unlock()
	g["sealdb_memtable_bytes"] = float64(memBytes)

	cs := d.cache.Stats()
	g["sealdb_cache_hits"] = float64(cs.Hits)
	g["sealdb_cache_misses"] = float64(cs.Misses)
	g["sealdb_cache_used_bytes"] = float64(cs.UsedBytes)
	g["sealdb_bloom_negatives"] = float64(cs.BloomNegatives)
	g["sealdb_bloom_true_positives"] = float64(cs.BloomTruePositives)
	g["sealdb_bloom_false_positives"] = float64(cs.BloomFalsePositives)

	// The drive's half of the paper's Table I.
	g["sealdb_host_bytes_written"] = float64(d.dev.Drive.HostBytesWritten())
	g["sealdb_awa"] = smr.AWA(d.dev.Drive)

	bs := d.backend.Stats()
	g["sealdb_storage_files"] = float64(d.backend.NumFiles())
	g["sealdb_storage_files_written"] = float64(bs.FilesWritten)
	g["sealdb_storage_group_writes"] = float64(bs.GroupWrites)
	g["sealdb_storage_group_bytes"] = float64(bs.GroupBytes)
	g["sealdb_storage_removes"] = float64(bs.Removes)

	if d.cfg.vlogEnabled() {
		g["sealdb_vlog_segments"] = float64(vlogSegments)
		g["sealdb_vlog_live_bytes"] = float64(vlogLive)
		g["sealdb_vlog_dead_bytes"] = float64(vlogDead)
	}

	// Mode-specific device state.
	if mgr := d.dev.DBand; mgr != nil {
		ms, frag := mgr.Stats(), mgr.FragProfile()
		g["sealdb_dband_frontier_bytes"] = float64(frag.Frontier)
		g["sealdb_dband_appends"] = float64(ms.Appends)
		g["sealdb_dband_inserts"] = float64(ms.Inserts)
		g["sealdb_dband_frees"] = float64(ms.Frees)
		g["sealdb_dband_coalesces"] = float64(ms.Coalesces)
		g["sealdb_band_frag_holes"] = float64(frag.Holes)
		g["sealdb_band_frag_index"] = frag.Index
	}
	if fbd := d.dev.Fixed; fbd != nil {
		g["sealdb_media_cache_cleans"] = float64(fbd.RMWCount())
	}
	g["sealdb_write_retries"] = float64(d.dev.Drive.Stats().Retried)
}

// ObsRegistry returns the DB's metrics registry so colocated layers
// (the network server) can register their own series alongside the
// engine's; everything lands in one /metrics snapshot. Callers must
// follow the obsreg contract: literal snake_case names, one
// registration site each.
func (d *DB) ObsRegistry() *obs.Registry { return d.reg }

// MetricsSnapshot captures every metric — the registry's counters and
// histograms (and whatever a colocated layer registered), plus the
// engine's gauges over the device stack, written by collectGauges — at
// one point in time. It is the same data the /metrics endpoint
// serves. Do not call while holding the DB's own callbacks.
func (d *DB) MetricsSnapshot() *obs.Snapshot {
	s := d.reg.Snapshot()
	d.collectGauges(s.Gauges)
	return s
}

// Events returns the journaled engine events (flushes, compactions,
// value-log appends and GC passes, log rotations, recovery's replays and
// repairs, corrupt blocks, reclaim errors, degradation), oldest first.
// Timestamps are simulated device nanoseconds.
func (d *DB) Events() []obs.Event {
	return d.journal.Events()
}

// JournalDropped returns how many events the journal ring has
// evicted; offline analyzers use it to tell a complete event record
// from a truncated one.
func (d *DB) JournalDropped() int64 {
	return d.journal.Dropped()
}

// FaultProfile is the /debug/faults payload: degraded-mode state,
// retry-layer counters, injected-fault counters (when a fault
// injector is in the drive chain), and what the last recovery found.
type FaultProfile struct {
	Degraded      bool             `json:"degraded"`
	DegradedCause string           `json:"degraded_cause,omitempty"`
	Retry         *smr.RetryStats  `json:"retry,omitempty"`
	Injected      map[string]int64 `json:"injected,omitempty"`
	Recovery      RecoveryInfo     `json:"recovery"`
}

// FaultProfile reports the DB's fault, retry and recovery state.
func (d *DB) FaultProfile() FaultProfile {
	p := FaultProfile{Recovery: d.Recovery()}
	if err := d.Degraded(); err != nil {
		p.Degraded = true
		p.DegradedCause = err.Error()
	}
	st := d.dev.Drive.Stats()
	p.Retry = &st
	// A fault injector in the WrapDrive hook exposes its counters
	// without lsm importing the injection package.
	if fi, ok := d.dev.Hook.(interface{ FaultStats() map[string]int64 }); ok {
		p.Injected = fi.FaultStats()
	}
	return p
}

// ObsHandler returns the observability HTTP handler: /metrics
// (Prometheus text, or JSON with ?format=json), /debug/levels,
// /debug/sets, /debug/events, /debug/faults, /debug/bands (per-band
// live/dead plus vlog segment occupancy), /debug/space (the
// space-amplification counter and its inputs), /debug/contention
// (?profile=on|off toggles lock profiling) and the /debug/pprof/*
// suite. The cmd drivers mount it behind their -serve flag.
func (d *DB) ObsHandler() http.Handler {
	m := obs.NewMux()
	m.HandleMetrics("/metrics", d.MetricsSnapshot)
	m.HandleJSON("/debug/levels", func() any { return d.LevelProfile() })
	m.HandleJSON("/debug/sets", func() any { return d.SetProfile() })
	m.HandleJSON("/debug/events", func() any { return d.Events() })
	m.HandleJSON("/debug/faults", func() any { return d.FaultProfile() })
	m.HandleJSON("/debug/bands", func() any { return d.BandProfile() })
	m.HandleJSON("/debug/space", func() any { return d.SpaceProfile() })
	m.HandleContention("/debug/contention")
	m.HandlePprof()
	return m
}
