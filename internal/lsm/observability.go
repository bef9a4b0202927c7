package lsm

import (
	"fmt"
	"net/http"
	"time"

	"sealdb/internal/dband"
	"sealdb/internal/obs"
	"sealdb/internal/smr"
)

// dbMetrics holds the engine's hot-path metric handles so
// instrumentation sites pay one atomic add, not a registry lookup.
type dbMetrics struct {
	writes, writeBytes   *obs.Counter
	gets, getHits        *obs.Counter
	flushes, flushBytes  *obs.Counter
	compactions          *obs.Counter
	compactionReadBytes  *obs.Counter
	compactionWriteBytes *obs.Counter
	trivialMoves         *obs.Counter
	setsCreated          *obs.Counter
	setsDropped          *obs.Counter
	bandGCPasses         *obs.Counter
	bandGCMoves          *obs.Counter
	bandGCBytes          *obs.Counter
	walRotations         *obs.Counter
	walReplaySkipped     *obs.Counter
	degraded             *obs.Counter
	sstableCorrupt       *obs.Counter
	sstableStreamed      *obs.Counter

	// Value-log (key–value separation) accounting (vlog.go).
	vlogAppends     *obs.Counter
	vlogAppendBytes *obs.Counter
	vlogReads       *obs.Counter
	vlogCacheHits   *obs.Counter
	vlogRotations   *obs.Counter
	vlogDeadBytes   *obs.Counter
	vlogGCRuns      *obs.Counter
	vlogGCRelocated *obs.Counter
	vlogGCReclaimed *obs.Counter
	vlogGCSkipped   *obs.Counter

	// Tracer accounting (trace.go).
	traceOps        *obs.Counter
	traceSampled    *obs.Counter
	traceSlowOps    *obs.Counter
	traceIOs        *obs.Counter
	traceIOBytes    *obs.Counter
	traceCacheHits  *obs.Counter
	traceDroppedIOs *obs.Counter

	// Per-level amplification accounting: logical bytes written into
	// and read out of each level by flushes and compactions.
	levelWriteBytes []*obs.Counter
	levelReadBytes  []*obs.Counter

	writeLatency      *obs.Histogram
	readLatency       *obs.Histogram
	flushLatency      *obs.Histogram
	compactionLatency *obs.Histogram

	// Per-stage latency breakdown, in simulated device nanoseconds;
	// observed only while tracing is enabled.
	stageWALNS      *obs.Histogram
	stageMemtableNS *obs.Histogram
	stageStallNS    *obs.Histogram
	stageReadMemNS  *obs.Histogram
	stageReadLevel  []*obs.Histogram
}

// initObs builds the DB's metrics registry and event journal and
// wires the device stack's observers into them. Called once from
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
	m.bandGCPasses = d.reg.Counter("sealdb_band_gc_passes_total")
	m.bandGCMoves = d.reg.Counter("sealdb_band_gc_moves_total")
	m.bandGCBytes = d.reg.Counter("sealdb_band_gc_bytes_total")
	m.walRotations = d.reg.Counter("sealdb_wal_rotations_total")
	m.walReplaySkipped = d.reg.Counter("sealdb_wal_replay_skipped_bytes_total")
	m.degraded = d.reg.Counter("sealdb_degraded_total")
	m.sstableCorrupt = d.reg.Counter("sealdb_sstable_corrupt_blocks_total")
	m.sstableStreamed = d.reg.Counter("sealdb_sstable_streamed_blocks_total")
	m.vlogAppends = d.reg.Counter("sealdb_vlog_appends_total")
	m.vlogAppendBytes = d.reg.Counter("sealdb_vlog_append_bytes_total")
	m.vlogReads = d.reg.Counter("sealdb_vlog_reads_total")
	m.vlogCacheHits = d.reg.Counter("sealdb_vlog_cache_hits_total")
	m.vlogRotations = d.reg.Counter("sealdb_vlog_rotations_total")
	m.vlogDeadBytes = d.reg.Counter("sealdb_vlog_dead_bytes_total")
	m.vlogGCRuns = d.reg.Counter("sealdb_vlog_gc_runs_total")
	m.vlogGCRelocated = d.reg.Counter("sealdb_vlog_gc_relocated_bytes_total")
	m.vlogGCReclaimed = d.reg.Counter("sealdb_vlog_gc_reclaimed_bytes_total")
	m.vlogGCSkipped = d.reg.Counter("sealdb_vlog_gc_skipped_total")
	m.writeLatency = d.reg.Histogram("sealdb_write_latency_ns")
	m.readLatency = d.reg.Histogram("sealdb_read_latency_ns")
	m.flushLatency = d.reg.Histogram("sealdb_flush_latency_ns")
	m.compactionLatency = d.reg.Histogram("sealdb_compaction_latency_ns")

	m.traceOps = d.reg.Counter("sealdb_trace_ops_total")
	m.traceSampled = d.reg.Counter("sealdb_trace_sampled_total")
	m.traceSlowOps = d.reg.Counter("sealdb_trace_slow_ops_total")
	m.traceIOs = d.reg.Counter("sealdb_trace_ios_total")
	m.traceIOBytes = d.reg.Counter("sealdb_trace_io_bytes_total")
	m.traceCacheHits = d.reg.Counter("sealdb_trace_cache_hits_total")
	m.traceDroppedIOs = d.reg.Counter("sealdb_trace_dropped_ios_total")

	m.stageWALNS = d.reg.Histogram("sealdb_stage_wal_append_ns")
	m.stageMemtableNS = d.reg.Histogram("sealdb_stage_memtable_ns")
	m.stageStallNS = d.reg.Histogram("sealdb_stage_compaction_stall_ns")
	m.stageReadMemNS = d.reg.Histogram("sealdb_stage_read_memtable_ns")
	m.stageReadLevel = make([]*obs.Histogram, d.cfg.NumLevels)
	m.levelWriteBytes = make([]*obs.Counter, d.cfg.NumLevels)
	m.levelReadBytes = make([]*obs.Counter, d.cfg.NumLevels)
	for l := 0; l < d.cfg.NumLevels; l++ {
		m.stageReadLevel[l] = d.reg.Histogram(fmt.Sprintf("sealdb_stage_read_level_%d_ns", l))
		m.levelWriteBytes[l] = d.reg.Counter(fmt.Sprintf("sealdb_level_%d_write_bytes_total", l))
		m.levelReadBytes[l] = d.reg.Counter(fmt.Sprintf("sealdb_level_%d_read_bytes_total", l))
	}

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
	d.runtime = obs.NewRuntimeSampler()
	d.runtime.Register(d.reg)
	d.registerLockGauges()
	d.registerGauges()
	d.installDeviceObservers()
}

// registerLockGauges bridges the process-global lock-contention
// profile (obs.Mutex sites) into the registry as aggregate gauges, so
// /metrics shows at a glance whether lock waits matter; per-site
// wait/hold histograms live at /debug/contention.
func (d *DB) registerLockGauges() {
	reg := d.reg
	sum := func(pick func(obs.LockSiteSnapshot) int64) float64 {
		var n int64
		for _, s := range obs.ContentionProfile() {
			n += pick(s)
		}
		return float64(n)
	}
	reg.GaugeFunc("sealdb_lock_acquisitions", func() float64 {
		return sum(func(s obs.LockSiteSnapshot) int64 { return s.Acquisitions })
	})
	reg.GaugeFunc("sealdb_lock_contentions", func() float64 {
		return sum(func(s obs.LockSiteSnapshot) int64 { return s.Contentions })
	})
	reg.GaugeFunc("sealdb_lock_wait_ns", func() float64 {
		return sum(func(s obs.LockSiteSnapshot) int64 { return s.TotalWaitNS })
	})
	reg.GaugeFunc("sealdb_lock_hold_ns", func() float64 {
		return sum(func(s obs.LockSiteSnapshot) int64 { return s.TotalHoldNS })
	})
}

// journalCapacity returns the event-journal ring bound.
func (c *Config) journalCapacity() int {
	if c.JournalCapacity > 0 {
		return c.JournalCapacity
	}
	return 4096
}

// registerGauges wires pull gauges over every subsystem's existing
// counters. Gauge functions run at snapshot time and may take the
// DB and subsystem locks; nothing calls MetricsSnapshot while holding
// d.mu.
func (d *DB) registerGauges() {
	reg := d.reg

	// Block cache and bloom-filter effectiveness (satellite: formerly
	// private to sstable/cache.go).
	reg.GaugeFunc("sealdb_cache_hits", func() float64 { return float64(d.cache.Stats().Hits) })
	reg.GaugeFunc("sealdb_cache_misses", func() float64 { return float64(d.cache.Stats().Misses) })
	reg.GaugeFunc("sealdb_cache_hit_ratio", func() float64 { return d.cache.Stats().HitRatio })
	reg.GaugeFunc("sealdb_cache_used_bytes", func() float64 { return float64(d.cache.Stats().UsedBytes) })
	reg.GaugeFunc("sealdb_bloom_negatives", func() float64 { return float64(d.cache.Stats().BloomNegatives) })
	reg.GaugeFunc("sealdb_bloom_true_positives", func() float64 { return float64(d.cache.Stats().BloomTruePositives) })
	reg.GaugeFunc("sealdb_bloom_false_positives", func() float64 { return float64(d.cache.Stats().BloomFalsePositives) })

	// Device (platter) counters.
	reg.GaugeFunc("sealdb_device_bytes_read", func() float64 { return float64(d.disk.Stats().BytesRead) })
	reg.GaugeFunc("sealdb_device_bytes_written", func() float64 { return float64(d.disk.Stats().BytesWritten) })
	reg.GaugeFunc("sealdb_device_read_ops", func() float64 { return float64(d.disk.Stats().ReadOps) })
	reg.GaugeFunc("sealdb_device_write_ops", func() float64 { return float64(d.disk.Stats().WriteOps) })
	reg.GaugeFunc("sealdb_device_seeks", func() float64 { return float64(d.disk.Stats().Seeks) })
	reg.GaugeFunc("sealdb_device_busy_seconds", func() float64 { return d.disk.Stats().BusyTime.Seconds() })

	// Drive-level amplification (the paper's Table I, live).
	reg.GaugeFunc("sealdb_host_bytes_written", func() float64 { return float64(d.drive.HostBytesWritten()) })
	reg.GaugeFunc("sealdb_wa", func() float64 { return d.Amplification().WA })
	reg.GaugeFunc("sealdb_awa", func() float64 { return d.Amplification().AWA })
	reg.GaugeFunc("sealdb_mwa", func() float64 { return d.Amplification().MWA })

	// Storage backend activity.
	reg.GaugeFunc("sealdb_storage_files", func() float64 { return float64(d.backend.NumFiles()) })
	reg.GaugeFunc("sealdb_storage_files_written", func() float64 { return float64(d.backend.Stats().FilesWritten) })
	reg.GaugeFunc("sealdb_storage_file_bytes", func() float64 { return float64(d.backend.Stats().FileBytes) })
	reg.GaugeFunc("sealdb_storage_group_writes", func() float64 { return float64(d.backend.Stats().GroupWrites) })
	reg.GaugeFunc("sealdb_storage_group_bytes", func() float64 { return float64(d.backend.Stats().GroupBytes) })
	reg.GaugeFunc("sealdb_storage_removes", func() float64 { return float64(d.backend.Stats().Removes) })
	reg.GaugeFunc("sealdb_storage_extent_frees", func() float64 { return float64(d.backend.Stats().ExtentFrees) })

	// Engine state under d.mu: memtable, WAL, snapshots, sets, levels.
	reg.GaugeFunc("sealdb_memtable_bytes", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(d.mem.ApproximateSize())
	})
	reg.GaugeFunc("sealdb_wal_size_bytes", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		if d.walW == nil {
			return 0
		}
		return float64(d.walW.Size())
	})
	reg.GaugeFunc("sealdb_wal_records", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		if d.walW == nil {
			return 0
		}
		return float64(d.walW.Records())
	})
	reg.GaugeFunc("sealdb_open_snapshots", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.snapshots))
	})
	// Value-log segment table (its own lock, ordered after d.mu, so
	// these never take the DB mutex).
	if d.cfg.vlogEnabled() {
		reg.GaugeFunc("sealdb_vlog_segments", func() float64 {
			_, _, n := d.vlog.tab.Totals()
			return float64(n)
		})
		reg.GaugeFunc("sealdb_vlog_live_bytes", func() float64 {
			live, _, _ := d.vlog.tab.Totals()
			return float64(live)
		})
		reg.GaugeFunc("sealdb_vlog_dead_bytes", func() float64 {
			_, dead, _ := d.vlog.tab.Totals()
			return float64(dead)
		})
	}
	reg.GaugeFunc("sealdb_live_sets", func() float64 { return float64(d.SetProfile().LiveSets) })
	reg.GaugeFunc("sealdb_set_live_members", func() float64 { return float64(d.SetProfile().LiveMembers) })
	reg.GaugeFunc("sealdb_set_invalid_members", func() float64 { return float64(d.SetProfile().InvalidMembers) })
	for l := 0; l < d.cfg.NumLevels; l++ {
		level := l
		reg.GaugeFunc(fmt.Sprintf("sealdb_level_%d_files", level), func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(d.vs.Current().NumFiles(level))
		})
		reg.GaugeFunc(fmt.Sprintf("sealdb_level_%d_bytes", level), func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(d.vs.Current().LevelBytes(level))
		})
	}

	// Mode-specific device state.
	if mgr := d.dev.DBand; mgr != nil {
		reg.GaugeFunc("sealdb_dband_frontier_bytes", func() float64 { return float64(mgr.Frontier()) })
		reg.GaugeFunc("sealdb_dband_free_bytes", func() float64 { return float64(mgr.FreeBytes()) })
		reg.GaugeFunc("sealdb_dband_allocated_bytes", func() float64 { return float64(mgr.AllocatedBytes()) })
		threshold := d.cfg.SSTableSize + d.cfg.GuardSize
		reg.GaugeFunc("sealdb_dband_fragment_bytes", func() float64 { return float64(mgr.FragmentBytes(threshold)) })
		reg.GaugeFunc("sealdb_dband_bands", func() float64 { return float64(len(mgr.Bands())) })
		reg.GaugeFunc("sealdb_dband_appends", func() float64 { return float64(mgr.Stats().Appends) })
		reg.GaugeFunc("sealdb_dband_inserts", func() float64 { return float64(mgr.Stats().Inserts) })
		reg.GaugeFunc("sealdb_dband_frees", func() float64 { return float64(mgr.Stats().Frees) })
		reg.GaugeFunc("sealdb_dband_coalesces", func() float64 { return float64(mgr.Stats().Coalesces) })

		// Storage-surface observatory (surface.go): per-band live/dead
		// accounting, free-list fragmentation, and the continuous
		// space-amplification counter next to WA/AWA above.
		reg.GaugeFunc("sealdb_band_live_bytes", func() float64 {
			sp := d.SpaceProfile()
			return float64(sp.PhysicalBytes - sp.SurfaceDeadBytes)
		})
		reg.GaugeFunc("sealdb_band_dead_bytes", func() float64 {
			return float64(d.SpaceProfile().SurfaceDeadBytes)
		})
		reg.GaugeFunc("sealdb_band_heat_max", func() float64 {
			return d.surface.maxHeat(d.deviceNow())
		})
		reg.GaugeFunc("sealdb_band_frag_holes", func() float64 {
			return float64(mgr.FragProfile().Holes)
		})
		reg.GaugeFunc("sealdb_band_frag_largest_free", func() float64 {
			return float64(mgr.FragProfile().LargestFree)
		})
		reg.GaugeFunc("sealdb_band_frag_index", func() float64 {
			return mgr.FragProfile().Index
		})
		reg.GaugeFunc("sealdb_space_physical_bytes", func() float64 { return float64(mgr.AllocatedBytes()) })
		reg.GaugeFunc("sealdb_space_live_bytes", func() float64 {
			return float64(d.SpaceProfile().LogicalLiveBytes)
		})
		reg.GaugeFunc("sealdb_space_amplification", func() float64 {
			return d.SpaceProfile().SpaceAmplification
		})
	}
	if fbd, ok := smr.Base(d.drive).(*smr.FixedBandDrive); ok {
		reg.GaugeFunc("sealdb_media_cache_cleans", func() float64 { return float64(fbd.MediaCacheStats().Cleans) })
		reg.GaugeFunc("sealdb_media_cache_clean_bytes", func() float64 { return float64(fbd.MediaCacheStats().CleanBytes) })
		reg.GaugeFunc("sealdb_media_cache_staged_writes", func() float64 { return float64(fbd.MediaCacheStats().StagedWrites) })
		reg.GaugeFunc("sealdb_media_cache_staged_bytes", func() float64 { return float64(fbd.MediaCacheStats().StagedBytes) })
		reg.GaugeFunc("sealdb_media_cache_dirty_bands", func() float64 { return float64(fbd.MediaCacheStats().DirtyBands) })
	}
	if rd := d.retryDrive(); rd != nil {
		reg.GaugeFunc("sealdb_write_retries", func() float64 { return float64(rd.Stats().Retried) })
		reg.GaugeFunc("sealdb_write_retry_recovered", func() float64 { return float64(rd.Stats().Recovered) })
		reg.GaugeFunc("sealdb_write_retry_exhausted", func() float64 { return float64(rd.Stats().Exhausted) })
	}
}

// driveLayer finds the outermost layer of the drive chain that is a T
// (a concrete middleware type, or an interface a middleware offers).
func driveLayer[T any](drv smr.Drive) (layer T, ok bool) {
	for drv != nil {
		if layer, ok = drv.(T); ok {
			return layer, true
		}
		u, wraps := drv.(smr.Unwrapper)
		if !wraps {
			break
		}
		drv = u.Unwrap()
	}
	return layer, false
}

// retryDrive finds the retry middleware in the drive chain, if any.
func (d *DB) retryDrive() *smr.RetryDrive {
	rd, _ := driveLayer[*smr.RetryDrive](d.drive)
	return rd
}

// installDeviceObservers journals the device-stack events the
// registry's gauges can only aggregate: media-cache cleaning RMWs and
// dynamic-band allocator activity.
func (d *DB) installDeviceObservers() {
	if rd := d.retryDrive(); rd != nil {
		rd.SetObserver(func(attempt int, err error, recovered bool) {
			d.journal.Record("write_retry", map[string]int64{
				"attempt": int64(attempt), "recovered": boolToInt64(recovered),
			})
		})
	}
	if fbd, ok := smr.Base(d.drive).(*smr.FixedBandDrive); ok {
		fbd.SetCleanObserver(func(band, bytes int64, dur time.Duration) {
			d.journal.Record("media_cache_clean", map[string]int64{
				"band": band, "bytes": bytes, "device_ns": int64(dur),
			})
		})
	}
	if mgr := d.dev.DBand; mgr != nil {
		mgr.SetObserver(func(op string, e dband.Extent) {
			d.journal.Record("dband_"+op, map[string]int64{
				"off": e.Off, "len": e.Len,
			})
			// Every grant heats the bands it lands in. Runs with
			// dband_manager_mu held; the surface lock is a leaf below it.
			if op != "free" { // alloc_append, alloc_insert
				d.surface.wrote(e.Off, e.Len, d.deviceNow())
			}
		})
	}
}

// ObsRegistry returns the DB's metrics registry so colocated layers
// (the network server) can register their own series alongside the
// engine's; everything lands in one /metrics snapshot. Callers must
// follow the obsreg contract: literal snake_case names, one
// registration site each.
func (d *DB) ObsRegistry() *obs.Registry { return d.reg }

// MetricsSnapshot captures every metric — engine counters and
// latency histograms plus the pull gauges over the device stack — at
// one point in time. It is the same data the /metrics endpoint
// serves. Do not call while holding the DB's own callbacks.
func (d *DB) MetricsSnapshot() *obs.Snapshot {
	return d.reg.Snapshot()
}

// Events returns the journaled engine events (flushes, compactions,
// set migrations, band GC, media-cache cleans, dynamic-band allocator
// activity), oldest first. Timestamps are simulated device
// nanoseconds.
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
	if rd := d.retryDrive(); rd != nil {
		st := rd.Stats()
		p.Retry = &st
	}
	// A fault injector anywhere in the drive chain exposes its
	// counters without lsm importing the injection package.
	if fi, ok := driveLayer[interface{ FaultStats() map[string]int64 }](d.drive); ok {
		p.Injected = fi.FaultStats()
	}
	return p
}

// ContentionProfile reports the process-wide lock-contention profile
// (every obs.Mutex site, ranked by total wait). Empty histograms mean
// lock profiling is off — enable it with obs.SetLockProfiling(true)
// or the /debug/contention?profile=on control.
func (d *DB) ContentionProfile() []obs.LockSiteSnapshot {
	return obs.ContentionProfile()
}

// RuntimeProfile reports Go runtime telemetry (goroutines, GC pauses,
// scheduler latency, heap sizes), the /debug/runtime payload.
func (d *DB) RuntimeProfile() obs.RuntimeProfile {
	return d.runtime.Profile()
}

// ObsHandler returns the observability HTTP handler: /metrics
// (Prometheus text, or JSON with ?format=json), /debug/levels,
// /debug/sets, /debug/events, /debug/faults, /debug/amplification,
// /debug/bands (per-band heat/live/dead plus vlog segment occupancy),
// /debug/space (the space-amplification counter and its inputs),
// /debug/contention (?profile=on|off toggles lock profiling),
// /debug/runtime, and the /debug/pprof/* suite. The cmd drivers mount
// it behind their -serve flag.
func (d *DB) ObsHandler() http.Handler {
	m := obs.NewMux()
	m.HandleMetrics("/metrics", d.MetricsSnapshot)
	m.HandleJSON("/debug/levels", func() any { return d.LevelProfile() })
	m.HandleJSON("/debug/sets", func() any { return d.SetProfile() })
	m.HandleJSON("/debug/events", func() any { return d.Events() })
	m.HandleJSON("/debug/faults", func() any { return d.FaultProfile() })
	m.HandleJSON("/debug/amplification", func() any { return d.AmplificationProfile() })
	m.HandleJSON("/debug/bands", func() any { return d.BandProfile() })
	m.HandleJSON("/debug/space", func() any { return d.SpaceProfile() })
	m.HandleContention("/debug/contention")
	m.HandleJSON("/debug/runtime", func() any { return d.RuntimeProfile() })
	m.HandlePprof()
	return m
}
