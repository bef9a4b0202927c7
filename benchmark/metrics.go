package main

import (
	"slices"
	"strconv"
	"strings"

	"sealdb/internal/obs"
)

// metricDef names one metric. An end-to-end metric has two kinds of
// bound, both the share by which it may worsen before a change counts
// as a regression:
//
//   - bound (tcpBound on tcp_hot_mixed, whose two clients make even the
//     device-clock and allocation counts vary from run to run) applies
//     when both sides ran the same seeds, as -aa does. With one client
//     the device-clock and allocation metrics then repeat exactly, so
//     the bound can be tight.
//   - driver is the bound in BENCHMARK.json, one per metric for all
//     workloads. The driver gives every run another seed and requires
//     the interquartile spread over ten such runs to stay inside the
//     bound, so it has to cover how far the metric moves with the seed
//     on the workload where it moves most (put_random, where the seed
//     decides which compactions fall inside the measured window).
type metricDef struct {
	name     string
	unit     string
	better   string // "higher" or "lower"
	bound    float64
	tcpBound float64
	driver   float64
	source   string // per-layer: c counter delta, s span, m isolated micro-measurement
}

func (d metricDef) boundOn(sp *spec) float64 {
	if sp.clients > 1 && d.tcpBound > 0 {
		return d.tcpBound
	}
	return d.bound
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEndDefs are what a user of the store sees. The first three and
// the two allocation counts are deterministic with one client (they
// repeat bit for bit for a seed); the wall-clock ones carry the host's
// noise, less what the memory probe explains (probe.go).
var endToEndDefs = []metricDef{
	{name: "dev_ops_per_s", unit: "1/s", better: higher, bound: 0.01, tcpBound: 0.03, driver: 0.18},
	{name: "write_amp", unit: "ratio", better: lower, bound: 0.01, tcpBound: 0.03, driver: 0.10},
	{name: "space_amp", unit: "ratio", better: lower, bound: 0.01, tcpBound: 0.03, driver: 0.25},
	{name: "wall_ops_per_s", unit: "1/s", better: higher, bound: 0.15, driver: 0.25},
	{name: "wall_p50_us", unit: "us", better: lower, bound: 0.10, driver: 0.25},
	{name: "host_allocs_per_op", unit: "count", better: lower, bound: 0.01, tcpBound: 0.03, driver: 0.16},
	{name: "host_alloc_kb_per_op", unit: "KiB", better: lower, bound: 0.01, tcpBound: 0.03, driver: 0.20},
	{name: "host_live_heap_mb", unit: "MiB", better: lower, bound: 0.05, driver: 0.12},
	{name: "setup_s", unit: "s", better: lower, bound: 0.10, driver: 0.25},
}

// perLayerDefs is the per-layer ledger, measured from outside: every
// number comes from a public snapshot of the engine, from the
// benchmark's own spans, or from timed calls into a layer's public
// functions. See README.md for which end-to-end metric each should
// move, and on which workload.
var perLayerDefs = []metricDef{
	{name: "sealclient.get_p50_us", unit: "us", better: lower, source: "s"},
	{name: "sealclient.put_p50_us", unit: "us", better: lower, source: "s"},
	{name: "sealclient.get_p99_us", unit: "us", better: lower, source: "s"},
	{name: "sealclient.put_p99_us", unit: "us", better: lower, source: "s"},
	{name: "sealclient.overhead_us_per_op", unit: "us", better: lower, source: "c+s"},

	{name: "wire.bytes_per_op", unit: "B", better: lower, source: "c"},
	{name: "wire.encode_put_ns", unit: "ns", better: lower, source: "m"},
	{name: "wire.decode_put_ns", unit: "ns", better: lower, source: "m"},
	{name: "wire.encode_allocs", unit: "count", better: lower, source: "m"},

	{name: "server.get_p50_us", unit: "us", better: lower, source: "c"},
	{name: "server.write_p50_us", unit: "us", better: lower, source: "c"},
	{name: "server.coalesce_wait_p50_us", unit: "us", better: lower, source: "c"},
	{name: "server.writes_per_commit", unit: "ratio", better: higher, source: "c"},

	{name: "lsm.put_wall_p50_us", unit: "us", better: lower, source: "s"},
	{name: "lsm.put_wall_p99_us", unit: "us", better: lower, source: "s"},
	{name: "lsm.get_wall_p50_us", unit: "us", better: lower, source: "s"},
	{name: "lsm.get_wall_p99_us", unit: "us", better: lower, source: "s"},
	{name: "lsm.scan_wall_p50_us", unit: "us", better: lower, source: "s"},
	{name: "lsm.scan_wall_p99_us", unit: "us", better: lower, source: "s"},
	{name: "lsm.delete_wall_p50_us", unit: "us", better: lower, source: "s"},
	{name: "lsm.put_dev_p999_us", unit: "us", better: lower, source: "s"},
	{name: "lsm.get_dev_p99_us", unit: "us", better: lower, source: "s"},
	{name: "lsm.scan_dev_p99_us", unit: "us", better: lower, source: "s"},
	{name: "lsm.stall_dev_max_ms", unit: "ms", better: lower, source: "s"},
	{name: "lsm.flushes", unit: "count", better: lower, source: "c"},
	{name: "lsm.compactions", unit: "count", better: lower, source: "c"},
	{name: "lsm.trivial_moves", unit: "count", better: higher, source: "c"},
	{name: "lsm.compaction_read_mb", unit: "MiB", better: lower, source: "c"},
	{name: "lsm.compaction_write_mb", unit: "MiB", better: lower, source: "c"},
	{name: "lsm.compaction_dev_p50_ms", unit: "ms", better: lower, source: "c"},
	{name: "lsm.compaction_dev_max_ms", unit: "ms", better: lower, source: "c"},
	{name: "lsm.wa_run", unit: "ratio", better: lower, source: "c"},
	{name: "lsm.sets_created", unit: "count", better: lower, source: "c"},
	{name: "lsm.sets_dropped", unit: "count", better: lower, source: "c"},
	{name: "lsm.space_amp_max", unit: "ratio", better: lower, source: "c"},
	{name: "lsm.get_hit_ratio", unit: "ratio", better: higher, source: "c"},
	{name: "lsm.reopen_ms", unit: "ms", better: lower, source: "c"},
	{name: "lsm.self_wall_us_per_op", unit: "us", better: lower, source: "s"},
	{name: "lsm.db_mu_wait_share", unit: "ratio", better: lower, source: "s"},
	{name: "lsm.db_mu_hold_ms", unit: "ms", better: lower, source: "s"},

	{name: "memtable.add_ns", unit: "ns", better: lower, source: "m"},
	{name: "memtable.add_allocs", unit: "count", better: lower, source: "m"},
	{name: "memtable.get_ns", unit: "ns", better: lower, source: "m"},

	{name: "wal.records", unit: "count", better: lower, source: "c"},
	{name: "wal.rotations", unit: "count", better: lower, source: "c"},
	{name: "wal.append_dev_p50_us", unit: "us", better: lower, source: "c"},
	{name: "wal.append_ns", unit: "ns", better: lower, source: "m"},
	{name: "wal.append_allocs", unit: "count", better: lower, source: "m"},
	{name: "wal.append_kb_per_op", unit: "KiB", better: lower, source: "m"},

	{name: "sstable.cache_hit_ratio", unit: "ratio", better: higher, source: "c"},
	{name: "sstable.cache_misses_per_op", unit: "count", better: lower, source: "c"},
	{name: "sstable.bloom_probes_per_get", unit: "count", better: lower, source: "c"},
	{name: "sstable.bloom_fp_ratio", unit: "ratio", better: lower, source: "c"},
	{name: "sstable.get_ns", unit: "ns", better: lower, source: "m"},
	{name: "sstable.get_allocs", unit: "count", better: lower, source: "m"},
	{name: "sstable.iter_next_ns", unit: "ns", better: lower, source: "m"},
	{name: "sstable.build_ns_per_kb", unit: "ns", better: lower, source: "m"},

	{name: "version.files", unit: "count", better: lower, source: "c"},
	{name: "version.edit_apply_ns", unit: "ns", better: lower, source: "m"},
	{name: "version.edit_apply_allocs", unit: "count", better: lower, source: "m"},

	{name: "vlog.append_mb", unit: "MiB", better: lower, source: "c"},
	{name: "vlog.gc_runs", unit: "count", better: lower, source: "c"},
	{name: "vlog.gc_rewritten_mb", unit: "MiB", better: lower, source: "c"},
	{name: "vlog.reads_per_get", unit: "count", better: lower, source: "c"},
	{name: "vlog.dead_ratio", unit: "ratio", better: lower, source: "c"},
	{name: "vlog.segments", unit: "count", better: lower, source: "c"},
	{name: "vlog.append_ns", unit: "ns", better: lower, source: "m"},
	{name: "vlog.read_ns", unit: "ns", better: lower, source: "m"},

	{name: "storage.files_written", unit: "count", better: lower, source: "c"},
	{name: "storage.group_writes", unit: "count", better: lower, source: "c"},
	{name: "storage.group_mb", unit: "MiB", better: lower, source: "c"},
	{name: "storage.removes", unit: "count", better: lower, source: "c"},

	{name: "dband.appends", unit: "count", better: lower, source: "c"},
	{name: "dband.inserts", unit: "count", better: higher, source: "c"},
	{name: "dband.frees", unit: "count", better: lower, source: "c"},
	{name: "dband.coalesces", unit: "count", better: higher, source: "c"},
	{name: "dband.holes", unit: "count", better: lower, source: "c"},
	{name: "dband.frag_index", unit: "ratio", better: lower, source: "c"},
	{name: "dband.frontier_mb", unit: "MiB", better: lower, source: "c"},
	{name: "dband.alloc_ns", unit: "ns", better: lower, source: "m"},

	{name: "smr.awa", unit: "ratio", better: lower, source: "c"},
	{name: "smr.host_write_mb", unit: "MiB", better: lower, source: "c"},
	{name: "smr.write_calls", unit: "count", better: lower, source: "s"},
	{name: "smr.read_calls", unit: "count", better: lower, source: "s"},
	{name: "smr.write_retries", unit: "count", better: lower, source: "c"},
	{name: "smr.wall_us_per_op", unit: "us", better: lower, source: "s"},

	{name: "platter.read_ops_per_op", unit: "count", better: lower, source: "c"},
	{name: "platter.write_ops_per_op", unit: "count", better: lower, source: "c"},
	{name: "platter.read_kb_per_op", unit: "KiB", better: lower, source: "c"},
	{name: "platter.write_kb_per_op", unit: "KiB", better: lower, source: "c"},
	{name: "platter.seeks_per_op", unit: "count", better: lower, source: "c"},
	{name: "platter.busy_s", unit: "s", better: lower, source: "c"},
	{name: "platter.write_ns_per_kb", unit: "ns", better: lower, source: "m"},
	{name: "platter.read_ns_per_kb", unit: "ns", better: lower, source: "m"},

	{name: "host.gc_cycles", unit: "count", better: lower, source: "c"},
	{name: "host.gc_cpu_share", unit: "ratio", better: lower, source: "c"},
	{name: "host.loadavg1", unit: "count", better: lower, source: "c"},
	{name: "host.mem_contention", unit: "ratio", better: lower, source: "c"},
	{name: "host.wall_ops_per_s_raw", unit: "1/s", better: higher, source: "c"},
	{name: "trace.overhead_share", unit: "ratio", better: higher, source: "s"},
}

const mib = 1 << 20

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the nine end-to-end metrics from an untraced pass.
func endToEnd(ps *pass) map[string]float64 {
	ph := ps.ph
	ops := float64(ph.ops)
	busy := (ph.after.disk.BusyTime - ph.before.disk.BusyTime).Seconds()
	var spaceSum float64
	for _, s := range ph.spaceAmp {
		spaceSum += s
	}
	return map[string]float64{
		"dev_ops_per_s":        ratio(ops, busy),
		"write_amp":            ratio(float64(ph.after.disk.BytesWritten), float64(ph.after.stats.UserBytes)),
		"space_amp":            ratio(spaceSum, float64(len(ph.spaceAmp))),
		"wall_ops_per_s":       ratio(ops, normalise(ph.wall.Seconds(), ph.contention, gammaMean)),
		"wall_p50_us":          normalise(ps.lat.p50, ph.contention, gammaMedian),
		"host_allocs_per_op":   float64(ph.after.mem.Mallocs-ph.before.mem.Mallocs) / ops,
		"host_alloc_kb_per_op": float64(ph.after.mem.TotalAlloc-ph.before.mem.TotalAlloc) / 1024 / ops,
		"host_live_heap_mb":    ps.liveHeap,
		"setup_s":              median(ps.setups),
	}
}

// deterministic lists the metrics that must repeat exactly between two
// single-client passes of one seed, traced or not.
var deterministic = []string{"dev_ops_per_s", "write_amp", "space_amp"}

// counterLayer computes the per-layer metrics of source c from the
// counter deltas of a pass's measured phase.
func counterLayer(ps *pass, out map[string]float64) {
	ph := ps.ph
	b, a := &ph.before, &ph.after
	ops := float64(ph.ops)
	counter := func(name string) float64 { return float64(a.m.Counters[name] - b.m.Counters[name]) }
	gauge := func(name string) float64 { return a.m.Gauges[name] - b.m.Gauges[name] }
	hist := func(name string) obs.HistogramSnapshot { return a.m.Histograms[name] }

	// Serving layer (zero in process: the histograms do not exist).
	out["wire.bytes_per_op"] = (counter("sealdb_server_bytes_in_total") + counter("sealdb_server_bytes_out_total")) / ops
	out["server.get_p50_us"] = float64(hist("sealdb_server_get_latency_ns").P50) / 1e3
	out["server.write_p50_us"] = float64(hist("sealdb_server_write_latency_ns").P50) / 1e3
	out["server.coalesce_wait_p50_us"] = float64(hist("sealdb_server_coalesce_wait_ns").P50) / 1e3
	out["server.writes_per_commit"] = ratio(float64(hist("sealdb_server_coalesced_group_requests").Sum), counter("sealdb_server_coalesced_commits_total"))
	if ps.p.sp.tcp {
		g, w := hist("sealdb_server_get_latency_ns"), hist("sealdb_server_write_latency_ns")
		handler := ratio(float64(g.Sum+w.Sum), float64(g.Count+w.Count)) / 1e3
		out["sealclient.overhead_us_per_op"] = ps.lat.meanUS - handler
	}

	// Engine.
	st := a.stats
	out["lsm.flushes"] = float64(st.FlushCount - b.stats.FlushCount)
	out["lsm.compactions"] = float64(st.CompactionCount - b.stats.CompactionCount)
	out["lsm.trivial_moves"] = float64(st.TrivialMoves - b.stats.TrivialMoves)
	out["lsm.compaction_read_mb"] = float64(st.CompactionReadBytes-b.stats.CompactionReadBytes) / mib
	out["lsm.compaction_write_mb"] = float64(st.CompactionWriteBytes-b.stats.CompactionWriteBytes) / mib
	var compDev []int64
	for _, ci := range st.Compactions[len(b.stats.Compactions):] {
		if !ci.Flush && !ci.TrivialMove {
			compDev = append(compDev, int64(ci.Latency))
		}
	}
	if len(compDev) > 0 {
		p50, _, _ := quantiles(compDev)
		out["lsm.compaction_dev_p50_ms"] = p50 / 1e3
		out["lsm.compaction_dev_max_ms"] = float64(compDev[len(compDev)-1]) / 1e6
	}
	store := func(s *snap) float64 {
		return float64(s.stats.FlushBytes + s.stats.CompactionWriteBytes + s.stats.VlogAppendBytes + s.stats.VlogGCBytes)
	}
	out["lsm.wa_run"] = ratio(store(a)-store(b), float64(st.UserBytes-b.stats.UserBytes))
	out["lsm.sets_created"] = counter("sealdb_sets_created_total")
	out["lsm.sets_dropped"] = counter("sealdb_sets_dropped_total")
	for _, s := range ph.spaceAmp {
		out["lsm.space_amp_max"] = max(out["lsm.space_amp_max"], s)
	}
	gets := float64(st.Gets - b.stats.Gets)
	out["lsm.get_hit_ratio"] = ratio(float64(st.GetHits-b.stats.GetHits), gets)
	out["lsm.reopen_ms"] = float64(ps.reopen.Nanoseconds()) / 1e6

	// One WAL record per commit; the median commit absorbs no flush, so
	// its device time is the WAL append (after the value-log append,
	// when values are separated).
	w := hist("sealdb_write_latency_ns")
	out["wal.records"] = float64(w.Count - b.m.Histograms["sealdb_write_latency_ns"].Count)
	out["wal.rotations"] = counter("sealdb_wal_rotations_total")
	out["wal.append_dev_p50_us"] = float64(w.P50) / 1e3

	hits, misses := gauge("sealdb_cache_hits"), gauge("sealdb_cache_misses")
	out["sstable.cache_hit_ratio"] = ratio(hits, hits+misses)
	out["sstable.cache_misses_per_op"] = misses / ops
	neg, tp, fp := gauge("sealdb_bloom_negatives"), gauge("sealdb_bloom_true_positives"), gauge("sealdb_bloom_false_positives")
	out["sstable.bloom_probes_per_get"] = ratio(neg+tp+fp, gets)
	out["sstable.bloom_fp_ratio"] = ratio(fp, fp+neg)

	out["version.files"] = a.m.Gauges["sealdb_storage_files"]

	out["vlog.append_mb"] = float64(st.VlogAppendBytes-b.stats.VlogAppendBytes) / mib
	out["vlog.gc_runs"] = float64(st.VlogGCRuns - b.stats.VlogGCRuns)
	out["vlog.gc_rewritten_mb"] = float64(st.VlogGCBytes-b.stats.VlogGCBytes) / mib
	out["vlog.reads_per_get"] = ratio(counter("sealdb_vlog_reads_total"), gets)
	live, dead := a.m.Gauges["sealdb_vlog_live_bytes"], a.m.Gauges["sealdb_vlog_dead_bytes"]
	out["vlog.dead_ratio"] = ratio(dead, live+dead)
	out["vlog.segments"] = a.m.Gauges["sealdb_vlog_segments"]

	out["storage.files_written"] = gauge("sealdb_storage_files_written")
	out["storage.group_writes"] = gauge("sealdb_storage_group_writes")
	out["storage.group_mb"] = gauge("sealdb_storage_group_bytes") / mib
	out["storage.removes"] = gauge("sealdb_storage_removes")

	out["dband.appends"] = gauge("sealdb_dband_appends")
	out["dband.inserts"] = gauge("sealdb_dband_inserts")
	out["dband.frees"] = gauge("sealdb_dband_frees")
	out["dband.coalesces"] = gauge("sealdb_dband_coalesces")
	out["dband.holes"] = a.m.Gauges["sealdb_band_frag_holes"]
	out["dband.frag_index"] = a.m.Gauges["sealdb_band_frag_index"]
	out["dband.frontier_mb"] = a.m.Gauges["sealdb_dband_frontier_bytes"] / mib

	out["smr.awa"] = ps.awa
	out["smr.host_write_mb"] = gauge("sealdb_host_bytes_written") / mib
	out["smr.write_retries"] = gauge("sealdb_write_retries")

	d, d0 := a.disk, b.disk
	out["platter.read_ops_per_op"] = float64(d.ReadOps-d0.ReadOps) / ops
	out["platter.write_ops_per_op"] = float64(d.WriteOps-d0.WriteOps) / ops
	out["platter.read_kb_per_op"] = float64(d.BytesRead-d0.BytesRead) / 1024 / ops
	out["platter.write_kb_per_op"] = float64(d.BytesWritten-d0.BytesWritten) / 1024 / ops
	out["platter.seeks_per_op"] = float64(d.Seeks-d0.Seeks) / ops
	out["platter.busy_s"] = (d.BusyTime - d0.BusyTime).Seconds()

	out["host.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	out["host.gc_cpu_share"] = ratio(a.gcCPU-b.gcCPU, ph.wall.Seconds()*float64(procs))
	out["host.loadavg1"] = loadavg1()
	out["host.mem_contention"] = ph.contention
	out["host.wall_ops_per_s_raw"] = ph.rawOpsPerSecond()
}

// spanLayer computes the per-layer metrics of source s from a traced
// pass, and the tracing overhead against the untraced pass.
func spanLayer(untraced, traced *pass, out map[string]float64) {
	tr, ph := traced.tr, traced.ph
	ops := float64(ph.ops)
	k := &traced.lat.kind
	if traced.p.sp.tcp {
		// Over TCP the op span is the client's call; the engine's calls
		// happen inside the server, out of the benchmark's reach.
		out["sealclient.get_p50_us"], out["sealclient.get_p99_us"] = k[opGet].p50, k[opGet].p99
		out["sealclient.put_p50_us"], out["sealclient.put_p99_us"] = k[opPut].p50, k[opPut].p99
	} else {
		out["lsm.get_wall_p50_us"], out["lsm.get_wall_p99_us"] = k[opGet].p50, k[opGet].p99
		out["lsm.put_wall_p50_us"], out["lsm.put_wall_p99_us"] = k[opPut].p50, k[opPut].p99
		out["lsm.scan_wall_p50_us"], out["lsm.scan_wall_p99_us"] = k[opScan].p50, k[opScan].p99
		out["lsm.delete_wall_p50_us"] = k[opDelete].p50

		// Device time per op: exact, the sum over the drive calls
		// parented to it.
		var dev [numOpKinds][]int64
		var opWall int64
		for _, s := range tr.ops[0] {
			kind := opKind(s.name - spanGet)
			dev[kind] = append(dev[kind], s.dev)
			opWall += s.end - s.start
		}
		devQuantile := func(v []int64, q float64) float64 {
			if len(v) == 0 {
				return 0
			}
			slices.Sort(v)
			return float64(rank(v, q)) / 1e3
		}
		out["lsm.put_dev_p999_us"] = devQuantile(dev[opPut], 0.999)
		out["lsm.get_dev_p99_us"] = devQuantile(dev[opGet], 0.99)
		out["lsm.scan_dev_p99_us"] = devQuantile(dev[opScan], 0.99)
		out["lsm.stall_dev_max_ms"] = devQuantile(append(dev[opPut], dev[opDelete]...), 1) / 1e3
		// Self time: the engine call minus the drive calls inside it.
		out["lsm.self_wall_us_per_op"] = float64(opWall-tr.driveWall) / 1e3 / ops
	}
	if l, ok := ph.after.locks["lsm_db_mu"]; ok {
		out["lsm.db_mu_wait_share"] = ratio(float64(l.TotalWaitNS), float64(ph.wall.Nanoseconds())*float64(traced.p.sp.clients))
		out["lsm.db_mu_hold_ms"] = float64(l.TotalHoldNS) / 1e6
	}
	out["smr.write_calls"] = float64(tr.writeCalls)
	out["smr.read_calls"] = float64(tr.readCalls)
	out["smr.wall_us_per_op"] = float64(tr.driveWall) / 1e3 / ops
	out["trace.overhead_share"] = ratio(endToEnd(traced)["wall_ops_per_s"], endToEnd(untraced)["wall_ops_per_s"])
}

func loadavg1() float64 {
	f, _ := strconv.ParseFloat(strings.SplitN(loadavg(), " ", 2)[0], 64)
	return f
}
