package lsm

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"sealdb/internal/invariant"
	"sealdb/internal/kv"
	"sealdb/internal/obs"
)

// The device-fingerprint goldens. Single-client device-clock output is
// a pure function of the op stream, so a refactor that promises
// "unchanged device I/O" must reproduce every one of these constants
// bit for bit: the platter counters, the last sequence number, the
// tree shape, and hashes of everything the engine reports about itself
// (journal, counters, Stats and /debug views, read results).
//
// The constants were recorded at the commit *before* the engine's
// forked hot paths were folded (PR 13) and must only ever change in a
// PR whose CHANGES.md entry explains why device I/O moved — as PR 14's
// does for "sealdb+vlog", whose commits became one device write (its
// read results did not move), and PR 15's for the two dynamic-band
// Journal hashes, which lost their per-extent dead-charge events (every
// other event, timestamp and field, and every Views hash, held), and
// PR 17's for "sealdb+vlog", whose point reads became cache hits and
// whose commits are sized from what reaches the tree (Seq, Levels and
// Reads held), plus the Counters hash of the other four, which lists
// one more name, sealdb_vlog_cache_hits_total=0 (dropping that line
// from the digest reproduces the old hashes), and PR 19's for the
// Counters hash of all five, which lists
// sealdb_sstable_streamed_blocks_total=0 (same check: the stream's scans
// return at most twelve small records and never reach a third block, so
// streaming iterators changed no device access here; the benchmark's
// scan_short row in BENCH_device.json is what pins theirs), and PR 21's
// for the Counters and Views hashes of all five: the instrument audit
// deleted 36 counter and histogram names and the AmplificationProfile
// view, and the parent's digests with exactly those lines dropped hash
// to these values (CHANGES.md has the filter), and PR 22's for the four
// modes that open tables through the six-reader table cache of this
// test: sstable.Open no longer puts a table's index into the block cache,
// so a reader reopened after the table cache dropped it reads the index
// from the device, right behind its bloom filter (on "leveldb" ReadOps
// 12,335 -> 16,923, BytesRead +0.7 %, BusyNS +0.0015 %; Seeks, writes,
// Seq, Levels and Reads held, and with that one change taken out the
// cache's two segments and rows reproduce PR 21's constants: 1 MiB of
// cache holds this store, so nothing is ever evicted). "smrdb" opens
// four files and held; and PR 23's for the two dynamic-band modes, whose
// stream calls DefragmentBands: a relocation is now a compaction that
// does not merge, so each moved member takes a fresh file number and the
// swap edit is a few varint bytes longer (BytesWritten +6 and +4, BusyNS
// -42 and -90 ns: the same writes at the same places, a few bytes more
// MANIFEST; Journal, Counters and Views list the new numbers, a
// relocation now counts its set as created and the old one as dropped;
// ReadOps, WriteOps, BytesRead, Seeks, Seq, Levels and Reads held); and
// PR 24's for the same two modes: a relocated table's cached blocks follow
// it to its new number (Cache.RekeyFile) where they used to be evicted
// with the old one, so reads after a DefragmentBands pass find them
// ("sealdb" ReadOps -59, BytesRead -1.7 %, Seeks -61; "sealdb+vlog" -24,
// -1.2 %, -25; writes, Seq, Levels and Reads held, and with that one
// call taken out rows that follow their keys reproduce PR 23's constants
// in all five modes: this stream's values are too small for rows); and
// re-recorded for all five when compaction began to tolerate debt (a
// level runs to 1.5x its target, then drains below 1.0x) and a log
// fragment became one device write. The trigger alone moves the four
// multi-level modes (on "sealdb" BusyNS +11.5 %, ReadOps +16 %: this
// stream's reads meet more L0 tables, and its writes are too few to
// repay it) and leaves "smrdb" bit-identical; the one-write fragment
// then nearly halves WriteOps (-40 % on "sealdb+vlog", whose separated
// commits were one write already) at BusyNS within +3 us, or -0.13 % and
// -0.17 % with 11 and 12 fewer seeks on the two fixed-band LevelDB
// modes. Reads held throughout. Re-recorded for all five when a Scan
// began to read each level's share of its range in one device read (a
// span: the block it lands in, its successor and the level's share of
// the limit, cached only for the landing block) and stopped stepping
// past its last record. The stream's scans are short, so their spans are
// the two-block floor: the successor rides in the landing block's read
// instead of a read of its own, and the step that used to load a block
// after the last record is gone. On "leveldb" ReadOps -41 (-26 of them
// the step), Seeks -25, BytesRead +1.5 % (a span's second block is read
// whether or not the scan reaches it), BusyNS -0.14 %; Journal and
// Counters move with those reads, and the two dynamic-band modes' Views
// with the read heat BandProfile reports. WriteOps, BytesWritten, Seq, Levels and Reads
// held in all five. Re-recorded for the four multi-level modes when a
// table's reader moved onto its FileMeta, opened once on the first read
// that needs it, and the bounded table-reader cache went: this test had
// bounded it to six readers, so the stream kept reopening tables and
// re-reading their filter and index. The new constants equal, field for
// field, the old code's output with that bound raised to 1 << 20. On
// "leveldb" ReadOps 19,162 -> 2,778 and BusyNS 181.1 s -> 51.3 s; on
// "sealdb" ReadOps 17,883 -> 2,109. WriteOps moved only on the two
// fixed-band modes (8,426 -> 8,416 and 8,327 -> 8,320): fewer reads
// force fewer media-cache band cleanings. Seq, Levels and Reads held in
// all five, and "smrdb" is unchanged. Re-recorded for all five when a
// flush or compaction output that takes a cached row along began to be
// opened from its builder's bytes, and a relocated copy of an open table
// from the bytes the relocation read: the first read of either reads no
// footer, filter or index. The rows rule alone moved ReadOps on "leveldb"
// 2,778 -> 2,553, "leveldb+sets" 2,319 -> 2,139, "smrdb" 517 -> 502 and
// "sealdb" 2,109 -> 1,929, and left "sealdb+vlog" bit-identical (its
// tables hold pointers, too small for rows); the relocation rule then
// moved "sealdb" 1,929 -> 1,854 and "sealdb+vlog" 2,409 -> 2,385. BytesRead,
// Seeks, BusyNS and the Journal, Counters and Views hashes move with those
// reads; WriteOps, BytesWritten, Seq, Levels and Reads held in all five.
// Re-recorded for "sealdb+vlog" when a vlog GC pass stopped looking up
// the records whose tree entries a compaction had already dropped: the
// blocks those lookups fetched are fetched by later reads instead, at
// other times (ReadOps, BytesRead, Seeks, WriteOps, BytesWritten, Seq,
// Levels, Counters and Reads held; BusyNS +140,530 ns, and the Journal and
// Views hashes move with the device times). Value entries that moved from
// pointer keys to key slots in the same change leave all five
// bit-identical: 1 MiB of cache holds this stream's values, stranded ones
// included, so nothing was ever evicted.
// Re-recorded for "sealdb+vlog" (and its invariantGoldens twin) when a
// sealed segment began to hand its unused reservation and guard back to
// the allocator, and the post-commit collector began to run on a
// log-wide dead budget instead of at every half-dead segment: tables land
// in the released tails and the passes run at other commits, so every
// field but Levels and Reads moves (ReadOps 2,394 -> 2,421, WriteOps
// 8,021 -> 8,046, Seq 0x2394 -> 0x23ef). The other four modes have no
// value log and are bit-identical.
// Re-recorded for all five (and the invariantGoldens twin) when L0 began
// to fall due at 1.5x its trigger only once reads of its tables had cost
// the device time its drain would, and else at 3x: this stream reads L0
// before every drain, so each drain happens where it did and the Journal
// hashes move only because an L0 compaction span now carries rent_ns and
// price_ns. In the same change an L0 table (or one of an overlapped
// level) became a one-file concatIter, which a Seek past its largest key
// does not open: "smrdb" then reads such a table's filter and index at a
// later op, BusyNS -1,199,027 ns (-0.02 %) with ReadOps, BytesRead and
// Seeks held. Every other field held in all five.
// Re-recorded the Views hash of the two dynamic-band modes (and the
// invariantGoldens twin) when /debug/bands lost its write-heat columns
// and began to list only bands that hold allocation, deadest first. The
// twin's Views now equal the plain constant: the heat was the one view
// that read the device clock. Every other field held in all five.
// Re-recorded for all five (and the invariantGoldens twin) when a table's
// bloom filter began to be sized by its level: 10 bits per key at the
// deepest non-empty level and 4.8 more per level above it. The wider
// filters grow the upper levels' bytes, so the four multi-level modes
// compact at other points (Levels "3,11,7,..." -> "3,13,5,..."), and
// fewer absent keys get past a filter: "sealdb" ReadOps 1,836 -> 1,811,
// "leveldb" 2,508 -> 2,486; "smrdb" reads as often, a few bytes more. Reads
// and Seq held in all five.
// Re-recorded the Journal and Views hashes of all five (and the
// invariantGoldens twin) when a traced operation's totals became the
// platter counters' delta across it: the per-access io spans and the
// op roots' seek_distance, service_ns, cache_hits and dropped_ios fields
// left the journal, and CompactionInfo lost HostBytes and DeviceBytes.
// The parent's digests with exactly those events and fields dropped, and
// the later event ids renumbered past the dropped ones, hash to these
// values; every other field held in all five.
// Re-recorded the Views hash of all five (and the invariantGoldens twin)
// when Stats lost GCBytes, a second owner of sealdb_band_gc_bytes_total:
// the parent's digests with " GCBytes:N" cut from the Stats line hash to
// these values, plain and under the tag; every other field held.
// Re-recorded the Journal and Counters hashes of all five (and the
// invariantGoldens twin) when the drives and the allocator lost their
// observers and the seven per-level write counters went: the parent's
// digests with the dband_alloc_append, dband_alloc_insert, dband_free,
// media_cache_clean and write_retry events dropped (later event ids and
// parents renumbered past them), and the sealdb_level_N_write_bytes_total
// lines dropped, hash to these values; every other field held in all
// five, and "smrdb", which journaled none of them, kept its Journal hash.
// When a mismatch is intended, the failure message prints the new literal.
type deviceFingerprint struct {
	ReadOps, WriteOps       int64
	BytesRead, BytesWritten int64
	Seeks, BusyNS           int64
	Seq                     uint64
	Levels                  string // files per level, shallowest first
	Journal                 string // event ids, parents, names, times, fields
	Counters                string // registry counters + histogram count/sum
	Views                   string // Stats, Amplification, /debug profiles
	Reads                   string // every Get/GetAt/Scan/ScanReverse result
}

var fingerprintGoldens = map[string]deviceFingerprint{
	"leveldb":      {ReadOps: 2486, WriteOps: 8416, BytesRead: 51169281, BytesWritten: 51841180, Seeks: 3843, BusyNS: 50252565780, Seq: 0x226d, Levels: "3,13,5,0,0,0,17", Journal: "233fe82e28acde6e", Counters: "e0d49bb8b18aa76c", Views: "6da3370665cfc574", Reads: "e7b228fbb77598be"},
	"leveldb+sets": {ReadOps: 2098, WriteOps: 8319, BytesRead: 41432432, BytesWritten: 42797526, Seeks: 3313, BusyNS: 43076188567, Seq: 0x226d, Levels: "3,13,5,0,0,0,17", Journal: "138577b8c279de7b", Counters: "909c67253a0d5617", Views: "4d28be58b4a615e4", Reads: "e7b228fbb77598be"},
	"smrdb":        {ReadOps: 511, WriteOps: 7525, BytesRead: 6308467, BytesWritten: 2779943, Seeks: 889, BusyNS: 6191628471, Seq: 0x226d, Levels: "1,3", Journal: "a33409d25ad9e9a2", Counters: "78a4462c9575a6da", Views: "30636fa34bc2be6d", Reads: "e7b228fbb77598be"},
	"sealdb":       {ReadOps: 1811, WriteOps: 7998, BytesRead: 11961896, BytesWritten: 6918992, Seeks: 2477, BusyNS: 16490450915, Seq: 0x226d, Levels: "3,13,5,0,0,0,17", Journal: "dab78f28c94866e5", Counters: "c72dafee2d22049d", Views: "e46fb8fd18f52022", Reads: "e7b228fbb77598be"},
	"sealdb+vlog":  {ReadOps: 2415, WriteOps: 8037, BytesRead: 5454509, BytesWritten: 2644984, Seeks: 6382, BusyNS: 42813471569, Seq: 0x23ef, Levels: "3,5,0,0,0,0,7", Journal: "8a2c1875ecf13c7c", Counters: "ab26ec5e3b17d24e", Views: "f2837b7130530f99", Reads: "e7b228fbb77598be"},
}

// invariantGoldens replaces a mode's constant under -tags
// sealdb_invariants where the tag's checks read the device: there a vlog
// GC pass also looks up every record it skips as dropped by a compaction,
// the very lookups the pass made before it skipped them, so "sealdb+vlog"
// reproduces the constant recorded before the skip.
var invariantGoldens = map[string]deviceFingerprint{
	"sealdb+vlog": {ReadOps: 2415, WriteOps: 8037, BytesRead: 5454509, BytesWritten: 2644984, Seeks: 6382, BusyNS: 42813525991, Seq: 0x23ef, Levels: "3,5,0,0,0,0,7", Journal: "7bc6fb821e37fe76", Counters: "9973f96e0b83a77c", Views: "f2837b7130530f99", Reads: "e7b228fbb77598be"},
}

type fingerprintCase struct {
	name string
	cfg  Config
}

func fingerprintCases() []fingerprintCase {
	var cases []fingerprintCase
	add := func(name string, mode Mode, vlog bool) {
		cfg := tinyConfig(mode)
		// A large journal keeps every event hashable.
		cfg.JournalCapacity = 1 << 17
		cfg.Trace = TraceConfig{Enabled: true, SampleEvery: 16}
		if vlog {
			cfg.ValueThreshold = 64
			cfg.VlogSegSize = 8 * kv.KiB
		}
		cases = append(cases, fingerprintCase{name, cfg})
	}
	for _, m := range allModes() {
		add(m.String(), m, false)
	}
	add("sealdb+vlog", ModeSEALDB, true)
	return cases
}

func hashHex(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// journalDigest serializes every event: id, parent, type, both
// timestamps and the sorted fields.
func journalDigest(events []obs.Event) string {
	var sb strings.Builder
	for _, e := range events {
		fmt.Fprintf(&sb, "%d/%d %s %d-%d", e.ID, e.Parent, e.Type, e.StartNS, e.EndNS)
		keys := make([]string, 0, len(e.Fields))
		for k := range e.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, " %s=%d", k, e.Fields[k])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// counterDigest serializes the deterministic half of the registry:
// every counter and every histogram's count and sum (each gauge is held
// to its view by checkGaugesAgainstViews instead).
func counterDigest(s *obs.Snapshot) string {
	var lines []string
	for n, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s=%d", n, v))
	}
	for n, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("%s=%d/%d/%d/%d", n, h.Count, h.Sum, h.Min, h.Max))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func metricNames(s *obs.Snapshot) []string {
	var names []string
	for n := range s.Counters {
		names = append(names, "c:"+n)
	}
	for n := range s.Gauges {
		names = append(names, "g:"+n)
	}
	for n := range s.Histograms {
		names = append(names, "h:"+n)
	}
	sort.Strings(names)
	return names
}

// viewDigest serializes the engine's self-reports: Stats with every
// per-compaction record, the amplification figures, and the /debug
// payloads that are functions of engine state alone.
func viewDigest(t *testing.T, d *DB) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%+v\n%+v\n", d.Stats(), d.Amplification())
	for _, v := range []any{
		d.LevelProfile(), d.SetProfile(),
		d.BandProfile(), d.SpaceProfile(), d.Recovery(),
	} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// checkGaugesAgainstViews holds every gauge of a snapshot taken at a
// quiescent instant to the view or subsystem counter it projects: the
// collection pass may not compute anything its source does not report.
// A gauge without a line here fails, so a new one arrives with its
// source named.
func checkGaugesAgainstViews(t *testing.T, d *DB, gauges map[string]float64) {
	t.Helper()
	want := map[string]float64{}
	amp, sp, dev := d.Amplification(), d.SpaceProfile(), d.Device()
	cs, bs := d.cache.Stats(), dev.Backend.Stats()
	d.mu.Lock()
	want["sealdb_memtable_bytes"] = float64(d.mem.ApproximateSize())
	d.mu.Unlock()
	want["sealdb_cache_hits"] = float64(cs.Hits)
	want["sealdb_cache_misses"] = float64(cs.Misses)
	want["sealdb_cache_used_bytes"] = float64(cs.UsedBytes)
	want["sealdb_bloom_negatives"] = float64(cs.BloomNegatives)
	want["sealdb_bloom_true_positives"] = float64(cs.BloomTruePositives)
	want["sealdb_bloom_false_positives"] = float64(cs.BloomFalsePositives)
	want["sealdb_host_bytes_written"] = float64(amp.HostBytes)
	want["sealdb_awa"] = amp.AWA
	want["sealdb_storage_files"] = float64(dev.Backend.NumFiles())
	want["sealdb_storage_files_written"] = float64(bs.FilesWritten)
	want["sealdb_storage_group_writes"] = float64(bs.GroupWrites)
	want["sealdb_storage_group_bytes"] = float64(bs.GroupBytes)
	want["sealdb_storage_removes"] = float64(bs.Removes)
	want["sealdb_write_retries"] = float64(d.FaultProfile().Retry.Retried)
	if d.cfg.vlogEnabled() {
		d.mu.Lock()
		live, dead, segs := d.vlogTotals()
		d.mu.Unlock()
		if live != sp.VlogLiveBytes {
			t.Errorf("the segment records hold %d live bytes, SpaceProfile %d", live, sp.VlogLiveBytes)
		}
		want["sealdb_vlog_live_bytes"] = float64(live)
		want["sealdb_vlog_dead_bytes"] = float64(dead)
		want["sealdb_vlog_segments"] = float64(segs)
	}
	if mgr := dev.DBand; mgr != nil {
		ms := mgr.Stats()
		want["sealdb_dband_frontier_bytes"] = float64(sp.Frag.Frontier)
		want["sealdb_dband_appends"] = float64(ms.Appends)
		want["sealdb_dband_inserts"] = float64(ms.Inserts)
		want["sealdb_dband_frees"] = float64(ms.Frees)
		want["sealdb_dband_coalesces"] = float64(ms.Coalesces)
		want["sealdb_band_frag_holes"] = float64(sp.Frag.Holes)
		want["sealdb_band_frag_index"] = sp.Frag.Index
	} else {
		want["sealdb_media_cache_cleans"] = float64(dev.Fixed.RMWCount())
	}
	if len(gauges) != len(want) {
		t.Errorf("snapshot has %d gauges, %d are checked against a view", len(gauges), len(want))
	}
	for name, w := range want {
		if got, ok := gauges[name]; !ok || got != w {
			t.Errorf("gauge %s = %v (present %v), its view reports %v", name, got, ok, w)
		}
	}
}

// runFingerprintStream drives the fixed op stream and returns the
// fingerprint. The stream touches every folded path: user commits and
// GC re-puts, memtable/L0/deep-level lookups at the head and at a
// snapshot, forward and reverse scans, picked and manual compactions,
// band defragmentation, value-log collection, and a recovery.
func runFingerprintStream(t *testing.T, cfg Config) deviceFingerprint {
	t.Helper()
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()

	rng := rand.New(rand.NewSource(20260927))
	key := func() []byte { return []byte(fmt.Sprintf("fk%05d", rng.Intn(5000))) }
	value := func(step int) []byte {
		n := 8 + rng.Intn(24) // inline under the vlog threshold
		if rng.Intn(3) == 0 {
			n = 64 + rng.Intn(400) // separated when the vlog is on
		}
		v := make([]byte, n)
		for i := range v {
			v[i] = byte('a' + (step+i*7)%26)
		}
		return v
	}
	var (
		reads, journal, counters, views strings.Builder
		snap                            *Snapshot
	)
	note := func(op string, k, v []byte, err error) {
		fmt.Fprintf(&reads, "%s %s=%q %v\n", op, k, v, err)
	}
	noteKVs := func(op string, kvs []KV, err error) {
		fmt.Fprintf(&reads, "%s %v", op, err)
		for _, e := range kvs {
			fmt.Fprintf(&reads, " %s=%q", e.Key, e.Value)
		}
		reads.WriteByte('\n')
	}
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	// fold absorbs the instance's journal and counters before a close
	// discards them (a reopen starts a fresh registry and journal).
	fold := func() {
		journal.WriteString(journalDigest(d.Events()))
		if n := d.JournalDropped(); n != 0 {
			t.Fatalf("journal dropped %d events; raise JournalCapacity", n)
		}
		snap := d.MetricsSnapshot()
		counters.WriteString(counterDigest(snap))
		views.WriteString(viewDigest(t, d))
		checkGaugesAgainstViews(t, d, snap.Gauges)
	}

	const steps = 12000
	for step := 0; step < steps; step++ {
		switch step {
		case 2000:
			must("CompactRange(all)", d.CompactRange(nil, nil))
		case 2400:
			snap = d.NewSnapshot()
		case 3000, 6400, 10000:
			must("CompactRange", d.CompactRange([]byte("fk01000"), []byte("fk02500")))
		case 4000:
			snap.Release()
			snap = nil
		case 4400, 8400, 11000:
			if cfg.Mode == ModeSEALDB {
				_, err := d.DefragmentBands(3)
				must("DefragmentBands", err)
			}
		case 4800, 7600, 9200, 11500:
			if cfg.ValueThreshold > 0 {
				_, err := d.VlogGC()
				must("VlogGC", err)
			}
		case 5600:
			fold()
			dev := d.Device()
			must("Close", d.Close())
			d, err = OpenDevice(cfg, dev)
			must("OpenDevice", err)
		case 7000:
			must("FlushMemtable", d.FlushMemtable())
		}
		switch op := rng.Intn(100); {
		case op < 50:
			must("Put", d.Put(key(), value(step)))
		case op < 58:
			must("Delete", d.Delete(key()))
		case op < 62:
			b := NewBatch()
			for i := 0; i < 2+rng.Intn(6); i++ {
				if rng.Intn(5) == 0 {
					b.Delete(key())
				} else {
					b.Put(key(), value(step+i))
				}
			}
			must("Apply", d.Apply(b))
		case op < 84:
			k := key()
			v, err := d.GetCtx(k, OpContext{ReqID: uint64(step)})
			note("get", k, v, err)
		case op < 90:
			k := key()
			if snap != nil {
				v, err := d.GetAt(k, snap)
				note("getat", k, v, err)
			}
		case op < 96:
			kvs, err := d.Scan(key(), 1+rng.Intn(12))
			noteKVs("scan", kvs, err)
		default:
			kvs, err := d.ScanReverse(key(), 1+rng.Intn(12))
			noteKVs("rscan", kvs, err)
		}
	}
	must("VerifyIntegrity", d.VerifyIntegrity())
	fold()

	ds := d.Device().Disk.Stats()
	var levels []string
	for _, li := range d.LevelProfile() {
		levels = append(levels, fmt.Sprint(li.Files))
	}
	return deviceFingerprint{
		ReadOps: ds.ReadOps, WriteOps: ds.WriteOps,
		BytesRead: ds.BytesRead, BytesWritten: ds.BytesWritten,
		Seeks: ds.Seeks, BusyNS: int64(ds.BusyTime),
		Seq:      uint64(d.Seq()),
		Levels:   strings.Join(levels, ","),
		Journal:  hashHex(journal.String()),
		Counters: hashHex(counters.String()),
		Views:    hashHex(views.String()),
		Reads:    hashHex(reads.String()),
	}
}

// TestDeviceFingerprint is the in-tree form of the bit-identity
// oracle: one fixed op stream through each of the four modes plus
// SEALDB with key–value separation must reproduce the recorded
// constants exactly.
func TestDeviceFingerprint(t *testing.T) {
	for _, c := range fingerprintCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := runFingerprintStream(t, c.cfg)
			want := fingerprintGoldens[c.name]
			if g, ok := invariantGoldens[c.name]; ok && invariant.Enabled {
				want = g
			}
			if got != want {
				t.Errorf("device fingerprint drifted\n got: %q: %#v,\nwant: %q: %#v,", c.name, got, c.name, want)
			}
		})
	}
}

// readerRow is one row of DESIGN.md's instrument table.
type readerRow struct {
	names               []string
	kind, modes, reader string
}

// readerTable parses the instrument table of DESIGN.md §Observability:
// every four-cell row whose first cell holds back-quoted names.
func readerTable(t *testing.T) []readerRow {
	t.Helper()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "\n## Observability\n")
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []readerRow
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "|"), " | ")
		if len(cells) != 4 || !strings.HasPrefix(line, "| `") {
			continue
		}
		r := readerRow{kind: cells[1], modes: cells[2], reader: strings.TrimSpace(cells[3])}
		for _, n := range strings.Split(cells[0], ",") {
			r.names = append(r.names, strings.Trim(n, " `"))
		}
		rows = append(rows, r)
	}
	return rows
}

// TestMetricNameSet holds the metric surface to the checked-in reader
// table: in each mode, with and without the value log, a fresh store
// registers exactly the names the table lists for it, every row names
// a reader, and every endpoint row is served. The surface changes only
// by an edit to that table.
func TestMetricNameSet(t *testing.T) {
	rows := readerTable(t)
	kinds := map[string]string{"counter": "c:", "gauge": "g:", "histogram": "h:"}
	for _, mode := range []Mode{ModeSEALDB, ModeLevelDB} {
		for _, vlog := range []bool{false, true} {
			cfg := tinyConfig(mode)
			name := mode.String()
			if vlog {
				cfg.ValueThreshold = 64
				name += "+vlog"
			}
			d, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			applies := map[string]bool{"all": true, "dband": mode == ModeSEALDB, "fixed": mode != ModeSEALDB, "vlog": vlog}
			var want []string
			endpoints := 0
			for _, r := range rows {
				if r.reader == "" {
					t.Errorf("%v has no reader", r.names)
				}
				on, known := applies[r.modes]
				if !known {
					t.Errorf("%v: unknown modes %q", r.names, r.modes)
				}
				for _, n := range r.names {
					switch prefix, metric := kinds[r.kind]; {
					case r.kind == "endpoint":
						endpoints++
						rec := httptest.NewRecorder()
						d.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", n, nil))
						if rec.Code != 200 {
							t.Errorf("%s: endpoint %s answers %d", name, n, rec.Code)
						}
					case !metric || !on:
					default:
						want = append(want, prefix+n)
					}
				}
			}
			sort.Strings(want)
			got := metricNames(d.MetricsSnapshot())
			d.Close()
			if endpoints == 0 || len(want) == 0 {
				t.Fatalf("reader table not found in DESIGN.md (%d rows)", len(rows))
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s registers\n  %s\nbut DESIGN.md §Observability lists\n  %s", name, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
			}
		}
	}
}
