package lsm

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

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
// scan_short row in BENCH_device.json is what pins theirs). When a
// mismatch is intended, the failure message prints the new literal.
type deviceFingerprint struct {
	ReadOps, WriteOps       int64
	BytesRead, BytesWritten int64
	Seeks, BusyNS           int64
	Seq                     uint64
	Levels                  string // files per level, shallowest first
	Journal                 string // event ids, parents, names, times, fields
	Counters                string // registry counters + histogram count/sum
	Views                   string // Stats, Amplification*, /debug profiles
	Reads                   string // every Get/GetAt/Scan/ScanReverse result
}

var fingerprintGoldens = map[string]deviceFingerprint{
	"leveldb":      {ReadOps: 12335, WriteOps: 16146, BytesRead: 56818285, BytesWritten: 56984682, Seeks: 14919, BusyNS: 170596432998, Seq: 0x226d, Levels: "3,10,8,0,0,0,17", Journal: "55f00330c40e873c", Counters: "f8f2233cb941f13d", Views: "db348c90a0310d4c", Reads: "e7b228fbb77598be"},
	"leveldb+sets": {ReadOps: 11432, WriteOps: 16021, BytesRead: 47426073, BytesWritten: 48392966, Seeks: 13890, BusyNS: 157137890034, Seq: 0x226d, Levels: "3,10,8,0,0,0,17", Journal: "5d1a7239f6488560", Counters: "5a816de074cfba70", Views: "9fae7b03bbcd85a5", Reads: "e7b228fbb77598be"},
	"smrdb":        {ReadOps: 522, WriteOps: 15024, BytesRead: 5663493, BytesWritten: 2775646, Seeks: 879, BusyNS: 6110865598, Seq: 0x226d, Levels: "1,3", Journal: "90b4b48675ab68e6", Counters: "0c9c0b5aa596df3f", Views: "e9b8e0cc0736a343", Reads: "e7b228fbb77598be"},
	"sealdb":       {ReadOps: 11169, WriteOps: 15654, BytesRead: 13177680, BytesWritten: 7357206, Seeks: 12974, BusyNS: 83274893943, Seq: 0x226d, Levels: "3,10,8,0,0,0,17", Journal: "efa393a54077465c", Counters: "964c57bd02a9235d", Views: "b7aad7d475181d7c", Reads: "e7b228fbb77598be"},
	"sealdb+vlog":  {ReadOps: 6002, WriteOps: 13402, BytesRead: 6668306, BytesWritten: 2755530, Seeks: 10344, BusyNS: 68761192146, Seq: 0x23ad, Levels: "1,5,0,0,0,0,7", Journal: "fb44bca2b8588d21", Counters: "be7c1530cf224e0f", Views: "7d015a740d5f6bcf", Reads: "e7b228fbb77598be"},
}

// metricNameGoldens pins the registered metric-name set (counters,
// gauges and histograms together) of a fresh store: count and hash.
var metricNameGoldens = map[string]string{
	"sealdb":       "146:b3efd666acbf77d5",
	"sealdb+vlog":  "149:549fbd7971816ad7",
	"leveldb":      "133:326f3d595713ff11",
	"leveldb+vlog": "136:b6a82e4392c05bd9",
}

type fingerprintCase struct {
	name string
	cfg  Config
}

func fingerprintCases() []fingerprintCase {
	var cases []fingerprintCase
	add := func(name string, mode Mode, vlog bool) {
		cfg := tinyConfig(mode)
		// A small reader cache makes device I/O depend on the exact LRU
		// eviction order; a large journal keeps every event hashable.
		cfg.MaxOpenTables = 6
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
// every counter and every histogram's count and sum (gauges include
// Go-runtime telemetry and are covered by the views instead).
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
		d.AmplificationProfile(), d.LevelProfile(), d.SetProfile(),
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
		counters.WriteString(counterDigest(d.MetricsSnapshot()))
		views.WriteString(viewDigest(t, d))
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
			if want := fingerprintGoldens[c.name]; got != want {
				t.Errorf("device fingerprint drifted\n got: %q: %#v,\nwant: %q: %#v,", c.name, got, c.name, want)
			}
		})
	}
}

// TestMetricNameSet pins the public metric surface: the registered
// names of a fresh dynamic-band store and a fresh fixed-band store,
// with and without the value log.
func TestMetricNameSet(t *testing.T) {
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
			names := metricNames(d.MetricsSnapshot())
			d.Close()
			got := fmt.Sprintf("%d:%s", len(names), hashHex(names...))
			if want := metricNameGoldens[name]; got != want {
				t.Errorf("metric name set of %s = %q, want %q\n%s", name, got, want, strings.Join(names, "\n"))
			}
		}
	}
}
