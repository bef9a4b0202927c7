// Package traceanalyze is the offline analyzer behind `smrtrace
// -analyze`: it turns a raw observability dump — the platter's
// physical access trace, the engine's event journal (span trees
// included), and a metadata snapshot — into per-band and per-set
// heatmaps plus an amplification report, and cross-checks the live
// amplification counters against a recomputation from the raw records.
//
// A dump is a directory of three files:
//
//	meta.json    — Meta: geometry, the traced window, live counters
//	trace.jsonl  — one Access per line, in device order
//	events.jsonl — one obs.Event per line, oldest first
//
// The intended protocol is Begin → workload → Collect (→ Write):
// Begin installs a platter sink, turns the engine tracer on and
// snapshots the counters, so the dump's window covers exactly the
// workload and none of the open/recovery traffic; Collect closes it.
package traceanalyze

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"sealdb/internal/lsm"
	"sealdb/internal/obs"
	"sealdb/internal/platter"
	"sealdb/internal/smr"
)

// Dump file names.
const (
	MetaFile   = "meta.json"
	TraceFile  = "trace.jsonl"
	EventsFile = "events.jsonl"
)

// Meta is the dump's metadata snapshot: the store's geometry, the
// device-clock window the trace covers, and the live amplification
// counters at both window edges (so the analyzer can form exact
// deltas to verify against).
type Meta struct {
	Mode         string `json:"mode"`
	BandSize     int64  `json:"band_size"`
	SSTableSize  int64  `json:"sstable_size"`
	DiskCapacity int64  `json:"disk_capacity"`
	// CacheStart is the raw-disk offset of the fixed-band drive's
	// media-cache region, or -1 when the mode's drive has none.
	CacheStart int64 `json:"cache_start"`
	NumLevels  int   `json:"num_levels"`

	// StartNS and EndNS bracket the traced window on the simulated
	// device clock (the journal's clock).
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`

	// Start and End are the overall amplification counters at the
	// window edges; End-Start is what the trace should explain.
	Start lsm.Amplification `json:"start"`
	End   lsm.Amplification `json:"end"`

	// JournalDropped is how many events the journal ring evicted; when
	// nonzero the event-derived recomputations are lower bounds.
	JournalDropped int64 `json:"journal_dropped"`
}

// Access is one physical device access of the traced window.
type Access struct {
	Write  bool  `json:"write,omitempty"`
	Offset int64 `json:"offset"`
	Length int   `json:"length"`
}

// Baseline anchors a dump's window: counters captured by Begin, and
// the accesses recorded since.
type Baseline struct {
	trace []Access

	NS  int64
	Amp lsm.Amplification
}

// ObserveAccess implements platter.Sink; the disk lock serializes it.
func (b *Baseline) ObserveAccess(ai platter.AccessInfo) {
	b.trace = append(b.trace, Access{Write: ai.Write, Offset: ai.Offset, Length: ai.Length})
}

// Begin starts a traced window on db: it records every platter access
// from here on, turns the engine tracer on, and snapshots the counters
// the analyzer will later diff against. Call before the workload under
// analysis.
func Begin(db *lsm.DB) *Baseline {
	db.SetTracing(true)
	b := &Baseline{
		NS:  db.Device().Disk.BusyNS(),
		Amp: db.Amplification(),
	}
	db.Device().Disk.SetSink(b)
	return b
}

// Dump is an in-memory observability dump, ready to analyze or write.
type Dump struct {
	Meta   Meta
	Trace  []Access
	Events []obs.Event
}

// Collect closes the window base opened and snapshots db into a Dump
// covering it. It takes every number of the window first, then checks
// the store with VerifyIntegrity, whose device reads land outside the
// window; a store that fails the check yields its error and no dump.
func Collect(db *lsm.DB, base *Baseline) (*Dump, error) {
	db.Device().Disk.SetSink(nil)
	cfg := db.Config()
	cacheStart := int64(-1)
	if fbd, ok := smr.Base(db.Device().Drive).(*smr.FixedBandDrive); ok {
		cacheStart = fbd.CacheStart()
	}
	d := &Dump{
		Meta: Meta{
			Mode:           cfg.Mode.String(),
			BandSize:       cfg.BandSize,
			SSTableSize:    cfg.SSTableSize,
			DiskCapacity:   cfg.DiskCapacity,
			CacheStart:     cacheStart,
			NumLevels:      cfg.NumLevels,
			StartNS:        base.NS,
			EndNS:          db.Device().Disk.BusyNS(),
			Start:          base.Amp,
			End:            db.Amplification(),
			JournalDropped: db.JournalDropped(),
		},
		Trace:  base.trace,
		Events: db.Events(),
	}
	if err := db.VerifyIntegrity(); err != nil {
		return nil, fmt.Errorf("traceanalyze: fsck at window close: %w", err)
	}
	return d, nil
}

// Write persists the dump into dir (created if needed).
func (d *Dump) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta, err := json.MarshalIndent(&d.Meta, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, MetaFile), append(meta, '\n'), 0o644); err != nil {
		return err
	}
	if err := writeJSONL(filepath.Join(dir, TraceFile), len(d.Trace), func(enc *obs.JSONLines, i int) error {
		return enc.Encode(&d.Trace[i])
	}); err != nil {
		return err
	}
	return writeJSONL(filepath.Join(dir, EventsFile), len(d.Events), func(enc *obs.JSONLines, i int) error {
		return enc.Encode(&d.Events[i])
	})
}

func writeJSONL(path string, n int, encode func(*obs.JSONLines, int) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := obs.NewJSONLines(f)
	for i := 0; i < n; i++ {
		if err := encode(enc, i); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// ReadDump loads a dump directory written by Write.
func ReadDump(dir string) (*Dump, error) {
	meta, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		return nil, fmt.Errorf("traceanalyze: %w", err)
	}
	d := &Dump{}
	if err := json.Unmarshal(meta, &d.Meta); err != nil {
		return nil, fmt.Errorf("traceanalyze: %s: %w", MetaFile, err)
	}
	if err := readJSONL(filepath.Join(dir, TraceFile), func(dec *json.Decoder) error {
		var e Access
		if err := dec.Decode(&e); err != nil {
			return err
		}
		d.Trace = append(d.Trace, e)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("traceanalyze: %s: %w", TraceFile, err)
	}
	if err := readJSONL(filepath.Join(dir, EventsFile), func(dec *json.Decoder) error {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			return err
		}
		d.Events = append(d.Events, e)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("traceanalyze: %s: %w", EventsFile, err)
	}
	return d, nil
}

func readJSONL(path string, decode func(*json.Decoder) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	for dec.More() {
		if err := decode(dec); err != nil {
			return err
		}
	}
	return nil
}
