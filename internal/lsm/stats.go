package lsm

import (
	"time"

	"sealdb/internal/smr"
	"sealdb/internal/storage"
)

// CompactionInfo records one compaction (or flush) for the paper's
// Figure 10 analysis.
type CompactionInfo struct {
	ID        int
	FromLevel int
	ToLevel   int
	Inputs0   int // files taken from FromLevel
	Inputs1   int // files taken from ToLevel (the set)
	// InputBytes and OutputBytes are the file bytes read and written.
	InputBytes  int64
	OutputBytes int64
	OutputFiles int
	// Latency is the simulated device time the compaction consumed.
	Latency time.Duration
	// TrivialMove marks a compaction that moved a file without I/O.
	TrivialMove bool
	// Flush marks a memtable flush rather than a merge.
	Flush bool
	// OutputPlacements records where each output SSTable landed on
	// the device, in write order — the data the paper's Figures 2,
	// 3(a) and 11 are built from (it traced SSTable physical
	// addresses per compaction).
	OutputPlacements []storage.Extent
}

// Stats aggregates engine activity. All byte counts are logical
// (what the engine asked the device to do); device-level counts come
// from the drive.
type Stats struct {
	UserBytes  int64 // key+value payload accepted from the user
	UserWrites int64 // mutations accepted

	FlushCount int64
	FlushBytes int64 // L0 table bytes written by flushes

	CompactionCount      int64
	CompactionReadBytes  int64
	CompactionWriteBytes int64
	TrivialMoves         int64

	Gets    int64
	GetHits int64

	// GCMoves counts DefragmentBands set relocations, one per set
	// actually moved.
	GCMoves int64

	// VlogAppendBytes counts the value-log bytes user batches were
	// logged as (their groups: value records and commit frames);
	// VlogGCRuns/VlogGCBytes count collection passes and the bytes of
	// the groups that rewrote live records into fresh segments.
	VlogAppendBytes int64
	VlogGCRuns      int64
	VlogGCBytes     int64

	Compactions []CompactionInfo
}

// Amplification is the paper's Table I, measured: WA from the
// LSM-tree, AWA from the SMR drive, and their product MWA.
type Amplification struct {
	// UserBytes is the payload written by the user.
	UserBytes int64
	// StoreBytes is what the store wrote logically: flushes plus
	// compaction outputs, plus value-log appends and GC rewrites
	// when key–value separation is on (the numerator of the paper's
	// WA).
	StoreBytes int64
	// HostBytes is everything the host issued to the device,
	// including WAL and MANIFEST traffic.
	HostBytes int64
	// DeviceBytes is what the device physically wrote, including
	// read-modify-write traffic.
	DeviceBytes int64

	WA  float64 // StoreBytes / UserBytes
	AWA float64 // DeviceBytes / HostBytes (1.0 when no RMW happens)
	MWA float64 // WA * AWA
}

// Amplification computes the current amplification figures from the
// engine counters; it takes no engine lock.
func (d *DB) Amplification() Amplification {
	m := &d.metrics
	a := Amplification{
		UserBytes: m.writeBytes.Value(),
		StoreBytes: m.flushBytes.Value() + m.compactionWriteBytes.Value() +
			m.vlogAppendBytes.Value() + m.vlogGCRelocated.Value(),
		HostBytes:   d.dev.Drive.HostBytesWritten(),
		DeviceBytes: d.disk.Stats().BytesWritten,
	}
	if a.UserBytes > 0 {
		a.WA = float64(a.StoreBytes) / float64(a.UserBytes)
	}
	a.AWA = smr.AWA(d.dev.Drive)
	a.MWA = a.WA * a.AWA
	return a
}

// Stats returns a snapshot of the engine counters. The scalars are a
// view over the obs registry — the one owner of every engine counter —
// and need no lock; d.mu is taken only to copy the per-job records.
func (d *DB) Stats() Stats {
	m := &d.metrics
	st := Stats{
		UserBytes:            m.writeBytes.Value(),
		UserWrites:           m.writes.Value(),
		FlushCount:           m.flushes.Value(),
		FlushBytes:           m.flushBytes.Value(),
		CompactionCount:      m.compactions.Value(),
		CompactionReadBytes:  m.compactionReadBytes.Value(),
		CompactionWriteBytes: m.compactionWriteBytes.Value(),
		TrivialMoves:         m.trivialMoves.Value(),
		Gets:                 m.gets.Value(),
		GetHits:              m.getHits.Value(),
		GCMoves:              m.bandGCMoves.Value(),
		VlogAppendBytes:      m.vlogAppendBytes.Value(),
		VlogGCRuns:           m.vlogGCRuns.Value(),
		VlogGCBytes:          m.vlogGCRelocated.Value(),
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st.Compactions = append([]CompactionInfo(nil), d.compactions...)
	return st
}
