// Package sealdb is a set-aware LSM-tree key-value store for
// host-managed shingled magnetic recording (SMR) drives with dynamic
// bands — a from-scratch reproduction of "A Set-Aware Key-Value Store
// on Shingled Magnetic Recording Drives with Dynamic Band" (Yao et
// al., IPPS 2018).
//
// The store runs on an emulated SMR device with a calibrated service
// time model, so results are deterministic and the full system — from
// skiplist memtable and write-ahead log down to shingled-track damage
// windows — lives in this module with no external dependencies.
//
// Four engine modes reproduce the paper's systems:
//
//   - ModeSEALDB: the paper's contribution. Compactions operate on
//     sets (a victim SSTable plus the next level's overlapping
//     SSTables, stored contiguously), and placement is managed by
//     dynamic bands on a raw write-anywhere drive, eliminating the
//     drive's auxiliary write amplification.
//   - ModeLevelDB: the LevelDB baseline on a fixed-band SMR drive
//     behind an ext4-like allocator.
//   - ModeLevelDBSets: LevelDB plus sets only (the ablation of
//     Figure 14).
//   - ModeSMRDB: the SMRDB baseline (two levels, band-sized SSTables
//     in dedicated bands).
//
// Quick start:
//
//	db, err := sealdb.Open(sealdb.DefaultConfig(sealdb.ModeSEALDB))
//	if err != nil { ... }
//	defer db.Close()
//	db.Put([]byte("key"), []byte("value"))
//	v, err := db.Get([]byte("key"))
package sealdb

import (
	"sealdb/internal/lsm"
	"sealdb/internal/obs"
)

// Mode selects which of the paper's systems the engine behaves as.
type Mode = lsm.Mode

// Engine modes; see the package comment.
const (
	ModeLevelDB     = lsm.ModeLevelDB
	ModeLevelDBSets = lsm.ModeLevelDBSets
	ModeSMRDB       = lsm.ModeSMRDB
	ModeSEALDB      = lsm.ModeSEALDB
)

// Config assembles a database: a mode plus a Geometry.
type Config = lsm.Config

// Geometry holds the size parameters an experiment varies (SSTable,
// band, memtable, SMRDB fan-in, disk, manifest, block cache, device
// time scale). The tree's shape is the paper's: a guard of one SSTable,
// an L1 of ten, a size ratio of 10, an L0 trigger of 4, seven levels
// (two for SMRDB).
type Geometry = lsm.Geometry

// DefaultConfig returns the scaled default geometry (1/16 of the
// paper's: 256 KiB SSTables, 2.5 MiB bands) for the given mode.
func DefaultConfig(mode Mode) Config { return lsm.DefaultConfig(mode) }

// DefaultGeometry returns the scaled default geometry.
func DefaultGeometry() Geometry { return lsm.DefaultGeometry() }

// PaperGeometry returns the paper's full-scale geometry (4 MiB
// SSTables, 40 MiB bands).
func PaperGeometry() Geometry { return lsm.PaperGeometry() }

// DB is a key-value store instance.
type DB = lsm.DB

// Batch collects mutations applied atomically via DB.Apply.
type Batch = lsm.Batch

// NewBatch returns an empty batch.
func NewBatch() *Batch { return lsm.NewBatch() }

// Iterator walks live user keys in ascending order; see DB.NewIterator.
type Iterator = lsm.Iterator

// Snapshot pins a point-in-time view; see DB.NewSnapshot.
type Snapshot = lsm.Snapshot

// KV is a key/value pair returned by DB.Scan.
type KV = lsm.KV

// Device is the emulated drive stack a DB runs on. It plays the role
// of the physical disk: it survives DB.Close, and OpenDevice on it
// exercises crash recovery against the bytes actually written.
type Device = lsm.Device

// Stats aggregates engine activity counters.
type Stats = lsm.Stats

// CompactionInfo describes one compaction in the trace.
type CompactionInfo = lsm.CompactionInfo

// Amplification reports the paper's write-amplification metrics:
// WA (LSM-tree), AWA (SMR drive), and their product MWA.
type Amplification = lsm.Amplification

// MetricsSnapshot is a point-in-time copy of every metric the store
// exports — engine counters, latency histograms, and gauges over the
// whole device stack. Obtain one with DB.MetricsSnapshot; the same
// data backs the /metrics endpoint of DB.ObsHandler.
type MetricsSnapshot = obs.Snapshot

// Event is one entry of the store's observability journal (flushes,
// compactions, value-log appends and GC passes, log rotations, recovery's
// replays and repairs, corrupt blocks, reclaim errors, degradation), with
// timestamps in simulated device nanoseconds; see DB.Events.
type Event = obs.Event

// Errors returned by DB operations. ErrDegraded wraps every write
// rejected after a permanent device failure moved the store into
// read-only degraded mode; the network layer maps it to a distinct
// wire status so remote clients can tell it from transient failures.
var (
	ErrNotFound = lsm.ErrNotFound
	ErrClosed   = lsm.ErrClosed
	ErrDegraded = lsm.ErrDegraded
)

// Open creates a fresh database on a new emulated device.
func Open(cfg Config) (*DB, error) { return lsm.Open(cfg) }

// OpenDevice opens a database on an existing device, recovering any
// previous instance's state from its MANIFEST and write-ahead log.
func OpenDevice(cfg Config, dev *Device) (*DB, error) { return lsm.OpenDevice(cfg, dev) }

// NewDevice builds the emulated drive stack for a mode without
// opening a database on it.
func NewDevice(cfg Config) *Device { return lsm.NewDevice(cfg) }
