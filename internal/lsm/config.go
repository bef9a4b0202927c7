// Package lsm implements the key-value engine: a leveled LSM tree in
// the LevelDB architecture (memtable + WAL, L0 flushes, leveled
// compactions, MANIFEST recovery), parameterized into the three
// systems the paper evaluates:
//
//   - ModeLevelDB: the baseline. Seven levels; SSTables placed by an
//     ext4-like first-fit allocator on a fixed-band SMR drive, so
//     compaction I/O scatters and triggers band read-modify-writes.
//   - ModeLevelDBSets: the Figure 14 ablation. Same placement policy
//     and drive, but compaction outputs are grouped into sets and
//     written contiguously.
//   - ModeSMRDB: the SMRDB baseline. Two levels, SSTables enlarged to
//     the band size, one dedicated band per SSTable, level 1 may hold
//     overlapping key ranges.
//   - ModeSEALDB: the paper's system. Seven levels, compaction unit =
//     victim + its set, outputs written contiguously into dynamic
//     bands on a raw (write-anywhere) SMR drive.
package lsm

import (
	"fmt"

	"sealdb/internal/kv"
	"sealdb/internal/smr"
	"sealdb/internal/version"
)

// Mode selects which of the paper's systems the engine behaves as.
type Mode int

const (
	ModeLevelDB Mode = iota
	ModeLevelDBSets
	ModeSMRDB
	ModeSEALDB
)

func (m Mode) String() string {
	switch m {
	case ModeLevelDB:
		return "leveldb"
	case ModeLevelDBSets:
		return "leveldb+sets"
	case ModeSMRDB:
		return "smrdb"
	case ModeSEALDB:
		return "sealdb"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Geometry holds the size parameters an experiment varies. The paper's
// geometry is 4 MiB SSTables, 40 MiB bands (10 SSTables), 4 MiB
// guard regions; DefaultGeometry scales all of it by 1/16 so that
// experiments run at laptop scale with every ratio preserved. The
// tree's shape is the paper's (NumLevels, maxBytesForLevel, guard = 1 SSTable).
type Geometry struct {
	// SSTableSize is the compaction output target (and the dynamic
	// band free-list class unit).
	SSTableSize int64
	// BandSize is the fixed SMR band size for the LevelDB/SMRDB
	// drives. The paper's default is 10 SSTables.
	BandSize int64
	// MemtableSize is the write-buffer rotation threshold.
	MemtableSize int64
	// MaxCompactionFiles caps the fan-in of one SMRDB compaction
	// (its levels overlap, so the cap bounds merge width).
	MaxCompactionFiles int
	// DiskCapacity is the emulated device size.
	DiskCapacity int64
	// ManifestSize is the preallocated MANIFEST extent size.
	ManifestSize int64
	// BlockCacheSize bounds the shared block cache.
	BlockCacheSize int64
	// DeviceTimeScale multiplies the emulated drive's seek and
	// rotational latency. A geometry scaled to 1/k of the paper's
	// sizes sets this to 1/k so the seek-to-transfer cost ratio *per
	// SSTable* stays what it is at full scale; without it, shrinking
	// sizes silently turns every workload seek-bound.
	DeviceTimeScale float64
}

// ScaledGeometry derives a full geometry from an SSTable size,
// preserving every ratio of the paper's setup: band = 10 SSTables,
// memtable = 1 SSTable.
// The block cache is kept small relative to the data (8 SSTables),
// mirroring LevelDB's 8 MiB default against a 100 GiB store.
func ScaledGeometry(sst, diskCapacity int64) Geometry {
	return Geometry{
		SSTableSize:        sst,
		BandSize:           10 * sst,
		MemtableSize:       sst,
		MaxCompactionFiles: 24,
		DiskCapacity:       diskCapacity,
		ManifestSize:       clampInt64(32*sst, kv.MiB, 8*kv.MiB),
		BlockCacheSize:     8 * sst,
		DeviceTimeScale:    float64(sst) / float64(4*kv.MiB),
	}
}

// DefaultGeometry returns the 1/16-scale geometry used throughout the
// experiments: 256 KiB SSTables, 2.5 MiB bands, 256 KiB guards.
func DefaultGeometry() Geometry {
	return ScaledGeometry(256*kv.KiB, 8*kv.GiB)
}

// PaperGeometry returns the paper's full-scale geometry (4 MiB
// SSTables, 40 MiB bands, 8 MiB block cache as in LevelDB 1.19).
func PaperGeometry() Geometry {
	g := ScaledGeometry(4*kv.MiB, 64*kv.GiB)
	g.BlockCacheSize = 8 * kv.MiB
	g.DeviceTimeScale = 1
	return g
}

func clampInt64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Config assembles a DB.
type Config struct {
	Mode Mode
	Geometry
	// Seed makes skiplist heights (and nothing else) deterministic.
	Seed int64
	// JournalCapacity bounds the observability event journal ring
	// (0 means the default of 4096 events).
	JournalCapacity int
	// Trace configures the request tracer (see trace.go); the zero
	// value leaves tracing off with default sampling thresholds.
	Trace TraceConfig
	// WrapDrive, if set, wraps the mode's drive before the backend is
	// built on it — the hook fault injectors use to sit between the
	// engine and the media. Allocators and drive introspection use the
	// base drive the Device names (Device.Fixed, Device.Raw).
	WrapDrive func(smr.Drive) smr.Drive
	// ValueThreshold enables key–value separation: values of at least
	// this many bytes are appended to the value log and the tree
	// stores a fixed-size pointer instead, so large values stop
	// riding through compactions. 0 (the default) disables the value
	// log entirely and the tree stores every value inline.
	ValueThreshold int
	// VlogSegSize is the value-log segment size (0 means one SSTable,
	// so segments ride the dynamic-band free-list class unit).
	VlogSegSize int64
}

// vlogEnabled reports whether this config separates values.
func (c *Config) vlogEnabled() bool { return c.ValueThreshold > 0 }

// vlogSegSize resolves the segment size.
func (c *Config) vlogSegSize() int64 {
	if c.VlogSegSize > 0 {
		return c.VlogSegSize
	}
	return c.SSTableSize
}

// LevelDB's and the paper's tree shape: L0 falls due at 4 files, and each
// level past L1 targets 10 times the bytes of the one above.
const l0CompactTrigger, levelMultiplier = 4, 10

// A device write that fails with a transient error is retried up to
// writeRetries times.
const writeRetries = 3

// DefaultConfig returns a config for the given mode with the scaled
// default geometry, applying the mode's structural parameters (SMRDB
// gets two levels and band-sized SSTables).
func DefaultConfig(mode Mode) Config {
	cfg := Config{Mode: mode, Geometry: DefaultGeometry(), Seed: 1}
	cfg.applyMode()
	return cfg
}

// applyMode imposes the structural choices of the mode onto the
// geometry, as the paper describes each system.
func (c *Config) applyMode() {
	if c.Mode == ModeSMRDB {
		// "Enlarging SSTables to the band size, assigning SSTables to
		// dedicated bands and reserving only two levels" (NumLevels).
		c.SSTableSize = c.BandSize
		c.MemtableSize = c.BandSize
	}
}

// NumLevels returns the tree depth: two levels for SMRDB, seven for
// the others.
func (c *Config) NumLevels() int {
	if c.Mode == ModeSMRDB {
		return 2
	}
	return version.NumLevels
}

// sortedLevel reports whether files of a level must have disjoint
// ranges. SMRDB permits overlap in its non-L0 level.
func (c *Config) sortedLevel(level int) bool {
	if level == 0 {
		return false
	}
	return c.Mode != ModeSMRDB
}

// groupedOutputs reports whether compaction outputs into outLevel are
// written contiguously as a set.
func (c *Config) groupedOutputs(outLevel int) bool {
	switch c.Mode {
	case ModeSEALDB, ModeLevelDBSets:
		// Sets do not exist in L0 and L1 (§III-A): an overlapped
		// SSTable in L1 might belong to several victims in L0.
		return outLevel >= 2
	}
	return false
}

// maxBytesForLevel returns a level's target (levels 1+): ten SSTables at L1.
func (c *Config) maxBytesForLevel(level int) int64 {
	bytes := 10 * c.SSTableSize
	for l := 1; l < level; l++ {
		bytes *= levelMultiplier
	}
	return bytes
}

func (c *Config) validate() error {
	g := c.Geometry
	switch {
	case g.SSTableSize <= 0, g.BandSize <= 0, g.MemtableSize <= 0,
		g.DiskCapacity <= 0, g.ManifestSize <= 0:
		return fmt.Errorf("lsm: non-positive geometry: %+v", g)
	case c.Mode == ModeSMRDB && g.MaxCompactionFiles < 2:
		return fmt.Errorf("lsm: SMRDB needs MaxCompactionFiles >= 2")
	case g.DeviceTimeScale < 0:
		return fmt.Errorf("lsm: negative DeviceTimeScale")
	case c.VlogThresholdTooSmall():
		return fmt.Errorf("lsm: ValueThreshold %d must exceed the %d-byte pointer a separated value leaves behind", c.ValueThreshold, vlogPointerLen)
	case c.vlogEnabled() && c.VlogSegSize < 0:
		return fmt.Errorf("lsm: negative VlogSegSize")
	case c.vlogEnabled() && c.vlogSegSize() < int64(c.ValueThreshold)+64:
		return fmt.Errorf("lsm: VlogSegSize %d cannot hold a threshold-sized record", c.vlogSegSize())
	}
	return nil
}

// VlogThresholdTooSmall reports a threshold so low that separation
// would grow entries instead of shrinking them.
func (c *Config) VlogThresholdTooSmall() bool {
	return c.vlogEnabled() && c.ValueThreshold <= vlogPointerLen
}

// walSize returns the preallocated WAL extent size: a full memtable
// plus framing slack. Kept proportionate to the geometry so freed WAL
// extents do not dominate the file system's hole population.
func (c *Config) walSize() int64 {
	return 2*c.MemtableSize + 64*kv.KiB
}
