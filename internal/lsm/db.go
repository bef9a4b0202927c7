package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"sealdb/internal/dband"
	"sealdb/internal/extfs"
	"sealdb/internal/kv"
	"sealdb/internal/memtable"
	"sealdb/internal/obs"
	"sealdb/internal/platter"
	"sealdb/internal/smr"
	"sealdb/internal/sstable"
	"sealdb/internal/storage"
	"sealdb/internal/version"
	"sealdb/internal/wal"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("lsm: database is closed")

// ErrNotFound is returned by Get when the key does not exist.
var ErrNotFound = errors.New("lsm: key not found")

// ErrDegraded is wrapped by every write rejected after a permanent
// device failure moved the DB into read-only degraded mode. Reads
// keep working from whatever state is durable; the first failure's
// cause is included in the returned error.
var ErrDegraded = errors.New("lsm: database is in read-only degraded mode")

// ErrCorruptBlock re-exports the sstable corruption sentinel: any read
// (Get, Scan, compaction input) that hit a block failing its CRC
// matches it under errors.Is. Callers above lsm (the server) map it to
// a distinct wire status without importing sstable.
var ErrCorruptBlock = sstable.ErrCorruptBlock

// Device bundles the emulated drive stack a DB runs on. It survives
// DB close, playing the role of the physical disk: reopening a DB on
// the same Device exercises MANIFEST and WAL recovery against the
// bytes that were actually written.
type Device struct {
	Disk *platter.Disk
	// The mode's base drive: Fixed for LevelDB and SMRDB, Raw for SEALDB.
	Fixed *smr.FixedBandDrive
	Raw   *smr.RawDrive
	// Hook is what Config.WrapDrive returned over the base (nil without
	// one); Drive is the retry layer on top, which the engine writes through.
	Hook    smr.Drive
	Drive   *smr.RetryDrive
	Backend *storage.Backend
	// DBand is the dynamic band manager (SEALDB mode only).
	DBand *dband.Manager
	// ExtFS is the file-system-like allocator (LevelDB modes only).
	ExtFS *extfs.Allocator
}

// NewDevice builds a mode's drive stack (DESIGN.md); leveldb+sets runs on leveldb's.
func NewDevice(cfg Config) *Device {
	pcfg := platter.DefaultConfig(cfg.DiskCapacity)
	if s := cfg.DeviceTimeScale; s > 0 {
		pcfg.SeekTime = time.Duration(float64(pcfg.SeekTime) * s)
		pcfg.SettleTime = time.Duration(float64(pcfg.SettleTime) * s)
		pcfg.RotationalLatency = time.Duration(float64(pcfg.RotationalLatency) * s)
	}
	disk := platter.New(pcfg)
	dev := &Device{Disk: disk}
	wrap := func(base smr.Drive) *smr.RetryDrive {
		if cfg.WrapDrive != nil {
			dev.Hook = cfg.WrapDrive(base)
			base = dev.Hook
		}
		dev.Drive = smr.NewRetry(base, writeRetries, retryBackoff)
		return dev.Drive
	}
	switch cfg.Mode {
	case ModeLevelDB, ModeLevelDBSets:
		dev.Fixed = smr.NewFixedBand(disk, cfg.BandSize)
		dev.ExtFS = extfs.New(dev.Fixed.Capacity())
		dev.Backend = storage.NewBackend(wrap(dev.Fixed), dev.ExtFS)
	case ModeSMRDB:
		dev.Fixed = smr.NewFixedBand(disk, cfg.BandSize)
		dev.Backend = storage.NewBackend(wrap(dev.Fixed), storage.NewBandAllocator(dev.Fixed))
	case ModeSEALDB:
		// SEALDB's guard region is one SSTable, as in the paper.
		dev.Raw = smr.NewRaw(disk, cfg.SSTableSize)
		dev.DBand = dband.New(cfg.DiskCapacity, cfg.SSTableSize, cfg.SSTableSize)
		dev.Backend = storage.NewBackend(wrap(dev.Raw), storage.NewDynamicBandAllocator(dev.DBand))
	default:
		panic(fmt.Sprintf("lsm: unknown mode %v", cfg.Mode))
	}
	return dev
}

// DB is the key-value engine. The public wrapper package sealdb
// re-exports it; see the package comment for the modes.
//
// Concurrency model: writers commit in groups under one mutex (ApplyCtx,
// LevelDB style), with flushes and compactions running synchronously on
// the committing goroutine; readers take no engine lock (readstate.go).
// The experiments measure simulated device time, which is unaffected by
// host threading.
type DB struct {
	cfg Config
	dev *Device

	disk    *platter.Disk
	backend *storage.Backend
	cache   *sstable.Cache
	vs      *version.Set

	// reg, journal and metrics are internally synchronized; they are
	// written once by initObs and safe to use without d.mu.
	reg     *obs.Registry
	journal *obs.Journal
	metrics dbMetrics
	// tracer is the request tracer (trace.go). Each traced operation
	// owns its record and the tracer's own state is atomic or written
	// once by initObs, so tracing needs no lock.
	tracer tracer

	// mu is the engine's big mutex (ROADMAP's top refactor target);
	// the obs wrapper profiles its wait/hold times under the
	// "lsm_db_mu" contention site when lock profiling is on.
	//
	// lsm_db_mu is the top of the lock hierarchy: it may be held
	// while acquiring any of the subsystem locks below, never the
	// reverse (the declared order is TestObservedLockOrderIsDeclared's
	// table, checked against what the invariant build observes).
	mu  obs.Mutex
	mem *memtable.MemTable
	// queue holds the batches awaiting a group commit (ApplyCtx), oldest
	// first; scratch concatenates a group of more than one.
	queueMu obs.Mutex
	queue   []*Batch // guarded by queueMu
	scratch Batch    // guarded by mu
	// oneBatch is the spare one-entry batch Put and Delete build in,
	// taken by swapping nil in (oneEntry) and stored back after Apply.
	oneBatch atomic.Pointer[Batch]
	// state is the published read state, visible the newest sequence
	// number readers see; retiring queues superseded states, oldest
	// first, until what they retired is reclaimed (readstate.go).
	state    atomic.Pointer[readState]
	visible  atomic.Uint64
	retiring []*readState // guarded by mu
	spare    *readState   // a drained state publish reuses; guarded by mu
	// builder builds every table the engine writes, one at a time.
	builder   sstable.Builder
	walW      *wal.Writer
	walFile   *storage.AppendFile
	walLimit  int64
	walNum    uint64
	seq       kv.SeqNum
	memSeed   int64
	snapshots map[kv.SeqNum]int // guarded by mu
	// compactions is the append-only per-job record behind
	// Stats().Compactions; every scalar counter lives in metrics.
	compactions []CompactionInfo
	compID      int
	closed      atomic.Bool // set once, under mu
	// builtBytes/builtEntries sum the Meta of every table built (spanFor).
	builtBytes, builtEntries atomic.Int64
	// draining marks the levels pickCompaction drains; not persisted,
	// so a reopened level waits for debtBound again. guarded by mu
	draining [version.NumLevels]bool
	// bgErr is the first permanent write-path failure; once set, the
	// DB is read-only degraded (LevelDB's bg_error_).
	bgErr error
	// recovery describes what the last OpenDevice found on disk.
	recovery RecoveryInfo
	// vlog is the value-log driver (vlog.go); populated only when
	// Config.ValueThreshold enables key–value separation.
	vlog vlogState
}

// Open creates a fresh database on a new emulated device.
func Open(cfg Config) (*DB, error) {
	cfg.applyMode()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return OpenDevice(cfg, NewDevice(cfg))
}

// OpenDevice opens (or reopens) a database on an existing device.
// If the device holds a previous instance's state, it is recovered:
// the MANIFEST replays the file layout and the logs — the WAL and,
// with values separated, the value log past its replay head — replay
// the mutations that had not reached an SSTable.
func OpenDevice(cfg Config, dev *Device) (*DB, error) {
	cfg.applyMode()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &DB{
		cfg:       cfg,
		dev:       dev,
		disk:      dev.Disk,
		backend:   dev.Backend,
		cache:     sstable.NewCache(cfg.BlockCacheSize),
		snapshots: map[kv.SeqNum]int{},
		memSeed:   cfg.Seed,
	}
	d.mu.Profile("lsm_db_mu")
	d.queueMu.Profile("lsm_commit_queue_mu")
	d.mem = memtable.New(d.nextMemSeed())
	d.initObs()

	vcfg := version.Config{
		Backend:      d.backend,
		ManifestSize: cfg.ManifestSize,
		SortedLevel:  cfg.sortedLevel,
	}
	if _, err := d.backend.FileSize(version.CurrentFileNum); err == nil {
		vs, report, err := version.Recover(vcfg)
		if err != nil {
			return nil, err
		}
		d.vs = vs
		d.seq = vs.LastSeq()
		d.publish(nil, version.Retired{}) // the first state: recovery's edits retire behind it
		d.recovery.Manifest = report
		if report.TruncatedTail {
			d.journal.Record("manifest_truncated", map[string]int64{
				"manifest": int64(report.ManifestNum), "skipped_bytes": report.SkippedBytes,
				"records": int64(report.Records),
			})
		}
		// Sweep crash debris before anything allocates: a file created
		// by the previous instance whose manifest edit never landed
		// still occupies a number the recovered NextFileNum will hand
		// out again, so the mapping must be gone before WAL replay
		// flushes or a new WAL is created.
		d.sweepOrphans()
		var groups []vlogGroup
		if cfg.vlogEnabled() {
			if groups, err = d.vlogRecover(); err != nil {
				return nil, err
			}
		}
		if err := d.recoverSetsAndLogs(groups); err != nil {
			return nil, err
		}
		if err := d.reconcileExtents(); err != nil {
			return nil, err
		}
	} else {
		// No CURRENT: nothing on this device is durable yet. A crash
		// during a previous first-time Create can still leave files
		// behind (a manifest whose CURRENT repoint never landed);
		// wipe them so creation starts from a clean mapping table.
		for _, fr := range d.backend.Files() {
			d.backend.Remove(fr.Num)
		}
		vs, err := version.Create(vcfg)
		if err != nil {
			return nil, err
		}
		d.vs = vs
	}
	if err := d.newWAL(); err != nil {
		return nil, err
	}
	d.visible.Store(uint64(d.seq))
	return d, nil
}

// RecoveryInfo describes what OpenDevice found while recovering:
// the manifest scan report, how much of the WAL replayed, and what
// crash debris (orphan files, leaked extents) was cleaned up.
type RecoveryInfo struct {
	// Manifest is nil when the device was freshly created.
	Manifest *version.RecoveryReport `json:"manifest,omitempty"`
	// WALRecords/WALEntries count the replayed batches and the
	// key-value mutations inside them.
	WALRecords int `json:"wal_records"`
	WALEntries int `json:"wal_entries"`
	// WALSkippedBytes counts log bytes discarded as torn or stale.
	WALSkippedBytes int64 `json:"wal_skipped_bytes"`
	// WALTornTail reports that the log ended in a torn or corrupt
	// record which was treated as the end of the log.
	WALTornTail bool `json:"wal_torn_tail"`
	// OrphanSets counts sets dropped because they had no live member.
	OrphanSets int `json:"orphan_sets"`
	// OrphanFiles counts backend files removed because no manifest
	// state referenced them (half-written flush/compaction outputs).
	OrphanFiles int `json:"orphan_files"`
	// LeakedBytes counts allocator bytes freed by extent
	// reconciliation (SEALDB mode): space the dynamic band manager
	// held that no file or set covered after a crash.
	LeakedBytes int64 `json:"leaked_bytes"`
	// VlogSegments counts value-log segments the manifest carried
	// into recovery; VlogTornBytes counts active-segment bytes
	// truncated as a torn trailing group.
	VlogSegments  int   `json:"vlog_segments"`
	VlogTornBytes int64 `json:"vlog_torn_bytes"`
	// VlogGroups/VlogEntries count the batches replayed from the value
	// log's groups and the mutations inside them. VlogReplayGap
	// reports a whole group left unreplayed because its base sequence
	// did not continue the recovered history (the end of the log, as
	// for a WAL record).
	VlogGroups    int  `json:"vlog_groups,omitempty"`
	VlogEntries   int  `json:"vlog_entries,omitempty"`
	VlogReplayGap bool `json:"vlog_replay_gap,omitempty"`
}

// Recovery returns what the last OpenDevice found on this device.
func (d *DB) Recovery() RecoveryInfo { return d.recovery } // written before d is shared

func (d *DB) nextMemSeed() int64 {
	d.memSeed++
	return d.memSeed
}

// writeAllowed rejects writes on a closed or degraded DB. Caller
// holds d.mu.
func (d *DB) writeAllowed() error {
	if d.closed.Load() {
		return ErrClosed
	}
	if d.bgErr != nil {
		return fmt.Errorf("%w (cause: %v)", ErrDegraded, d.bgErr)
	}
	return nil
}

// failWrite records a permanent write-path failure: the first one
// moves the DB into read-only degraded mode (LevelDB's bg_error_);
// reads keep serving durable state. Returns err for chaining. Caller
// holds d.mu.
func (d *DB) failWrite(err error) error {
	if err == nil || d.bgErr != nil {
		return err
	}
	d.bgErr = err
	d.journal.Record("degraded", map[string]int64{})
	return err
}

// Degraded returns the permanent failure that moved the DB into
// read-only mode, or nil.
func (d *DB) Degraded() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bgErr
}

// Mode returns the engine's mode.
func (d *DB) Mode() Mode { return d.cfg.Mode }

// Config returns the configuration the DB was opened with.
func (d *DB) Config() Config { return d.cfg }

// Device returns the drive stack, for experiments that inspect
// placement, amplification and timing.
func (d *DB) Device() *Device { return d.dev }

// Seq returns the sequence number readers see, the last committed.
func (d *DB) Seq() kv.SeqNum { return kv.SeqNum(d.visible.Load()) }

// recoverSetsAndLogs drops the sets recovery found without a member and
// replays the logs: the WAL's records merged, by base sequence number,
// with the value log's groups past the replay head (none with the value
// log off).
func (d *DB) recoverSetsAndLogs(groups []vlogGroup) error {
	for _, set := range d.vs.Sets() {
		if set.Live == 0 {
			d.recovery.OrphanSets++
		}
	}
	if d.recovery.OrphanSets > 0 {
		// A set whose last member went without its drop (a manifest this
		// code did not write, or one cut short): any edit drops it, and
		// only then is its extent freed.
		if err := d.install(&version.Edit{}); err != nil {
			return err
		}
	}

	logNum := d.vs.LogNum()
	if logNum == 0 {
		return nil
	}
	// Let the tagged strict framing find the true end of the log: a
	// torn final append, and any stale frames a previous occupant of
	// the extent left beyond it, fail their CRC and end the replay
	// cleanly instead of failing Open.
	buf, err := d.backend.ReadReserved(logNum)
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			// Already flushed and removed; the flush edit that let it go
			// also moved the value log's replay head to the end.
			return nil
		}
		return err
	}
	r := wal.NewTaggedReader(bytes.NewReader(buf), logNum)
	records, entries := 0, 0
	var walRec []byte // the WAL's next record, read but not yet applied
	walEOF := false
	continues := func(rep []byte) bool {
		base, ok := batchBaseSeq(rep)
		return ok && base == d.seq+1
	}
	for {
		if walRec == nil && !walEOF {
			walRec, err = r.ReadRecord()
			if walEOF = errors.Is(err, io.EOF); walEOF {
				walRec = nil
			} else if err != nil {
				return fmt.Errorf("lsm: WAL replay: %w", err)
			}
		}
		// Sequence continuity: a commit is one write to one of the two
		// logs, so whichever log holds the batch whose base extends the
		// recovered history exactly is next (flushes move both logs'
		// replay starts, so the first batch continues LastSeq). When
		// neither does, what remains is debris — the end of the log.
		fromWAL := continues(walRec)
		if !fromWAL && (len(groups) == 0 || !continues(groups[0].rep)) {
			break
		}
		next := vlogGroup{rep: walRec}
		if !fromWAL {
			next = groups[0]
		}
		// Validate the whole batch before applying any of it, so a
		// record that frames correctly but does not decode cannot
		// leave half a batch in the memtable.
		if _, _, err := decodeBatch(next.rep, next.recs, func(kv.SeqNum, kv.Kind, []byte, []byte) error { return nil }); err != nil {
			break
		}
		last, n, _ := decodeBatch(next.rep, next.recs, func(seq kv.SeqNum, kind kv.Kind, key, value []byte) error {
			d.mem.Add(seq, kind, key, value)
			return nil
		})
		if fromWAL {
			walRec = nil
			records++
			entries += n
		} else {
			groups = groups[1:]
			d.recovery.VlogGroups++
			d.recovery.VlogEntries += n
		}
		if last > d.seq {
			d.seq = last
		}
	}
	// A record or group read but never applied broke continuity or did
	// not decode: its log ended before it.
	d.recovery.VlogReplayGap = len(groups) > 0
	d.recovery.WALRecords = records
	d.recovery.WALEntries = entries
	d.recovery.WALSkippedBytes = r.Skipped()
	d.recovery.WALTornTail = walRec != nil || r.Skipped() > 0
	d.journal.Record("wal_replay", map[string]int64{
		"log": int64(logNum), "records": int64(records), "entries": int64(entries),
		"skipped_bytes": r.Skipped(), "torn": boolToInt64(d.recovery.WALTornTail),
	})
	if d.cfg.vlogEnabled() {
		d.journal.Record("vlog_replay", map[string]int64{
			"groups": int64(d.recovery.VlogGroups), "entries": int64(d.recovery.VlogEntries),
			"gap": boolToInt64(d.recovery.VlogReplayGap),
		})
	}
	// Persist the replayed mutations as an L0 table so the old WAL
	// can be dropped, as LevelDB recovery does. The flush edit moves
	// the value log's replay head past everything just replayed.
	if !d.mem.Empty() {
		if _, err := d.run(job{mem: d.mem}); err != nil {
			return err
		}
		d.mem = memtable.New(d.nextMemSeed())
	}
	d.backend.Remove(logNum)
	return nil
}

func boolToInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sweepOrphans removes backend files that no durable state
// references: half-written flush or compaction outputs, and WALs
// whose manifest edit never landed. Runs right after manifest
// recovery and before anything creates files, so the live set is
// exactly CURRENT, the manifest, the recorded log, and the files of
// the recovered version — and every orphan number is free for
// NewFileNum to reissue.
func (d *DB) sweepOrphans() {
	live := map[uint64]bool{
		version.CurrentFileNum: true,
		d.vs.ManifestNum():     true,
	}
	if n := d.vs.LogNum(); n != 0 {
		live[n] = true
	}
	cur := d.vs.Current()
	for l := 0; l < version.NumLevels; l++ {
		for _, f := range cur.Files[l] {
			live[f.Num] = true
		}
	}
	// Value-log segments the manifest registered are live; a segment
	// created whose registering edit never landed is debris like any
	// half-written SSTable.
	for _, seg := range d.vs.VlogSegs() {
		live[seg.Num] = true
	}
	for _, fr := range d.backend.Files() {
		if live[fr.Num] {
			continue
		}
		d.backend.Remove(fr.Num)
		d.recovery.OrphanFiles++
		d.journal.Record("orphan_file_removed", map[string]int64{
			"num": int64(fr.Num), "bytes": fr.Extent.Len, "grouped": boolToInt64(fr.Grouped),
		})
	}
}

// reconcileExtents compares the dynamic band manager's allocated
// space against everything the recovered state actually owns and
// frees the difference — extents leaked when a crash landed between
// a manifest edit (e.g. DropSets) and the deferred FreeExtent, or
// between a group allocation and its manifest record. SEALDB only:
// the other modes' allocators are reconstructed per file by the
// orphan sweep.
func (d *DB) reconcileExtents() error {
	mgr := d.dev.DBand
	if mgr == nil {
		return nil
	}
	covered := d.ownedExtents()
	// Walk the allocator's allocated runs and free every gap not
	// covered by a file or set.
	for _, band := range mgr.Bands() {
		pos := band.Off
		bandEnd := band.Off + band.Len
		for _, sp := range covered {
			if sp.end() <= pos || sp.off >= bandEnd {
				continue
			}
			if sp.off > pos {
				if err := d.freeLeaked(pos, sp.off-pos); err != nil {
					return err
				}
			}
			if sp.end() > pos {
				pos = sp.end()
			}
		}
		if pos < bandEnd {
			if err := d.freeLeaked(pos, bandEnd-pos); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *DB) freeLeaked(off, length int64) error {
	d.recovery.LeakedBytes += length
	d.journal.Record("leaked_extent_reclaimed", map[string]int64{
		"off": off, "len": length,
	})
	return d.backend.FreeExtent(storage.Extent{Off: off, Len: length})
}

// openWAL creates a fresh write-ahead log of size bytes and makes it
// the active one, returning the number of the log it replaces (0 if
// none). The caller records the new number in the MANIFEST before
// removing the old log. Caller holds d.mu.
func (d *DB) openWAL(size int64) (old uint64, err error) {
	num := d.vs.NewFileNum()
	f, err := d.backend.CreateAppend(num, size)
	if err != nil {
		return 0, err
	}
	old, d.walNum = d.walNum, num
	d.walFile = f
	d.walLimit = size
	d.walW = wal.NewTaggedWriter(f, num)
	return old, nil
}

// stampReplayStart records in e where the next recovery's log replay
// starts: the last sequence number already durable in tables, the WAL
// to replay (logNum; 0 keeps the recorded one) and, with values
// separated, the value log's replay head — the writer's position,
// since every group before it is at or below LastSeq. The three always
// travel together: a head left behind LastSeq would make the first
// group replay finds a sequence gap. Caller holds d.mu, with nothing
// committed since the memtable the edit covers was frozen.
func (d *DB) stampReplayStart(e *version.Edit, logNum uint64) *version.Edit {
	e.HasLastSeq, e.LastSeq = true, d.seq
	if logNum != 0 {
		e.HasLogNum, e.LogNum = true, logNum
	}
	if d.cfg.vlogEnabled() {
		e.HasVlogHead = true
		e.VlogHead = version.VlogPos{Seg: d.vlog.w.Seg(), Off: d.vlog.w.Offset()}
	}
	return e
}

// newWAL starts a fresh write-ahead log and records its number in the
// MANIFEST (so recovery knows which log to replay).
func (d *DB) newWAL() error {
	old, err := d.openWAL(d.cfg.walSize())
	if err != nil {
		return err
	}
	if err := d.install(d.stampReplayStart(&version.Edit{}, d.walNum)); err != nil {
		return err
	}
	if old != 0 {
		d.backend.Remove(old)
	}
	return nil
}

// Close shuts the database down. Buffered writes stay in the WAL, for
// the next OpenDevice. A read begun before Close finishes on the files
// its state holds; an iterator moved after Close fails with ErrClosed.
func (d *DB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Swap(true) {
		return ErrClosed
	}
	return nil
}

// openTable returns the reader for a table file the caller's state (or
// d.mu) keeps from reclamation, opening it on first use; of two
// concurrent openers, the first to publish on f wins.
func (d *DB) openTable(f *version.FileMeta) (*sstable.Table, error) {
	if t := f.Reader.Load(); t != nil {
		return t, nil
	}
	size, err := d.backend.FileSize(f.Num)
	if err != nil {
		return nil, fmt.Errorf("lsm: opening table %d: %w", f.Num, err)
	}
	t, err := sstable.Open(d.backend.Handle(f.Num), size, f.Num, d.cache)
	if err != nil {
		return nil, err
	}
	if !f.Reader.CompareAndSwap(nil, t) {
		return f.Reader.Load(), nil
	}
	return t, nil
}

// openBuilt, if open, gives f, not yet installed, a reader opened from data,
// its table's bytes still in hand, so that the table's first read reads no
// footer, filter or index. Caller holds d.mu and keeps data.
func (d *DB) openBuilt(f *version.FileMeta, data []byte, open bool) error {
	if !open {
		return nil
	}
	t, err := sstable.OpenBuilt(data, d.backend.Handle(f.Num), f.Num, d.cache)
	if err == nil {
		f.Reader.Store(t)
	}
	return err
}
