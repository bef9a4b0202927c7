package lsm

import (
	"io"
	"math"
	"slices"
	"sort"
	"time"

	"sealdb/internal/kv"
	"sealdb/internal/obs"
	"sealdb/internal/sstable"
	"sealdb/internal/storage"
	"sealdb/internal/version"
)

// compaction describes one picked compaction.
type compaction struct {
	level    int // input level
	outLevel int
	inputs0  []*version.FileMeta // from level
	inputs1  []*version.FileMeta // from outLevel (the victim's set)
	trivial  bool
	// An L0 unit's rent is the device time reads of L0's tables have
	// taken, its price that of reading and writing the unit sequentially.
	rent, price time.Duration
}

// debtBound is the score at which a level falls due. Compaction
// tolerates debt as LevelDB 1.19 does (L0 compaction starts at 4 files,
// writers slow at 8 and stop at 12): a level runs overweight to 1.5x its
// target, then drains below 1.0x in one sweep, and the victims taken
// from a fat level overlap less of the level below.
const debtBound = 1.5

// l0StopBound is L0's due score while reads have not paid for a drain:
// LevelDB's stop trigger, 12 files with a trigger of 4.
const l0StopBound = 3

// pickCompaction selects the draining level with the highest score and
// builds the compaction unit around its victim. A level starts draining
// when its score reaches due (debtBound, or 1 to settle the tree) and
// stops once it is below 1.0; nil means no level is draining. At
// debtBound, L0 starts at 1.5x only once its rent has reached the price
// of the unit that would drain it (ski rental: a write-only load never
// pays, so its L0 drains at l0StopBound, half as often). Caller holds d.mu.
func (d *DB) pickCompaction(due float64) *compaction {
	v := d.vs.Current()
	level, best := -1, 0.0
	var c *compaction // L0's unit, once priced
	// The last level has no target (nowhere to push data down to).
	for l := 0; l < d.cfg.NumLevels()-1; l++ {
		s := d.cfg.score(v, l)
		start := s >= due
		if l == 0 && start && due == debtBound && s < l0StopBound && !d.draining[0] {
			c = d.buildCompaction(v, 0, []*version.FileMeta{d.pickVictim(v, 0)})
			start = c.rent >= c.price
		}
		d.draining[l] = start || d.draining[l] && s >= 1
		if d.draining[l] && s > best {
			level, best = l, s
		}
	}
	if level < 0 {
		return nil
	}
	if level == 0 && c != nil {
		return c
	}
	victim := d.pickVictim(v, level)
	if victim == nil {
		return nil
	}
	return d.buildCompaction(v, level, []*version.FileMeta{victim})
}

// score is a level's fill against its target: L0's file count against
// l0CompactTrigger, a deeper level's bytes against maxBytesForLevel.
func (c *Config) score(v *version.Version, level int) float64 {
	if level == 0 {
		return float64(v.NumFiles(0)) / l0CompactTrigger
	}
	return float64(v.LevelBytes(level)) / float64(c.maxBytesForLevel(level))
}

// buildCompaction grows seed files of level into the compaction unit:
// the seeds (at level 0, every file transitively overlapping them)
// plus the overlapping files of the next level — which in SEALDB is
// precisely the victim's set. The picker seeds it with one victim, a
// manual range compaction with every file in the range.
func (d *DB) buildCompaction(v *version.Version, level int, seeds []*version.FileMeta) *compaction {
	c := &compaction{level: level, outLevel: level + 1, inputs0: seeds}
	lo, hi := keyRange(c.inputs0)
	if level == 0 {
		// Level-0 files overlap each other: pull in every L0 file
		// whose range touches the inputs', growing to a fixpoint.
		for {
			files := v.Overlaps(0, lo, hi, false)
			if len(files) == len(c.inputs0) {
				break
			}
			c.inputs0 = files
			lo, hi = keyRange(files)
		}
	}
	c.inputs1 = v.Overlaps(c.outLevel, lo, hi, d.cfg.sortedLevel(c.outLevel))

	// SMRDB: its single deep level overlaps, so one compaction could
	// implicate an unbounded set of files; the re-implementation caps
	// the fan-in (DESIGN.md, known deviations).
	if d.cfg.Mode == ModeSMRDB && len(c.inputs1) > d.cfg.MaxCompactionFiles {
		c.inputs1 = c.inputs1[:d.cfg.MaxCompactionFiles]
	}

	// Trivial move: a single input with nothing to merge against
	// moves down without I/O (LevelDB's IsTrivialMove). Legal into an
	// overlapped level too — overlap is permitted there by design.
	c.trivial = len(c.inputs0) == 1 && len(c.inputs1) == 0
	if level == 0 {
		for _, f := range v.Files[0] {
			if t := f.Reader.Load(); t != nil {
				c.rent += t.Source().(*storage.Handle).ReadTime()
			}
		}
		var n int64
		for _, f := range slices.Concat(c.inputs0, c.inputs1) {
			n += f.Size
		}
		pc := d.disk.Config()
		c.price = time.Duration(float64(n) * (1/pc.SeqReadBps + 1/pc.SeqWriteBps) * float64(time.Second))
	}
	return c
}

// pickVictim chooses the file to compact out of a level. SEALDB
// prioritizes members of the set with the most invalid SSTables (the
// paper's implicit garbage collection); everyone falls back to
// LevelDB's round-robin compact pointer.
func (d *DB) pickVictim(v *version.Version, level int) *version.FileMeta {
	files := v.Files[level]
	if len(files) == 0 {
		return nil
	}
	if d.cfg.Mode == ModeSEALDB && level >= 2 {
		best, bestInvalid := -1, 0
		var asked uint64 // a set's members are neighbours: ask once per run
		for i, f := range files {
			if f.SetID == 0 || f.SetID == asked {
				continue
			}
			asked = f.SetID
			if inv := d.vs.InvalidMembers(f.SetID); inv > bestInvalid {
				best, bestInvalid = i, inv
			}
		}
		if best >= 0 {
			return files[best]
		}
	}
	ptr := d.vs.CompactPointer(level)
	if ptr != nil {
		for _, f := range files {
			if kv.CompareInternal(f.Largest, ptr) > 0 {
				return f
			}
		}
	}
	return files[0]
}

// keyRange returns the user-key span of a file list.
func keyRange(files []*version.FileMeta) (lo, hi []byte) {
	for _, f := range files {
		if lo == nil || kv.CompareUser(f.Smallest.UserKey(), lo) < 0 {
			lo = f.Smallest.UserKey()
		}
		if hi == nil || kv.CompareUser(f.Largest.UserKey(), hi) > 0 {
			hi = f.Largest.UserKey()
		}
	}
	return lo, hi
}

// writeOutputs places a compaction's output tables: as one set in one
// contiguous extent when grouped, file by file otherwise. A set takes the
// number of its first output, unique for the lifetime of the DB, as its
// id, which is stamped into the outputs; its record is returned for the
// edit (nil without a set). Caller holds d.mu.
func (d *DB) writeOutputs(outputs []*version.FileMeta, datas [][]byte, grouped bool) (*version.SetRecord, error) {
	if len(outputs) == 0 {
		return nil, nil
	}
	if !grouped {
		for i, o := range outputs {
			if err := d.backend.WriteFile(o.Num, datas[i]); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	nums := make([]uint64, len(outputs))
	for i, o := range outputs {
		nums[i] = o.Num
	}
	ext, err := d.backend.WriteGroup(nums, datas)
	if err != nil {
		return nil, err
	}
	for _, o := range outputs {
		o.SetID = nums[0]
	}
	d.metrics.setsCreated.Inc()
	return &version.SetRecord{ID: nums[0], Off: ext.Off, Len: ext.Len, Members: len(nums)}, nil
}

// install is the one way a job's result becomes the store's state:
// what it wrote is on the device, the edit makes it current and is
// published to readers, and what it retired — input tables, a dropped
// segment, the extents of sets left without a member — is reclaimed
// once no reader holds a state that may read it. Caller holds d.mu.
func (d *DB) install(edit *version.Edit) error {
	retired, err := d.vs.LogAndApply(edit)
	if err != nil {
		return err
	}
	d.metrics.setsDropped.Add(int64(len(retired.Sets)))
	return d.publish(nil, retired)
}

// compact executes a compaction: merge the inputs, write the outputs
// (as one contiguous set when the mode calls for it), log the edit, and
// reclaim input space. Caller holds d.mu.
func (d *DB) compact(c *compaction, sp *obs.Span) (CompactionInfo, error) {
	sp.Set("from", int64(c.level))
	sp.Set("to", int64(c.outLevel))
	if c.level == 0 {
		sp.Set("rent_ns", int64(c.rent))
		sp.Set("price_ns", int64(c.price))
	}
	info := CompactionInfo{
		FromLevel: c.level, ToLevel: c.outLevel,
		Inputs0: len(c.inputs0), Inputs1: len(c.inputs1),
	}

	if c.trivial {
		f := c.inputs0[0]
		edit := &version.Edit{
			Deleted: []version.DeletedFile{{Level: c.level, Num: f.Num}},
			Added:   []version.AddedFile{{Level: c.outLevel, Meta: f}},
			CompactPointers: []version.CompactPointer{
				{Level: c.level, Key: f.Largest.Clone()},
			},
		}
		if err := d.install(edit); err != nil {
			return info, err
		}
		d.metrics.trivialMoves.Inc()
		sp.Set("trivial", 1)
		info.TrivialMove = true
		return info, nil
	}

	outputs, datas, vlogDead, err := d.mergeInputs(c)
	if err != nil {
		return info, err
	}
	// The device writes below are synchronous: once they have returned,
	// with or without an error, nobody holds the outputs' bytes.
	defer d.putBufs(datas)

	// Place the outputs: grouped modes write the new set in one
	// contiguous extent; others write file by file.
	edit := &version.Edit{}
	newSet, err := d.writeOutputs(outputs, datas, d.cfg.groupedOutputs(c.outLevel))
	if err != nil {
		return info, err
	}
	if newSet != nil {
		edit.NewSets = []version.SetRecord{*newSet}
		sp.Set("set", int64(newSet.ID))
	}
	for _, o := range outputs {
		info.OutputBytes += o.Size
		edit.Added = append(edit.Added, version.AddedFile{Level: c.outLevel, Meta: o})
	}

	// Per-level amplification accounting: bytes read out of each input
	// level, bytes written into the output level.
	var in0, in1 int64
	for _, f := range c.inputs0 {
		edit.Deleted = append(edit.Deleted, version.DeletedFile{Level: c.level, Num: f.Num})
		in0 += f.Size
	}
	for _, f := range c.inputs1 {
		edit.Deleted = append(edit.Deleted, version.DeletedFile{Level: c.outLevel, Num: f.Num})
		in1 += f.Size
	}
	_, hi := keyRange(c.inputs0)
	edit.CompactPointers = []version.CompactPointer{
		{Level: c.level, Key: kv.MakeInternalKey(nil, hi, 0, kv.KindDelete)},
	}

	// Dropped pointer entries kill their value-log records; the
	// deltas ride the same edit so recovery rebuilds the dead counts.
	if len(vlogDead) > 0 {
		edit.VlogDead = vlogDead.Records()
	}

	// The edit drops the sets these deletions empty and reports them
	// with the inputs; ungrouped inputs free via Remove, grouped ones are
	// only forgotten and their extent returns to the free list when the
	// whole set died.
	if err := d.install(edit); err != nil {
		return info, err
	}

	info.OutputPlacements = make([]storage.Extent, 0, len(outputs))
	for _, o := range outputs {
		if ext, err := d.backend.FileExtent(o.Num); err == nil {
			info.OutputPlacements = append(info.OutputPlacements, ext)
		}
	}
	info.InputBytes = in0 + in1
	info.OutputFiles = len(outputs)
	d.metrics.compactions.Inc()
	d.metrics.compactionReadBytes.Add(info.InputBytes)
	d.metrics.compactionWriteBytes.Add(info.OutputBytes)
	sp.Set("input_bytes", info.InputBytes)
	sp.Set("output_bytes", info.OutputBytes)
	sp.Set("output_files", int64(len(outputs)))
	return info, nil
}

// readahead models the OS readahead a streaming merge gets on each
// input file: 128 KiB at full scale, shrunk with the device time
// scale so the seek-to-transfer ratio of a k-way interleaved merge is
// as scale-invariant as the 4 KiB block floor allows.
func (c *Config) readahead() int {
	scale := c.DeviceTimeScale
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	ra := int(float64(128*kv.KiB) * scale)
	if ra < 4096 {
		ra = 4096
	}
	return ra
}

// inputIterators builds the merge's child iterators and returns the
// recycled buffers they read from, the caller's to release afterwards.
//
// This is where the paper's set advantage lives: SEALDB (and the
// LevelDB+sets ablation) first reads every input whole — and a set is
// one contiguous extent, so those reads are one large sequential I/O
// — then merges from memory (§III-A: "multiple random accesses on
// scattered SSTables are turned into a large sequential one").
// LevelDB and SMRDB stream their inputs block by block instead, the
// k-way interleave paying a seek whenever it switches files.
// Both paths bypass the block cache, as LevelDB compactions do.
//
// The files of a sorted level are disjoint and in key order, so they
// enter the merge as one child: a victim and its set are a 2-way merge
// however many files the set has.
func (d *DB) inputIterators(c *compaction) (children []kv.Iterator, bufs [][]byte, err error) {
	all := append(append([]*version.FileMeta(nil), c.inputs0...), c.inputs1...)
	its := make(map[uint64]kv.Iterator, len(all))
	if d.cfg.groupedOutputs(2) {
		var files []*version.FileMeta
		if files, bufs, err = d.readWhole(all); err != nil {
			return nil, nil, err
		}
		for i, f := range files {
			t, err := sstable.OpenBuilt(bufs[i], nil, f.Num, nil)
			if err != nil {
				return nil, bufs, err
			}
			its[f.Num] = t.NewMemIterator(bufs[i])
		}
	} else {
		for _, f := range all {
			t, err := d.openTable(f)
			if err != nil {
				return nil, nil, err
			}
			its[f.Num] = t.NewCompactionIterator(d.cfg.readahead())
		}
		// A streaming merge reads each input's first window as it
		// positions its children, in this order. Do that here: a file
		// reached later through its level's concatIter is positioned
		// again, out of the window it then still holds.
		for _, f := range all {
			if its[f.Num].SeekToFirst(); its[f.Num].Error() != nil {
				return nil, nil, its[f.Num].Error()
			}
		}
	}
	for _, in := range [2]struct {
		level int
		files []*version.FileMeta
	}{{c.level, c.inputs0}, {c.outLevel, c.inputs1}} {
		if len(in.files) > 1 && d.cfg.sortedLevel(in.level) {
			children = append(children, &concatIter{files: in.files, inputs: its})
			continue
		}
		for _, f := range in.files {
			children = append(children, its[f.Num])
		}
	}
	return children, bufs, nil
}

// readWhole reads files whole into recycled buffers, in physical order
// so that a contiguous set is one sequential pass without seeking, and
// returns them in that order with their bytes (putBufs). Caller holds d.mu.
func (d *DB) readWhole(files []*version.FileMeta) ([]*version.FileMeta, [][]byte, error) {
	sorted := append([]*version.FileMeta(nil), files...)
	sort.Slice(sorted, func(i, j int) bool {
		ei, _ := d.backend.FileExtent(sorted[i].Num)
		ej, _ := d.backend.FileExtent(sorted[j].Num)
		return ei.Off < ej.Off
	})
	datas := make([][]byte, len(sorted))
	for i, f := range sorted {
		size, err := d.backend.FileSize(f.Num)
		if err != nil {
			return nil, nil, err
		}
		// ReadFileAt overwrites all of it: old bytes need no zeroing.
		datas[i] = d.tableBuf(size)[:size]
		if _, err := d.backend.ReadFileAt(f.Num, datas[i], 0); err != nil && err != io.EOF {
			return nil, nil, err
		}
	}
	return sorted, datas, nil
}

// tableBuf returns an empty recycled buffer with room for one table of
// the configured size (blocks up to the cut, the entry that crossed
// it, index and filter), or for n bytes if that is more.
func (d *DB) tableBuf(n int64) []byte {
	return d.cache.GetBuf(int(max(n, d.cfg.SSTableSize+d.cfg.SSTableSize/8+4096)))
}

// filterBits is the bloom width, in bits per key, of a table for level:
// LevelDB's 10 at the deepest non-empty level and ln T / ln²2 more per level
// above it, so a level T times smaller passes T times fewer absent keys (Monkey).
func (d *DB) filterBits(level int) int {
	deepest := level
	for l, files := range d.vs.Current().Files[level:d.cfg.NumLevels()] {
		if len(files) > 0 {
			deepest = level + l
		}
	}
	return 10 + int(math.Round(float64(deepest-level)*math.Log(levelMultiplier)/(math.Ln2*math.Ln2)))
}

// finishTable finishes table num in d.builder; the caller releases its
// bytes. A table that took a row along is about to be read, so it is
// opened from those bytes, and its first read reads no footer, filter or
// index. Caller holds d.mu.
func (d *DB) finishTable(num uint64) (*version.FileMeta, []byte, error) {
	data, meta, err := d.builder.Finish()
	if err != nil {
		return nil, nil, err
	}
	d.builtBytes.Add(meta.Size) // spanFor's mean entry
	d.builtEntries.Add(int64(meta.Entries))
	f := &version.FileMeta{Num: num, Size: meta.Size, Smallest: meta.Smallest, Largest: meta.Largest}
	if meta.Rows > 0 {
		t, err := sstable.OpenBuilt(data, d.backend.Handle(num), num, d.cache)
		if err != nil {
			return f, data, err
		}
		f.Reader.Store(t)
	}
	return f, data, nil
}

// putBufs releases tableBuf buffers that nothing references any more.
func (d *DB) putBufs(bufs [][]byte) {
	for _, b := range bufs {
		d.cache.PutBuf(b)
	}
}

// mergeInputs runs the merge loop: inputs are read in key order,
// shadowed versions and dead tombstones are dropped (respecting
// snapshots), and outputs are cut at the SSTable target size, never
// splitting a user key across outputs. dead accumulates the
// value-log records whose pointers were dropped here, per segment
// (nil when key–value separation is off). Caller holds d.mu.
func (d *DB) mergeInputs(c *compaction) ([]*version.FileMeta, [][]byte, version.VlogDrops, error) {
	children, bufs, err := d.inputIterators(c)
	defer d.putBufs(bufs) // the iterators die with this call
	if err != nil {
		return nil, nil, nil, err
	}
	merge := &mergingIter{children: children, keys: d.mergeKeys[:0], cur: -1}
	defer func() { clear(merge.keys); d.mergeKeys = merge.keys }()

	smallestSnap := d.smallestSnapshot()
	var (
		outputs     []*version.FileMeta
		datas       [][]byte         // the outputs' bytes, in tableBuf buffers
		builder     *sstable.Builder // nil between outputs
		num         uint64           // the number of the output it is building
		curUser     []byte
		haveCur     bool
		lastSeq     kv.SeqNum
		wantCut     bool
		lastOutUser []byte
		dead        version.VlogDrops
	)
	finish := func() error {
		if builder == nil {
			return nil
		}
		f, data, err := d.finishTable(num)
		datas, outputs = append(datas, data), append(outputs, f)
		builder, wantCut = nil, false
		return err
	}

	for merge.SeekToFirst(); merge.Valid(); merge.Next() {
		ik := merge.Key()
		user := ik.UserKey()
		drop := false
		if !haveCur || kv.CompareUser(user, curUser) != 0 {
			curUser = append(curUser[:0], user...)
			haveCur = true
			lastSeq = kv.MaxSeqNum
		}
		switch {
		case lastSeq <= smallestSnap:
			// A newer version of this key, itself visible at the
			// oldest snapshot, has already been emitted: this one is
			// unreachable.
			drop = true
		case ik.Kind() == kv.KindDelete && ik.Seq() <= smallestSnap && d.isBaseLevelForKey(c, user):
			// Tombstone with nothing underneath it to shadow.
			drop = true
		}
		lastSeq = ik.Seq()
		if drop {
			// A dropped version is the last reference to its value-log
			// record: its bytes become dead in the record's segment.
			if p, ok := d.vlogDeadValue(ik.Kind(), merge.Value()); ok {
				dead.Add(p.Seg, d.vlogBit(p), int64(p.Len))
			}
			continue
		}

		// Cut the output at the size target, but never between
		// versions of one user key.
		if wantCut && (lastOutUser == nil || kv.CompareUser(user, lastOutUser) != 0) {
			if err := finish(); err != nil {
				return nil, nil, nil, err
			}
		}
		if builder == nil {
			num = d.vs.NewFileNum()
			builder = d.builder.Reset(d.tableBuf(0), d.filterBits(c.outLevel)).Carry(d.cache, num)
		}
		builder.Add(ik, merge.Value())
		lastOutUser = append(lastOutUser[:0], user...)
		if builder.EstimatedSize() >= d.cfg.SSTableSize {
			wantCut = true
		}
	}
	if err := merge.Error(); err != nil {
		return nil, nil, nil, err
	}
	if err := finish(); err != nil {
		return nil, nil, nil, err
	}
	return outputs, datas, dead, nil
}

// isBaseLevelForKey reports whether no level deeper than the
// compaction's output can hold user key — and, for overlapped
// levels, that no uninvolved file of the output level overlaps it —
// so a sufficiently old tombstone can be dropped.
func (d *DB) isBaseLevelForKey(c *compaction, user []byte) bool {
	v := d.vs.Current()
	for l := c.outLevel + 1; l < d.cfg.NumLevels(); l++ {
		if v.OverlapsAny(l, user, user, d.cfg.sortedLevel(l)) {
			return false
		}
	}
	if !d.cfg.sortedLevel(c.outLevel) {
		// inputs1 is capped at MaxCompactionFiles: a scan, not a set.
		for _, f := range v.Files[c.outLevel] {
			if kv.CompareUser(f.Smallest.UserKey(), user) <= 0 && kv.CompareUser(f.Largest.UserKey(), user) >= 0 &&
				!slices.Contains(c.inputs1, f) {
				return false
			}
		}
	}
	return true
}

// FlushMemtable forces the current memtable to level 0 (test hook and
// benchmark phase boundary).
func (d *DB) FlushMemtable() error {
	return d.maintain(func() error {
		if d.mem.Empty() {
			return nil
		}
		if err := d.rotateAndFlush(d.cfg.walSize()); err != nil {
			return err
		}
		return d.drainJobs(debtBound)
	})
}
