package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"sealdb/internal/kv"
	"sealdb/internal/storage"
	"sealdb/internal/version"
	"sealdb/internal/vlog"
)

// Value tagging. When the value log is enabled (Config.ValueThreshold
// > 0) every value the tree stores — memtable, WAL, SSTables — gets a
// one-byte prefix: vlogTagInline followed by the value itself, or
// vlogTagPtr followed by a fixed-size vlog.Pointer naming the segment
// record that holds it. The read path strips or chases the tag
// transparently; with the log disabled values are stored raw and no
// tag exists.
const (
	vlogTagInline = 0x00
	vlogTagPtr    = 0x01

	// vlogPointerLen is the stored size of a separated value: tag
	// byte plus pointer. Separation only ever shrinks tree entries
	// because validate() requires ValueThreshold to exceed it.
	vlogPointerLen = 1 + vlog.PointerSize

	// vlogGCDeadRatio is the dead-byte fraction at which a sealed
	// segment becomes a garbage-collection victim.
	vlogGCDeadRatio = 0.5
)

// vlogState is the engine-side driver of the value log: the active
// segment writer, the accounting table, and the rotation/GC plumbing.
// All fields are guarded by d.mu; the table additionally carries its
// own lock so metric gauges can read it without the engine lock.
type vlogState struct {
	w    *vlog.Writer
	file *storage.AppendFile
	tab  *vlog.Table
	// gcHook, when set, runs between a GC pass's segment scan and its
	// conditional re-put, receiving the candidate keys of the pass.
	// Tests use it to move pointers mid-collection and pin the
	// skip-if-moved behaviour.
	gcHook func(keys [][]byte)
}

// vlogRecover rebuilds the value-log state from the recovered
// manifest: sealed segments are trusted at their recorded length, and
// the single active segment is scanned for its last whole record —
// a torn trailing append is truncated away exactly like a torn WAL
// tail. Caller is OpenDevice; d.mu is not yet shared.
func (d *DB) vlogRecover() error {
	d.vlog.tab = vlog.NewTable()
	if d.vs == nil {
		return nil
	}
	segs := d.vs.VlogSegs()
	// Deterministic order, and sanity: at most one unsealed segment.
	nums := make([]uint64, 0, len(segs))
	for num := range segs {
		nums = append(nums, num)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	for _, num := range nums {
		vs := segs[num]
		if vs.Sealed {
			d.vlog.tab.Seal(num, vs.Bytes)
			d.vlog.tab.AddDead(num, vs.Dead)
			d.recovery.VlogSegments++
			continue
		}
		if d.vlog.w != nil {
			return fmt.Errorf("lsm: manifest lists two active vlog segments (%d and %d)", d.vlog.w.Seg(), num)
		}
		valid, torn, err := d.vlogReopenActive(num)
		if err != nil {
			return err
		}
		d.vlog.tab.Open(num, valid)
		d.vlog.tab.AddDead(num, vs.Dead)
		d.recovery.VlogSegments++
		d.recovery.VlogTornBytes += torn
	}
	return nil
}

// vlogReopenActive scans the active segment's reserved extent for its
// clean record prefix, truncates anything after it, and resumes the
// writer there. Returns the valid length and the torn bytes dropped.
func (d *DB) vlogReopenActive(num uint64) (int64, int64, error) {
	buf, err := d.readReserved(num)
	if err != nil {
		return 0, 0, fmt.Errorf("lsm: opening vlog segment %d: %w", num, err)
	}
	s := vlog.NewScanner(num, buf)
	for s.Next() {
	}
	valid := s.ValidLen()
	logical, _ := d.backend.FileSize(num)
	torn := logical - valid
	if torn < 0 {
		// The logical size lagged the platter (crash before the size
		// update); the scan already found the true end.
		torn = 0
	}
	if err := d.backend.TruncateAppend(num, valid); err != nil {
		return 0, 0, fmt.Errorf("lsm: truncating vlog segment %d to %d: %w", num, valid, err)
	}
	f, err := d.backend.OpenAppend(num)
	if err != nil {
		return 0, 0, err
	}
	d.vlog.file = f
	d.vlog.w = vlog.NewWriter(f, num, valid)
	if torn > 0 {
		d.journal.Record("vlog_truncated", map[string]int64{
			"segment": int64(num), "valid": valid, "torn_bytes": torn,
		})
	}
	return valid, torn, nil
}

// vlogRotate seals the active segment (if any) and opens a fresh one
// of at least minBytes, in one manifest edit so exactly one unsealed
// segment exists at any durable point. The new segment's file is
// created before the edit: a crash between the two leaves an orphan
// file for the sweep, never a manifest entry without bytes to back
// it. Caller holds d.mu.
func (d *DB) vlogRotate(minBytes int64) error {
	size := d.cfg.vlogSegSize()
	if minBytes > size {
		// A single record larger than the segment class: give it an
		// extent of its own, like an oversized batch gets its own WAL.
		size = minBytes
	}
	num := d.vs.NewFileNum()
	f, err := d.backend.CreateAppend(num, size)
	if err != nil {
		return err
	}
	e := &version.Edit{NewVlogSegs: []uint64{num}}
	var sealed uint64
	if d.vlog.w != nil {
		sealed = d.vlog.w.Seg()
		e.SealVlogSegs = append(e.SealVlogSegs, version.VlogSegRecord{Num: sealed, Bytes: d.vlog.w.Offset()})
	}
	if err := d.vs.LogAndApply(e); err != nil {
		return err
	}
	if d.vlog.w != nil {
		d.vlog.tab.Seal(sealed, d.vlog.w.Offset())
	}
	d.vlog.file = f
	d.vlog.w = vlog.NewWriter(f, num, 0)
	d.vlog.tab.Open(num, 0)
	d.metrics.vlogRotations.Inc()
	d.journal.Record("vlog_rotate", map[string]int64{
		"num": int64(num), "sealed": int64(sealed),
	})
	return nil
}

// vlogAppend writes one record to the active segment, rotating first
// when it would not fit, and returns the stored pointer. The append
// is a synchronous device write: when it returns, the record is as
// durable as anything the drive acknowledged, and only then may a
// pointer to it enter the WAL. Caller holds d.mu.
func (d *DB) vlogAppend(key, value []byte) (vlog.Pointer, error) {
	need := int64(vlog.RecordSize(len(key), len(value)))
	if d.vlog.w == nil || d.vlog.w.Offset()+need > d.cfg.vlogSegSize() {
		if err := d.vlogRotate(need); err != nil {
			return vlog.Pointer{}, err
		}
	}
	p, err := d.vlog.w.Append(key, value)
	if err != nil {
		return vlog.Pointer{}, err
	}
	d.vlog.tab.Extend(p.Seg, int64(p.Len))
	return p, nil
}

// separateBatch rewrites a batch for the value log: every value gains
// its tag byte, and values at or above the threshold move to the log
// with a pointer left in their place. Returns the record count and
// bytes appended to the log; the caller attributes them (user append
// vs GC rewrite). Must run before the batch's WAL append so the log
// write orders ahead of the acknowledgement; a crash between the two
// leaves dead log bytes, never a dangling pointer. Caller holds d.mu;
// the batch's sequence header is preserved untouched.
func (d *DB) separateBatch(b *Batch) (records, appended int64, err error) {
	rep := make([]byte, 0, len(b.rep))
	rep = append(rep, b.rep[:batchHeaderLen]...)
	p := b.rep[batchHeaderLen:]
	for i := uint32(0); i < b.count; i++ {
		kind := kv.Kind(p[0])
		klen, n := binary.Uvarint(p[1:])
		key := p[1+n : 1+n+int(klen)]
		rep = append(rep, p[:1+n+int(klen)]...)
		p = p[1+n+int(klen):]
		if kind != kv.KindSet {
			continue
		}
		vlen, n := binary.Uvarint(p)
		value := p[n : n+int(vlen)]
		p = p[n+int(vlen):]
		if int(vlen) >= d.cfg.ValueThreshold {
			ptr, err := d.vlogAppend(key, value)
			if err != nil {
				return records, appended, err
			}
			appended += int64(ptr.Len)
			records++
			rep = binary.AppendUvarint(rep, uint64(vlogPointerLen))
			rep = append(rep, vlogTagPtr)
			rep = vlog.AppendPointer(rep, ptr)
		} else {
			rep = binary.AppendUvarint(rep, uint64(vlen)+1)
			rep = append(rep, vlogTagInline)
			rep = append(rep, value...)
		}
	}
	b.rep = rep
	return records, appended, nil
}

// resolveValue maps a stored tree value to the user value: with the
// log disabled it is the identity; otherwise it strips the inline tag
// or chases the pointer into its segment. The returned slice is
// always a fresh copy. Caller holds d.mu.
func (d *DB) resolveValue(stored []byte) ([]byte, error) {
	if !d.cfg.vlogEnabled() {
		return append([]byte(nil), stored...), nil
	}
	if len(stored) == 0 {
		return []byte{}, nil
	}
	switch stored[0] {
	case vlogTagInline:
		return append([]byte(nil), stored[1:]...), nil
	case vlogTagPtr:
		ptr, err := vlog.DecodePointer(stored[1:])
		if err != nil {
			return nil, err
		}
		_, v, err := d.vlogRead(ptr)
		return v, err
	}
	return nil, fmt.Errorf("lsm: unknown value tag %#x", stored[0])
}

// vlogRead chases a pointer: one segment read, one record decode.
// The record CRC (seeded with the segment number) catches both media
// damage and a pointer into recycled space. Caller holds d.mu.
func (d *DB) vlogRead(p vlog.Pointer) (key, value []byte, err error) {
	buf := make([]byte, p.Len)
	if _, err := d.backend.ReadFileAt(p.Seg, buf, int64(p.Off)); err != nil && err != io.EOF {
		return nil, nil, fmt.Errorf("lsm: vlog read %+v: %w", p, err)
	}
	k, v, _, err := vlog.DecodeRecord(p.Seg, buf)
	if err != nil {
		return nil, nil, fmt.Errorf("lsm: vlog read %+v: %w", p, err)
	}
	d.metrics.vlogReads.Inc()
	return k, v, nil
}

// vlogDeadValue inspects a stored tree value being dropped by
// compaction and returns the segment and record bytes it releases
// (0, 0 for inline values or when the log is off).
func (d *DB) vlogDeadValue(stored []byte) (seg uint64, n int64) {
	if !d.cfg.vlogEnabled() || len(stored) != vlogPointerLen || stored[0] != vlogTagPtr {
		return 0, 0
	}
	ptr, err := vlog.DecodePointer(stored[1:])
	if err != nil {
		return 0, 0
	}
	return ptr.Seg, int64(ptr.Len)
}

// vlogChargeDead folds compaction-drop dead bytes into the accounting
// table and returns the manifest records carrying them. Caller holds
// d.mu.
func (d *DB) vlogChargeDead(dead map[uint64]int64) []version.VlogDeadRecord {
	if len(dead) == 0 {
		return nil
	}
	nums := make([]uint64, 0, len(dead))
	for num := range dead {
		nums = append(nums, num)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	recs := make([]version.VlogDeadRecord, 0, len(nums))
	var total int64
	for _, num := range nums {
		d.vlog.tab.AddDead(num, dead[num])
		recs = append(recs, version.VlogDeadRecord{Num: num, Dead: dead[num]})
		total += dead[num]
		// Mirror the charge onto the storage surface: the segment's
		// extent accrues the dead bytes so /debug/bands shows value-log
		// garbage on the bands holding it.
		if ext, err := d.backend.FileExtent(num); err == nil {
			d.surfaceChargeDead(ext.Off, dead[num])
		}
	}
	d.metrics.vlogDeadBytes.Add(total)
	return recs
}

// vlogServing reports whether the tree's newest live entry for key is
// a pointer to exactly the segment record p — the collector's test
// that a record is still live — and the number of the SSTable serving
// it (0 for the memtable). Caller holds d.mu.
func (d *DB) vlogServing(key []byte, p vlog.Pointer) (file uint64, ok bool, err error) {
	stored, kind, file, found, err := d.lookup(key, d.seq, nil)
	if err != nil || !found || kind != kv.KindSet {
		return 0, false, err
	}
	var want [vlogPointerLen]byte
	want[0] = vlogTagPtr
	vlog.AppendPointer(want[1:1], p)
	return file, bytes.Equal(stored, want[:]), nil
}

// VlogGCResult reports one collection pass.
type VlogGCResult struct {
	// Victim is the collected segment (0 when no segment qualified).
	Victim uint64
	// RelocatedRecords/RelocatedBytes count live records rewritten
	// into fresh segments.
	RelocatedRecords int
	RelocatedBytes   int64
	// SkippedMoved counts records whose tree pointer no longer named
	// the victim record when the conditional re-put re-checked it.
	SkippedMoved int
	// ReclaimedBytes is the victim segment's size returned to the
	// allocator.
	ReclaimedBytes int64
}

// VlogGC runs one value-log collection pass: pick the sealed segment
// with the highest dead ratio (at or above vlogGCDeadRatio),
// relocate its live records — grouped by the set of the SSTable that
// references each one, so co-compacted values stay adjacent — and
// drop the victim. Returns a zero-victim result when nothing
// qualifies.
func (d *DB) VlogGC() (VlogGCResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.writeAllowed(); err != nil {
		return VlogGCResult{}, err
	}
	if !d.cfg.vlogEnabled() {
		return VlogGCResult{}, fmt.Errorf("lsm: VlogGC requires a value threshold (mode %v)", d.cfg.Mode)
	}
	return d.vlogGCLocked()
}

// maybeVlogGC opportunistically collects after a write when a victim
// qualifies. One pass per call bounds the stall a single Apply can
// absorb. Caller holds d.mu.
func (d *DB) maybeVlogGC() error {
	if !d.cfg.vlogEnabled() || d.vlog.tab == nil {
		return nil
	}
	_, err := d.vlogGCLocked()
	return err
}

// vlogGCLocked is the collection pass body. Caller holds d.mu.
//
// Snapshot safety: relocation re-puts live values at fresh sequence
// numbers and then deletes the victim segment, which would tear the
// old pointers out from under a pinned snapshot — so the pass simply
// refuses to run while snapshots exist (the next write retries it).
// Live iterators are handled by routing the victim's removal through
// the epoch-pinned reclaim queue.
func (d *DB) vlogGCLocked() (VlogGCResult, error) {
	var res VlogGCResult
	if len(d.snapshots) > 0 {
		return res, nil
	}
	vic, ok := d.vlog.tab.Victim(vlogGCDeadRatio)
	if !ok {
		return res, nil
	}
	res.Victim = vic.Num
	sp := d.journal.Begin("vlog_gc", 0)
	sp.Set("segment", int64(vic.Num))
	sp.Set("dead_bytes", vic.Dead)

	// Scan the victim for candidate records: those the tree still
	// points at.
	buf := make([]byte, vic.Bytes)
	if _, err := d.backend.ReadFileAt(vic.Num, buf, 0); err != nil && err != io.EOF {
		return res, d.failWrite(fmt.Errorf("lsm: vlog GC scan of segment %d: %w", vic.Num, err))
	}
	type candidate struct {
		key, value []byte
		ptr        vlog.Pointer
		set        uint64
	}
	var cands []candidate
	s := vlog.NewScanner(vic.Num, buf)
	for s.Next() {
		file, ok, err := d.vlogServing(s.Key(), s.Pointer())
		if err != nil {
			return res, err
		}
		if !ok {
			continue // superseded or deleted: already dead
		}
		cands = append(cands, candidate{
			key:   append([]byte(nil), s.Key()...),
			value: append([]byte(nil), s.Value()...),
			ptr:   s.Pointer(),
			set:   d.sets.setOf(file),
		})
	}
	if err := s.Err(); err != nil {
		// A sealed segment must scan clean to its recorded length.
		return res, d.failWrite(fmt.Errorf("lsm: vlog GC scan of segment %d: %w", vic.Num, err))
	}

	if d.vlog.gcHook != nil {
		keys := make([][]byte, len(cands))
		for i, c := range cands {
			keys[i] = c.key
		}
		d.vlog.gcHook(keys)
	}

	// Set-aware relocation: stable-sort candidates by set so records
	// whose referents compact together land adjacent in the fresh
	// segment, then re-put each group in one batch. The re-put is
	// conditional — a pointer the hook (or a future concurrent write
	// path) moved since the scan is skipped, not clobbered.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].set < cands[j].set })
	for start := 0; start < len(cands); {
		end := start
		for end < len(cands) && cands[end].set == cands[start].set {
			end++
		}
		group := cands[start:end]
		start = end
		b := NewBatch()
		for _, c := range group {
			_, ok, err := d.vlogServing(c.key, c.ptr)
			if err != nil {
				return res, err
			}
			if !ok {
				res.SkippedMoved++
				continue
			}
			b.Put(c.key, c.value)
			res.RelocatedRecords++
		}
		if b.Len() == 0 {
			continue
		}
		n, err := d.reputLocked(b)
		if err != nil {
			return res, err
		}
		res.RelocatedBytes += n
	}

	// Drop the victim: manifest first, then the file. The re-put WAL
	// records are already on the device, so a crash anywhere in here
	// recovers with every live value reachable through its new
	// pointer. The extent itself is freed through the reclaim queue
	// so a live iterator mid-chase keeps its bytes.
	if err := d.vs.LogAndApply(&version.Edit{DropVlogSegs: []uint64{vic.Num}}); err != nil {
		return res, d.failWrite(err)
	}
	d.vlog.tab.Drop(vic.Num)
	res.ReclaimedBytes = vic.Bytes
	d.reclaim([]uint64{vic.Num}, nil)

	d.metrics.vlogGCRuns.Inc()
	d.metrics.vlogGCRelocated.Add(res.RelocatedBytes)
	d.metrics.vlogGCReclaimed.Add(res.ReclaimedBytes)
	d.metrics.vlogGCSkipped.Add(int64(res.SkippedMoved))
	sp.Set("relocated_records", int64(res.RelocatedRecords))
	sp.Set("relocated_bytes", res.RelocatedBytes)
	sp.Set("skipped_moved", int64(res.SkippedMoved))
	sp.Set("reclaimed_bytes", res.ReclaimedBytes)
	sp.End()
	return res, nil
}

// reputLocked commits a GC relocation batch through the shared commit
// path — the values separating into the active segment again *is* the
// relocation — and returns the log bytes it appended, which the pass
// charges to the GC counters: relocated bytes are store traffic, not
// user traffic. Caller holds d.mu.
func (d *DB) reputLocked(b *Batch) (appended int64, err error) {
	err = d.commitLocked(b, nil, func(_, n int64) { appended = n })
	return appended, err
}
