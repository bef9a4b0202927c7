package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"sealdb/internal/invariant"
	"sealdb/internal/kv"
	"sealdb/internal/obs"
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

	// batchKindSeparated marks, in a logged batch, a Set whose key and
	// value are the next value record of the batch's value-log group:
	// the entry is that one byte, and replay rebuilds key and pointer
	// from where the record sits. It never reaches the tree.
	batchKindSeparated kv.Kind = 0x02

	// vlogGCDeadBudget is the share of the sealed log's record bytes that
	// may be dead before the collector runs (version.Set.VlogVictim): 0.25
	// is the knee of the space/throughput trade on vlog_mixed (DESIGN.md).
	vlogGCDeadBudget = 0.25
)

// vlogState is the engine-side driver of the value log: the active
// segment writer and the rotation/GC plumbing. Which segments exist and
// how dead each is the manifest state knows (d.vs). All fields are
// guarded by d.mu.
type vlogState struct {
	// w appends groups to the active segment; Seg() is 0 until the
	// first commit that separates a value rotates it onto one.
	w vlog.Writer
	// rep is the reused buffer a batch is rewritten into for logging.
	rep []byte
}

// vlogGroup is one batch as the value log holds it: the logged batch
// (a group's frame payload) and the value records it separated.
type vlogGroup struct {
	rep  []byte
	recs []vlog.Record
}

// vlogRecover rebuilds the value-log state from the recovered
// manifest: sealed segments are trusted at their recorded length, and
// the single active segment is scanned for its last whole group — a
// torn trailing write is truncated away exactly like a torn WAL tail.
// Returns the replay window: every group from the manifest's replay
// head through the active segment, in log order, for recovery to merge
// with the WAL's records by sequence number. Caller is OpenDevice;
// d.mu is not yet shared.
func (d *DB) vlogRecover() ([]vlogGroup, error) {
	head := d.vs.VlogHead()
	var window []vlogGroup
	for _, vs := range d.vs.VlogSegs() {
		num := vs.Num
		d.recovery.VlogSegments++
		var buf []byte
		var err error
		if vs.Sealed {
			if num >= head.Seg {
				buf, err = d.vlogReadSealed(num, make([]byte, vs.Bytes))
			}
		} else if active := d.vlog.w.Seg(); active != 0 {
			err = fmt.Errorf("lsm: manifest lists two active vlog segments (%d and %d)", active, num)
		} else {
			buf, err = d.vlogReopenActive(num)
		}
		if err != nil {
			return nil, err
		}
		if num < head.Seg {
			continue
		}
		start := int64(vlog.HeaderSize)
		if num == head.Seg {
			start = min(max(start, head.Off), int64(len(buf)))
		}
		s := vlog.NewScanner(num, buf[start:], start)
		for s.Next() {
			window = append(window, vlogGroup{s.Payload(), append([]vlog.Record(nil), s.Records()...)})
		}
		if err := s.Err(); err != nil {
			// Only a sealed segment can end in an error — the active one
			// was just cut to its clean prefix — and a sealed segment was
			// whole before its seal edit: this is damage, not a torn tail.
			return nil, fmt.Errorf("lsm: vlog segment %d does not scan clean to its sealed length: %w", num, err)
		}
	}
	return window, nil
}

// vlogReopenActive scans the active segment's reserved extent for its
// clean group prefix, truncates the torn tail after it, and resumes
// the writer there; the header and frame bytes the manifest learns of
// only at the seal are recounted on the way. A segment without this
// format's header is not a torn one: it is left untouched and fails
// the open. Returns the segment's valid bytes.
func (d *DB) vlogReopenActive(num uint64) ([]byte, error) {
	buf, err := d.backend.ReadReserved(num)
	if err == nil {
		err = vlog.CheckHeader(buf)
	}
	if err != nil {
		return nil, fmt.Errorf("lsm: opening vlog segment %d: %w", num, err)
	}
	s := vlog.NewScanner(num, buf[vlog.HeaderSize:], vlog.HeaderSize)
	overhead := int64(vlog.HeaderSize)
	for s.Next() {
		overhead += s.FrameLen()
	}
	valid := s.ValidLen()
	// The logical size may lag the platter (crash before the size
	// update); the scan already found the true end.
	logical, _ := d.backend.FileSize(num)
	torn := max(0, logical-valid)
	f, err := d.backend.ReopenAppend(num, valid)
	if err != nil {
		return nil, fmt.Errorf("lsm: truncating vlog segment %d to %d: %w", num, valid, err)
	}
	d.vlog.w.Reset(f, num, valid, overhead, int64(len(buf)))
	d.recovery.VlogTornBytes += torn
	if torn > 0 {
		d.journal.Record("vlog_truncated", map[string]int64{
			"segment": int64(num), "valid": valid, "torn_bytes": torn,
		})
	}
	return buf[:valid], nil
}

// vlogReadSealed reads a segment whole into buf, sized to its recorded
// length (fsck: the writer's offset, for the active one), checks its
// header and returns buf: the bytes a group scan (replay, GC, fsck) walks.
func (d *DB) vlogReadSealed(num uint64, buf []byte) ([]byte, error) {
	_, err := d.backend.ReadFileAt(num, buf, 0)
	if err == nil || err == io.EOF {
		err = vlog.CheckHeader(buf)
	}
	if err != nil {
		return nil, fmt.Errorf("lsm: reading vlog segment %d: %w", num, err)
	}
	return buf, nil
}

// vlogRotate seals the active segment (if any) and opens a fresh one
// that can hold a group of groupBytes, in one manifest edit so exactly
// one unsealed segment exists at any durable point. The seal records
// how much of the segment is header and frames. The new segment's file
// is created and its header written before the edit: a crash between
// the two leaves an orphan file for the sweep, never a manifest entry
// without a readable header to back it. Caller holds d.mu.
func (d *DB) vlogRotate(groupBytes int64) error {
	size := d.cfg.vlogSegSize()
	if need := vlog.HeaderSize + groupBytes; need > size {
		// A single group larger than the segment class: give it an
		// extent of its own, like an oversized batch gets its own WAL.
		size = need
	}
	num := d.vs.NewFileNum()
	f, err := d.backend.CreateAppend(num, size)
	if err != nil {
		return err
	}
	if _, err := f.Write(vlog.AppendHeader(nil)); err != nil {
		return err
	}
	e := &version.Edit{NewVlogSegs: []uint64{num}}
	w := &d.vlog.w
	sealed := w.Seg()
	if sealed != 0 {
		e.SealVlogSegs = []version.VlogSegRecord{{Num: sealed, Bytes: w.Offset(), Overhead: w.Overhead()}}
	}
	if err := d.install(e); err != nil {
		return err
	}
	w.Reset(f, num, vlog.HeaderSize, vlog.HeaderSize, size)
	d.journal.Record("vlog_rotate", map[string]int64{"num": int64(num), "sealed": int64(sealed)})
	if sealed == 0 {
		return nil
	}
	return d.backend.SealAppend(sealed) // its seal edit ended all writes to it
}

// vlogSegs returns the manifest's segment records in number order, the
// active segment's with its length and overhead — which the manifest
// learns at the seal — read off the writer. Caller holds d.mu.
func (d *DB) vlogSegs() []version.VlogSeg {
	segs := d.vs.VlogSegs()
	for i := range segs {
		if w := &d.vlog.w; segs[i].Num == w.Seg() {
			segs[i].Bytes, segs[i].Overhead = w.Offset(), w.Overhead()
		}
	}
	return segs
}

// vlogTotals returns the value log's live and dead byte counts —
// overhead counts as dead — and the number of segments. Caller holds
// d.mu.
func (d *DB) vlogTotals() (live, dead int64, segments int) {
	bytes, overhead, dead, segments := d.vs.VlogTotals()
	bytes, overhead = bytes+d.vlog.w.Offset(), overhead+d.vlog.w.Overhead()
	return bytes - overhead - dead, dead + overhead, segments
}

// vlogBuildGroup rewrites a batch for logging with the value log on,
// into reused buffers: every inline value gains its tag byte, and each
// value at or above the threshold becomes a record of the writer's
// open group, leaving a one-byte batchKindSeparated entry behind.
// Returns the rewritten batch and the group's records; with no record
// the batch is an ordinary WAL record. Caller holds d.mu; the batch
// itself, sequence header included, is only read.
func (d *DB) vlogBuildGroup(b *Batch) (rep []byte, recs []vlog.Record) {
	w := &d.vlog.w
	w.Begin()
	rep = append(d.vlog.rep[:0], b.rep[:batchHeaderLen]...)
	p := b.rep[batchHeaderLen:]
	for i := uint32(0); i < b.count; i++ {
		klen, kn := binary.Uvarint(p[1:])
		entry := p[:1+kn+int(klen)] // kind, key length, key
		p = p[len(entry):]
		if kv.Kind(entry[0]) != kv.KindSet {
			rep = append(rep, entry...)
			continue
		}
		vlen, vn := binary.Uvarint(p)
		value := p[vn : vn+int(vlen)]
		p = p[vn+int(vlen):]
		if int(vlen) >= d.cfg.ValueThreshold {
			w.Add(entry[1+kn:], value)
			rep = append(rep, byte(batchKindSeparated))
			continue
		}
		rep = append(rep, entry...)
		rep = binary.AppendUvarint(rep, vlen+1)
		rep = append(rep, vlogTagInline)
		rep = append(rep, value...)
	}
	d.vlog.rep = rep
	return rep, w.Records()
}

// resolveValue maps key's stored tree value to the user value: with the
// log disabled it is the identity; otherwise it strips the inline tag
// or follows the pointer — to key's cache entry if it was filled from
// that very record, else into its segment, filling the cache with the
// checked bytes. The result is always a copy, built in dst's storage
// (nil for a fresh slice). The caller holds a state that references
// the pointer's segment.
func (d *DB) resolveValue(dst, key, stored []byte) ([]byte, error) {
	if !d.cfg.vlogEnabled() {
		return append(dst[:0], stored...), nil
	}
	if len(stored) == 0 {
		return dst[:0], nil
	}
	switch stored[0] {
	case vlogTagInline:
		return append(dst[:0], stored[1:]...), nil
	case vlogTagPtr:
		ptr, err := vlog.DecodePointer(stored[1:])
		if err != nil {
			return nil, err
		}
		if v, ok := d.cache.GetValue(dst, key, ptr.Seg, uint64(ptr.Off)); ok {
			d.metrics.vlogCacheHits.Inc()
			return v, nil
		}
		// Read the record into dst's storage, then slide the value, its
		// tail, down to the front.
		dst = slices.Grow(dst[:0], int(ptr.Len))[:ptr.Len]
		_, v, err := d.vlogRead(dst, ptr)
		if err != nil {
			return nil, err
		}
		d.cache.PutValue(key, ptr.Seg, uint64(ptr.Off), v)
		return dst[:copy(dst, v)], nil
	}
	return nil, fmt.Errorf("lsm: unknown value tag %#x", stored[0])
}

// vlogRead chases a pointer on the media: one segment read into buf
// (p.Len bytes), one record decode. The record CRC (seeded with the
// segment number) catches both media damage and a pointer into
// recycled space. The results alias buf.
func (d *DB) vlogRead(buf []byte, p vlog.Pointer) (key, value []byte, err error) {
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

// vlogDeadValue inspects an entry of kind being dropped by compaction
// and returns the record its stored value was the last reference to (ok
// false for tombstones, inline values or when the log is off).
func (d *DB) vlogDeadValue(kind kv.Kind, stored []byte) (p vlog.Pointer, ok bool) {
	if !d.cfg.vlogEnabled() || kind != kv.KindSet || len(stored) != vlogPointerLen || stored[0] != vlogTagPtr {
		return p, false
	}
	p, err := vlog.DecodePointer(stored[1:])
	return p, err == nil
}

// vlogBit names record p in its segment's dropped-record bitmap
// (version.VlogBits): every record is at least ValueThreshold long, so
// no two share a bit.
func (d *DB) vlogBit(p vlog.Pointer) uint64 { return uint64(p.Off) / uint64(d.cfg.ValueThreshold) }

// vlogServing reports whether the tree's newest live entry for key is
// a pointer to exactly the segment record p — the collector's test
// that a record is still live. Caller holds d.mu.
func (d *DB) vlogServing(key []byte, p vlog.Pointer) (bool, error) {
	stored, kind, _, found, err := d.lookup(d.state.Load(), key, d.seq, nil)
	if err != nil || !found || kind != kv.KindSet {
		return false, err
	}
	var want [vlogPointerLen]byte
	want[0] = vlogTagPtr
	vlog.AppendPointer(want[1:1], p)
	return bytes.Equal(stored, want[:]), nil
}

// collect is the collection pass body: one scan of the victim that
// re-puts, in log order, each record the tree still points at, then the
// drop of the victim. A record whose one tree entry a compaction dropped
// is dead without a lookup; any other is looked up once. Frames are
// skipped — they only matter to replay, and the victim is before the
// replay head. The pass's record is its span. A reader's state keeps the
// victim's file until it lets go. Caller holds d.mu.
func (d *DB) collect(vic version.VlogSeg, sp *obs.Span) error {
	sp.Set("segment", int64(vic.Num))
	sp.Set("dead_bytes", vic.Dead)
	buf, err := d.vlogReadSealed(vic.Num, d.tableBuf(vic.Bytes)[:vic.Bytes])
	if err != nil {
		return err
	}
	defer d.cache.PutBuf(buf)

	// The relocation batch is one group, one device write: re-put
	// through the shared commit path, the values separate into the
	// active segment again. It is committed before a record that would
	// not fit the room the active segment has left: a group never
	// straddles segments, so one that outgrew the room would abandon it
	// and seal a half-empty segment. The pass runs under d.mu and its
	// re-puts touch each key once, so a record served at the scan is
	// still served at its re-put. Relocated bytes are store traffic, not
	// user traffic: they count to the GC counters.
	b := NewBatch()
	recBytes := 0 // the batch's value records, as the group will hold them
	var relocated, skipped int
	var appended int64
	reput := func() error {
		if b.Len() == 0 {
			return nil
		}
		err := d.commitLocked(b, nil, func(_ []vlog.Record, n int64) { appended += n })
		b.Reset()
		recBytes = 0
		return err
	}
	dropped := d.vs.VlogDropped(vic.Num)
	s := vlog.NewScanner(vic.Num, buf[vlog.HeaderSize:], vlog.HeaderSize)
	for s.Next() {
		for _, r := range s.Records() {
			if dropped.Has(d.vlogBit(r.Ptr)) {
				skipped++
				if invariant.Enabled {
					ok, err := d.vlogServing(r.Key, r.Ptr)
					invariant.Assert(err != nil || !ok, "lsm: vlog GC skipped record %+v, which the tree serves", r.Ptr)
				}
				continue
			}
			ok, err := d.vlogServing(r.Key, r.Ptr)
			if err != nil {
				return err
			}
			if !ok {
				continue // superseded or deleted: already dead
			}
			rec := vlog.RecordSize(len(r.Key), len(r.Value))
			if !d.vlog.w.Fits(int64(recBytes + rec + vlog.FrameSize(recBytes+rec, batchHeaderLen+b.Len()+1))) {
				if err := reput(); err != nil {
					return err
				}
			}
			b.Put(r.Key, r.Value)
			recBytes += rec
			relocated++
		}
	}
	if err := s.Err(); err != nil {
		// A sealed segment must scan clean to its recorded length.
		return fmt.Errorf("lsm: vlog GC scan of segment %d: %w", vic.Num, err)
	}
	if err := reput(); err != nil {
		return err
	}

	// Drop the victim: manifest first, then the file. The re-put groups
	// are already on the device, so a crash anywhere in here recovers
	// with every live value reachable through its new pointer; a reader
	// mid-chase keeps the file until it releases its state.
	if err := d.install(&version.Edit{DropVlogSegs: []uint64{vic.Num}}); err != nil {
		return err
	}
	d.metrics.vlogGCRuns.Inc()
	d.metrics.vlogGCRelocated.Add(appended)
	sp.Set("relocated_records", int64(relocated))
	sp.Set("relocated_bytes", appended)
	sp.Set("skipped_dropped", int64(skipped))
	sp.Set("reclaimed_bytes", vic.Bytes)
	return nil
}
