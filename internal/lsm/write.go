package lsm

import (
	"encoding/binary"
	"time"

	"sealdb/internal/kv"
	"sealdb/internal/memtable"
	"sealdb/internal/version"
	"sealdb/internal/vlog"
)

// maxPooledBatchBytes bounds the batches the DB keeps for reuse: one
// that ballooned past it is dropped rather than pinned.
const maxPooledBatchBytes = 4 << 20

const maxGroupBytes = 1 << 20 // a group commit's batches, LevelDB's bound

// Put writes a single key/value pair.
func (d *DB) Put(key, value []byte) error {
	b := d.oneEntry()
	b.Put(key, value)
	return d.applyOne(b)
}

// Delete writes a tombstone for key.
func (d *DB) Delete(key []byte) error {
	b := d.oneEntry()
	b.Delete(key)
	return d.applyOne(b)
}

// oneEntry returns the DB's spare batch, or a new one while another Put
// or Delete holds it.
func (d *DB) oneEntry() *Batch {
	if b := d.oneBatch.Swap(nil); b != nil {
		return b
	}
	return NewBatch()
}

// applyOne applies b, a batch from oneEntry, and makes it the spare.
// Apply retains nothing of a batch and Reset keeps its buffer, so after
// the first a single writer's Put builds its batch without allocating.
func (d *DB) applyOne(b *Batch) error {
	err := d.Apply(b)
	if b.Cap() <= maxPooledBatchBytes {
		b.Reset()
		d.oneBatch.Store(b)
	}
	return err
}

// Apply atomically logs and applies a batch: the log first (the WAL,
// or the value log when the batch separates a value), then the
// memtable, rotating the memtable (and compacting as needed) when it
// is full.
func (d *DB) Apply(b *Batch) error {
	return d.ApplyCtx(b, OpContext{})
}

// GroupCommit describes a group commit: when it began, whether the
// batch was its first, and its batch and entry counts.
type GroupCommit struct {
	Began            time.Time
	Head             bool
	Batches, Entries int
}

// ApplyCtx is Apply carrying a request context: when tracing is
// enabled, the commit's physical I/Os — WAL append, and any flush or
// compaction stall the batch absorbed — are attributed to ctx.ReqID.
// Writers queue their batches and wait on d.mu, whose holder commits the
// queue's head as one group under its own ReqID (LevelDB's writer
// queue); a batch an earlier holder committed just returns its outcome.
func (d *DB) ApplyCtx(b *Batch, ctx OpContext) error {
	if b.Len() == 0 {
		return nil
	}
	b.group = ctx.Group
	d.queueMu.Lock()
	d.queue = append(d.queue, b)
	d.queueMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	for !b.done {
		d.commitGroupLocked(ctx.ReqID)
	}
	b.done = false
	return b.err
}

// commitGroupLocked commits the queue's first batch and those following
// it within maxGroupBytes with one log write and one memtable pass: a
// group of one as is, more concatenated into d.scratch. Caller holds d.mu.
func (d *DB) commitGroupLocked(reqID uint64) {
	d.queueMu.Lock()
	n, size := 1, d.queue[0].Size()
	for ; n < len(d.queue) && size+d.queue[n].Size() <= maxGroupBytes; n++ {
		size += d.queue[n].Size()
	}
	group := d.queue[:n:n] // appends land past n; only d.mu's holder dequeues
	d.queueMu.Unlock()
	b := group[0]
	if n > 1 {
		b = &d.scratch
		*b = Batch{rep: append(b.rep[:0], make([]byte, batchHeaderLen)...)}
		for _, m := range group {
			b.rep = append(b.rep, m.rep[batchHeaderLen:]...)
			b.count, b.bytes = b.count+m.count, b.bytes+m.bytes
		}
	}
	var began time.Time
	for i, m := range group {
		if m.group != nil {
			if began.IsZero() {
				began = time.Now()
			}
			*m.group = GroupCommit{Began: began, Head: i == 0, Batches: n, Entries: b.Len()}
		}
	}
	err := d.writeAllowed()
	if err == nil {
		ot := d.traceBegin("apply", reqID)
		err = d.applyLocked(b, ot)
		d.traceEnd(ot, err)
	}
	for _, m := range group {
		m.done, m.err = true, err
	}
	if d.scratch.Cap() > maxPooledBatchBytes {
		d.scratch.rep = nil
	}
	d.queueMu.Lock()
	d.queue = append(d.queue[:0], d.queue[n:]...)
	clear(d.queue[len(d.queue) : len(d.queue)+n]) // the committed batches' slots
	d.queueMu.Unlock()
}

// applyLocked is the user commit: the shared commit path plus the
// user-side accounting. Caller holds d.mu and has passed writeAllowed;
// ot may be nil (tracing off).
func (d *DB) applyLocked(b *Batch, ot *opTrace) error {
	startBusy := d.deviceNow()
	if err := d.commitLocked(b, ot, d.userVlogAppend); err != nil {
		return err
	}
	d.metrics.writes.Add(int64(b.Len()))
	d.metrics.writeBytes.Add(b.bytes)
	// Write latency includes any rotation/compaction stall the batch
	// absorbed in makeRoomForWrite — the user-visible cost.
	d.metrics.writeLatency.Observe(d.deviceNow() - startBusy)
	// Opportunistic value-log collection. The batch is durable and
	// visible by now, so a failed pass is not its failure: the executor
	// degrades the store, and the next write reports it.
	if j, ok := d.gcJob(); ok {
		_ = d.run(j)
	}
	return nil
}

// userVlogAppend attributes the value-log group a user batch was
// logged as, and writes its values through to the cache: a key just
// written is the likeliest to be read, and the memtable holds only its
// pointer. The group is durable by now, so a reader can never be served
// a value the log does not hold. Caller holds d.mu.
func (d *DB) userVlogAppend(recs []vlog.Record, bytes int64) {
	d.metrics.vlogAppendBytes.Add(bytes)
	d.journal.Record("vlog_append", map[string]int64{
		"records": int64(len(recs)), "bytes": bytes,
	})
	for _, r := range recs {
		d.cache.PutValue(r.Key, r.Ptr.Seg, uint64(r.Ptr.Off), r.Value)
	}
}

// commitLocked is the engine's one commit path: make room → assign
// sequence numbers → one log write → memtable insert. User batches and
// value-log GC relocations both commit through it and differ only in
// what they do about it: separated is told what the batch appended to
// the value log, once the write succeeded, and each caller attributes it
// to its own counters (user appends vs GC rewrites; only the user's are
// cached). Caller holds d.mu and has passed writeAllowed; ot may be nil
// (untraced).
func (d *DB) commitLocked(b *Batch, ot *opTrace, separated func(recs []vlog.Record, bytes int64)) error {
	si := ot.stageStart(stageCompactionStall)
	if err := d.makeRoomForWrite(d.treeSize(b)); err != nil {
		return d.failWrite(err)
	}
	ot.stageEnd(si)
	base := d.seq + 1
	d.seq += kv.SeqNum(b.count)
	b.setSeq(base)
	si = ot.stageStart(stageWALAppend)
	rep, recs, err := d.logBatch(b, separated)
	if err != nil {
		return d.failWrite(err)
	}
	ot.stageEnd(si)
	si = ot.stageStart(stageMemtable)
	if _, _, err := decodeBatch(rep, recs, func(seq kv.SeqNum, kind kv.Kind, key, value []byte) error {
		d.mem.Add(seq, kind, key, value)
		return nil
	}); err != nil {
		return err
	}
	d.visible.Store(uint64(d.seq)) // the batch is whole in the memtable
	ot.stageEnd(si)
	return nil
}

// logBatch makes a sequenced batch durable with exactly one contiguous
// device write to exactly one log, and returns it as the tree stores
// it (plus the value records it separated, for decodeBatch). A batch
// that separates a value is written whole to the value log as one
// group — value records first, then a commit frame carrying the rest
// of the batch — so the group is the log record and the WAL is not
// touched; any other batch is a WAL record. Caller holds d.mu.
func (d *DB) logBatch(b *Batch, separated func(recs []vlog.Record, bytes int64)) ([]byte, []vlog.Record, error) {
	if !d.cfg.vlogEnabled() {
		return b.rep, nil, d.walW.AddRecord(b.rep)
	}
	rep, recs := d.vlogBuildGroup(b)
	if len(recs) == 0 {
		return rep, nil, d.walW.AddRecord(rep)
	}
	w := &d.vlog.w
	if need := w.GroupSize(len(rep)); !w.Fits(need) {
		// A group never straddles a segment: rotate first. Record
		// checksums and pointers name the segment, so build again.
		if err := d.vlogRotate(need); err != nil {
			return nil, nil, err
		}
		rep, recs = d.vlogBuildGroup(b)
	}
	n, err := w.Commit(rep)
	if err != nil {
		return nil, nil, err
	}
	separated(recs, int64(n))
	return rep, recs, nil
}

// treeSize returns the bytes a batch adds to the WAL and the memtable:
// its encoded size, with every value headed for the value log counted
// as the pointer that replaces it. Room is made for that, not for the
// raw batch, or a 1 MiB Put would rotate the WAL and flush a one-entry
// memtable for a 16-byte pointer.
func (d *DB) treeSize(b *Batch) int64 {
	n := b.Size()
	if !d.cfg.vlogEnabled() {
		return n
	}
	p := b.rep[batchHeaderLen:]
	for i := uint32(0); i < b.count; i++ {
		kind := kv.Kind(p[0])
		klen, kn := binary.Uvarint(p[1:])
		p = p[1+kn+int(klen):]
		if kind != kv.KindSet {
			continue
		}
		vlen, vn := binary.Uvarint(p)
		p = p[vn+int(vlen):]
		if int(vlen) >= d.cfg.ValueThreshold {
			n -= int64(vlen) - vlog.PointerSize
		}
	}
	return n
}

// makeRoomForWrite rotates the memtable when it (or its WAL) is full,
// then runs compactions until every level is back under its limit.
// Caller holds d.mu.
func (d *DB) makeRoomForWrite(incoming int64) error {
	walSlack := incoming + incoming/8 + 4096 // framing overhead bound
	if d.mem.ApproximateSize()+incoming < d.cfg.MemtableSize &&
		d.walFile.Size()+walSlack < d.walLimit {
		return nil
	}
	if d.mem.Empty() && d.walFile.Size()+walSlack < d.walLimit {
		// A batch larger than the memtable itself: legal, flush after.
		return nil
	}
	// A single batch can exceed the standard WAL extent; the fresh
	// log is sized to hold it.
	need := d.cfg.walSize()
	if walSlack*2 > need {
		need = walSlack * 2
	}
	if err := d.rotateAndFlush(need); err != nil {
		return err
	}
	return d.drainJobs(debtBound)
}

// rotateAndFlush freezes the memtable, starts a fresh WAL of at
// least walBytes, and flushes the frozen table (readable as imm until
// the flush edit lands) to level 0. The new WAL is created first so its
// number rides in the flush edit: recovery then replays only mutations
// newer than the flush. Caller holds d.mu.
func (d *DB) rotateAndFlush(walBytes int64) error {
	imm := d.mem
	d.mem = memtable.New(d.nextMemSeed())
	if err := d.publish(imm, version.Retired{}); err != nil {
		return err
	}
	oldWalNum, err := d.openWAL(walBytes)
	if err != nil {
		return err
	}
	num := d.walNum
	if !imm.Empty() {
		err = d.run(job{mem: imm, logNum: num})
	} else {
		// Nothing to flush (a batch larger than the WAL arrived at an
		// empty memtable) — but the manifest must still learn the new
		// log number before the old log disappears, or every write
		// acknowledged into the new WAL would be invisible to recovery.
		err = d.install(d.stampReplayStart(&version.Edit{}, num))
	}
	if err != nil {
		return err
	}
	d.backend.Remove(oldWalNum)
	d.metrics.walRotations.Inc()
	d.journal.Record("wal_rotate", map[string]int64{
		"num": int64(num), "old": int64(oldWalNum),
	})
	return nil
}
