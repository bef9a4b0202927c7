package lsm

import (
	"fmt"
	"time"

	"sealdb/internal/memtable"
	"sealdb/internal/obs"
	"sealdb/internal/version"
)

// job is one unit of maintenance work, built only when there is work to
// do: a flush of a frozen memtable, a compaction or a value-log GC pass.
// Exactly one of mem, c and victim is set; building one allocates nothing.
type job struct {
	mem    *memtable.MemTable // a flush: the memtable
	logNum uint64             // a flush: the WAL recovery replays after it (0 keeps the recorded one)
	c      *compaction        // a compaction
	victim version.VlogSeg    // a vlog GC pass: the segment to collect
}

// drainJobs runs the compactions of the levels draining at score due
// (debtBound before a batch is logged, 1 where every level must end below
// its target) until none is due. Caller holds d.mu.
func (d *DB) drainJobs(due float64) error {
	for i := 0; ; i++ {
		c := d.pickCompaction(due)
		if c == nil {
			return nil
		}
		if err := d.run(job{c: c}); err != nil {
			return err
		}
		if i > 10000 {
			return fmt.Errorf("lsm: compaction loop did not converge")
		}
	}
}

// gcJob returns the value-log GC pass due after a commit: one pass of the
// segment VlogVictim names while the sealed log is over its dead budget —
// the deadest sealed segment wholly before the replay head (dead bytes
// are only charged at flush and compaction, so waiting for the next flush
// to move the head costs the collector nothing). One pass per commit
// bounds the stall a single Apply absorbs; a pass re-puts through
// commitLocked, whose drain picks compactions only, so it never starts
// another. Relocation re-puts live values at fresh sequence numbers, so
// no pass is due while a snapshot is registered (the next commit
// retries). Caller holds d.mu.
func (d *DB) gcJob() (job, bool) {
	if !d.cfg.vlogEnabled() || len(d.snapshots) > 0 {
		return job{}, false
	}
	vic, ok := d.vs.VlogVictim(vlogGCDeadBudget)
	return job{victim: vic}, ok
}

// run executes a job and owns what every kind shares: its journal span
// and, for a flush or compaction, its id and the CompactionInfo appended
// to d.compactions, completed with the device time the job took — an
// exact delta, since jobs serialize under d.mu (a trivial move does no
// I/O of its own and records none). A job that fails degrades the store
// and journals no span. Caller holds d.mu.
func (d *DB) run(j job) (err error) {
	busy := d.deviceNow()
	var info CompactionInfo
	var sp *obs.Span
	switch {
	case j.mem != nil:
		sp = d.journal.Begin("flush")
		info, err = d.flush(j.mem, j.logNum, sp)
	case j.c != nil:
		sp = d.journal.Begin("compaction")
		info, err = d.compact(j.c, sp)
	default:
		sp = d.journal.Begin("vlog_gc")
		err = d.collect(j.victim, sp)
	}
	if err != nil {
		return d.failWrite(err)
	}
	if j.mem != nil || j.c != nil {
		d.compID++
		info.ID = d.compID
		if j.c != nil {
			sp.Set("id", int64(info.ID)) // a flush's span names its table instead
		}
		if !info.TrivialMove {
			info.Latency = time.Duration(d.deviceNow() - busy)
		}
		d.compactions = append(d.compactions, info)
	}
	sp.End()
	return nil
}

// maintain is the preamble of every maintenance call: under d.mu, on a
// writable store, run fn — which builds jobs and runs them — and degrade
// the store if it fails.
func (d *DB) maintain(fn func() error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.writeAllowed(); err != nil {
		return err
	}
	return d.failWrite(fn())
}

// flush writes a memtable to a level-0 SSTable and installs it. Caller
// holds d.mu.
func (d *DB) flush(mem *memtable.MemTable, logNum uint64, sp *obs.Span) (CompactionInfo, error) {
	// ApproximateSize charges an entry more than a block does.
	num := d.vs.NewFileNum()
	b := d.builder.Reset(d.tableBuf(mem.ApproximateSize()), d.filterBits(0)).Carry(d.cache, num)
	it := mem.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		b.Add(it.Key(), it.Value())
	}
	fm, data, err := d.finishTable(num)
	if err == nil {
		err = d.backend.WriteFile(num, data)
	}
	d.cache.PutBuf(data)
	if err != nil {
		return CompactionInfo{}, err
	}
	edit := d.stampReplayStart(&version.Edit{
		Added: []version.AddedFile{{Level: 0, Meta: fm}},
	}, logNum)
	if err := d.install(edit); err != nil {
		return CompactionInfo{}, err
	}
	d.metrics.flushes.Inc()
	d.metrics.flushBytes.Add(fm.Size)
	sp.Set("table", int64(num))
	sp.Set("bytes", fm.Size)
	return CompactionInfo{FromLevel: -1, ToLevel: 0, OutputBytes: fm.Size, OutputFiles: 1, Flush: true}, nil
}
