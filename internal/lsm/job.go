package lsm

import (
	"fmt"
	"time"

	"sealdb/internal/memtable"
	"sealdb/internal/obs"
	"sealdb/internal/version"
)

// job is one unit of maintenance work, built only when there is work to
// do: a flush of a frozen memtable, a compaction, or a value-log GC pass.
// Exactly one of mem, c and victim is set; building one allocates nothing.
type job struct {
	mem    *memtable.MemTable // a flush: the memtable
	logNum uint64             // a flush: the WAL recovery replays after it (0 keeps the recorded one)
	c      *compaction        // a compaction
	victim version.VlogSeg    // a vlog GC pass: the segment to collect
}

// gcDue is the due score of the drain after a commit: no level is picked,
// and one value-log GC pass runs if a victim qualifies.
const gcDue = 0

// drainJobs runs the jobs that are due until none is: compactions of the
// levels draining at score due (debtBound before a batch is logged, 1
// where every level must end below its target), or, at gcDue, one GC
// pass, which bounds the stall a single Apply absorbs. A pass re-puts
// through commitLocked, whose drain picks compactions only, so it never
// starts another pass. Caller holds d.mu.
func (d *DB) drainJobs(due float64) error {
	for i := 0; ; i++ {
		j, ok := d.nextJob(due)
		if !ok {
			return nil
		}
		if _, err := d.run(j); err != nil || j.c == nil {
			return err
		}
		if i > 10000 {
			return fmt.Errorf("lsm: compaction loop did not converge")
		}
	}
}

// nextJob returns the job due at score due: the compaction pickCompaction
// builds or, at gcDue, a GC pass of the segment VlogVictim names while the
// sealed log is over its dead budget — the deadest sealed segment wholly
// before the replay head (dead bytes are only charged at flush and
// compaction, so waiting for the next flush to move the head costs the
// collector nothing). Relocation re-puts live values at fresh sequence
// numbers, so no pass is due while a snapshot is registered (the next
// commit retries). Caller holds d.mu.
func (d *DB) nextJob(due float64) (job, bool) {
	if due != gcDue {
		c := d.pickCompaction(due)
		return job{c: c}, c != nil
	}
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
func (d *DB) run(j job) (res VlogGCResult, err error) {
	busy := d.deviceNow()
	var info CompactionInfo
	var sp *obs.Span
	switch {
	case j.mem != nil:
		sp = d.journal.Begin("flush", 0)
		info, err = d.flush(j.mem, j.logNum, sp)
	case j.c != nil:
		sp = d.journal.Begin("compaction", 0)
		info, err = d.compact(j.c, sp)
	default:
		sp = d.journal.Begin("vlog_gc", 0)
		res, err = d.collect(j.victim, sp)
	}
	if err != nil {
		return res, d.failWrite(err)
	}
	if j.victim.Num == 0 {
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
	return res, nil
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
