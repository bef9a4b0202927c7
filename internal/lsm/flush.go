package lsm

import (
	"sealdb/internal/memtable"
	"sealdb/internal/sstable"
	"sealdb/internal/version"
)

// flushMemtable writes a memtable to a level-0 SSTable and logs the
// edit. newLogNum, when nonzero, is recorded so recovery replays only
// the fresh WAL. Caller holds d.mu.
func (d *DB) flushMemtable(mem *memtable.MemTable, newLogNum uint64) error {
	if mem.Empty() {
		return nil
	}
	job := d.beginJob("flush")

	// ApproximateSize charges an entry more than a block does.
	num := d.vs.NewFileNum()
	b := d.builder.Reset(d.tableBuf(mem.ApproximateSize())).Carry(d.cache, num)
	it := mem.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		b.Add(it.Key(), it.Value())
	}
	data, meta, err := b.Finish()
	if err != nil {
		return err
	}
	d.noteBuilt(meta)
	fm := &version.FileMeta{
		Num:      num,
		Size:     meta.Size,
		Smallest: meta.Smallest,
		Largest:  meta.Largest,
	}
	if err = d.openBuilt(fm, data, meta.Rows > 0); err == nil {
		err = d.backend.WriteFile(num, data)
	}
	sstable.PutBuf(data)
	if err != nil {
		return err
	}
	edit := d.stampReplayStart(&version.Edit{
		Added: []version.AddedFile{{Level: 0, Meta: fm}},
	}, newLogNum)
	if err := d.install(edit); err != nil {
		return err
	}

	d.compID++
	d.metrics.flushes.Inc()
	d.metrics.flushBytes.Add(meta.Size)
	d.metrics.levelWriteBytes[0].Add(meta.Size)
	job.sp.Set("table", int64(num))
	job.sp.Set("bytes", meta.Size)
	d.endJob(job, CompactionInfo{
		ID:          d.compID,
		FromLevel:   -1,
		ToLevel:     0,
		OutputBytes: meta.Size,
		OutputFiles: 1,
		Flush:       true,
	})
	return nil
}
