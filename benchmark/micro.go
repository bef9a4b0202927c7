package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"sealdb/internal/dband"
	"sealdb/internal/kv"
	"sealdb/internal/memtable"
	"sealdb/internal/platter"
	"sealdb/internal/sstable"
	"sealdb/internal/version"
	"sealdb/internal/vlog"
	"sealdb/internal/wal"
	"sealdb/internal/wire"
)

// The m rows of the ledger: timed calls into each layer's public
// functions, in isolation, with inputs shaped like the workloads' (16 B
// keys, 1 KiB values, 256 KiB tables, a 400-file version). They show
// what a layer costs the host when nothing else is in the way; the
// spans show what it costs inside a request.

// sink keeps results alive so the compiler cannot drop the calls.
var sink int

// timeCalls runs fn(i) for i in [0, n) five times and returns the
// median ns per call, and the allocations and bytes per call of the
// last round. prep, if set, runs before each round, untimed.
func timeCalls(n int, prep func(), fn func(i int)) (ns, allocs, kb float64) {
	var rounds []float64
	var before, after runtime.MemStats
	for r := 0; r < 5; r++ {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		rounds = append(rounds, float64(time.Since(start).Nanoseconds())/float64(n))
		runtime.ReadMemStats(&after)
	}
	slices.Sort(rounds)
	return rounds[len(rounds)/2],
		float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n)
}

func microLayer(out map[string]float64) error {
	var failure error
	check := func(err error) {
		if err != nil && failure == nil {
			failure = err
		}
	}
	const n = 4096
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = putKey(make([]byte, keySize), uint32(i))
	}
	sorted := slices.Clone(keys)
	slices.SortFunc(sorted, bytes.Compare)
	value := putValue(make([]byte, valueSize), 1, 1)
	rng := rand.New(rand.NewSource(1))

	// wire: one PUT request, payload then frame, into a reused buffer.
	var payload, frame []byte
	out["wire.encode_put_ns"], out["wire.encode_allocs"], _ = timeCalls(n, nil, func(i int) {
		payload = wire.AppendPut(payload[:0], keys[i], value)
		frame = wire.AppendFrame(frame[:0], &wire.Frame{Op: wire.OpPut, ReqID: uint64(i), Payload: payload})
	})
	out["wire.decode_put_ns"], _, _ = timeCalls(n, nil, func(int) {
		k, v, _ := wire.DecodePut(payload)
		sink += len(k) + len(v)
	})

	// memtable: 4 MiB of entries, sixteen rotations' worth in one table.
	var mem *memtable.MemTable
	out["memtable.add_ns"], out["memtable.add_allocs"], _ = timeCalls(n, func() { mem = memtable.New(1) }, func(i int) {
		mem.Add(kv.SeqNum(i+1), kv.KindSet, keys[i], value)
	})
	out["memtable.get_ns"], _, _ = timeCalls(n, nil, func(i int) {
		v, _, _ := mem.Get(keys[i], kv.MaxSeqNum)
		sink += len(v)
	})

	// wal: one record per single-put batch (value plus ~30 B framing).
	record := make([]byte, valueSize+keySize+16)
	w := wal.NewTaggedWriter(io.Discard, 7)
	out["wal.append_ns"], out["wal.append_allocs"], out["wal.append_kb_per_op"] = timeCalls(n, nil, func(int) {
		check(w.AddRecord(record))
	})

	// sstable: one 256 KiB table, the engine's flush and compaction unit.
	const perTable = 240
	build := func() []byte {
		b := sstable.NewBuilder()
		for i, k := range sorted[:perTable] {
			b.Add(kv.MakeInternalKey(nil, k, kv.SeqNum(i+1), kv.KindSet), value)
		}
		data, _, err := b.Finish()
		check(err)
		return data
	}
	var data []byte
	ns, _, _ := timeCalls(16, nil, func(int) { data = build() })
	out["sstable.build_ns_per_kb"] = ns / (float64(len(data)) / 1024)
	tbl, err := sstable.Open(bytes.NewReader(data), int64(len(data)), 1, sstable.NewCache(8<<20))
	if err != nil {
		return err
	}
	out["sstable.get_ns"], out["sstable.get_allocs"], _ = timeCalls(n, nil, func(int) {
		v, _, ok, err := tbl.Get(sorted[rng.Intn(perTable)], kv.MaxSeqNum)
		if !ok || err != nil {
			check(fmt.Errorf("sstable micro: key missing (%v)", err))
		}
		sink += len(v)
	})
	ns, _, _ = timeCalls(16, nil, func(int) {
		it := tbl.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			sink += len(it.Value())
		}
	})
	out["sstable.iter_next_ns"] = ns / perTable

	// version: a flush-shaped edit (one L0 file in, new log number) on a
	// version of about 400 files, the size put_random reaches.
	v := &version.Version{}
	base := &version.Edit{}
	for i := 0; i < 400; i++ {
		lo, hi := keys[i%n], keys[i%n]
		base.Added = append(base.Added, version.AddedFile{Level: 1 + i%5, Meta: &version.FileMeta{
			Num: uint64(i + 10), Size: 256 << 10,
			Smallest: kv.MakeInternalKey(nil, lo, 1, kv.KindSet), Largest: kv.MakeInternalKey(nil, hi, 1, kv.KindSet)}})
	}
	if v, err = base.Apply(v); err != nil {
		return err
	}
	edit := &version.Edit{HasLogNum: true, LogNum: 9, Added: []version.AddedFile{{Level: 0, Meta: &version.FileMeta{
		Num: 1000, Size: 256 << 10,
		Smallest: kv.MakeInternalKey(nil, sorted[0], 1, kv.KindSet), Largest: kv.MakeInternalKey(nil, sorted[n-1], 1, kv.KindSet)}}}}
	out["version.edit_apply_ns"], out["version.edit_apply_allocs"], _ = timeCalls(512, nil, func(int) {
		nv, err := edit.Apply(v)
		if check(err); err == nil {
			sink += nv.TotalFiles()
		}
	})

	// vlog: frame and append one separated value; decode it back.
	vw := vlog.NewWriter(io.Discard, 3, 0)
	out["vlog.append_ns"], _, _ = timeCalls(n, nil, func(i int) {
		_, err := vw.Append(keys[i], value)
		check(err)
	})
	rec := vlog.AppendRecord(nil, 3, keys[0], value)
	out["vlog.read_ns"], _, _ = timeCalls(n, nil, func(int) {
		_, val, _, err := vlog.DecodeRecord(3, rec)
		check(err)
		sink += len(val)
	})

	// dband: allocate set-sized extents (1-8 tables) into a surface
	// whose free list is populated, freeing as many as are taken.
	const unit = 256 << 10
	mgr := dband.New(8<<30, unit, unit)
	held := make([]dband.Extent, 512)
	for i := range held {
		e, _, err := mgr.Alloc(int64(1+i%8) * unit)
		if err != nil {
			return err
		}
		held[i] = e
	}
	for i := 0; i < len(held); i += 2 {
		mgr.Free(held[i])
	}
	out["dband.alloc_ns"], _, _ = timeCalls(n, nil, func(i int) {
		e, _, err := mgr.Alloc(int64(1+i%8) * unit)
		check(err)
		mgr.Free(e)
	})
	for i := 1; i < len(held); i += 2 {
		mgr.Free(held[i])
	}

	// platter: host cost of the emulation's memcpy, table-sized
	// sequential writes and block-sized random reads.
	disk := platter.New(platter.DefaultConfig(1 << 30))
	table := make([]byte, unit)
	ns, _, _ = timeCalls(256, nil, func(i int) {
		_, err := disk.WriteAt(table, int64(i)*unit)
		check(err)
	})
	out["platter.write_ns_per_kb"] = ns / (unit / 1024)
	block := make([]byte, 4096)
	ns, _, _ = timeCalls(n, nil, func(int) {
		_, err := disk.ReadAt(block, int64(rng.Intn(256*unit-4096)))
		check(err)
	})
	out["platter.read_ns_per_kb"] = ns / 4
	return failure
}
