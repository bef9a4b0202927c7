package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sealdb/internal/faultfs"
	"sealdb/internal/kv"
	"sealdb/internal/smr"
	"sealdb/internal/sstable"
)

// A point read that finds its block cached keeps a large inline entry as
// a row of the block cache (DESIGN.md §sstable.Cache). These tests cover
// what a row could newly get wrong in the engine: hiding media damage from
// fsck, and outliving its table.

// loadRowVictim stores one large value under the store's smallest key
// among 400 small ones, flushes, reads the large one until it is a row, and
// returns its key and value.
func loadRowVictim(t *testing.T, d *DB) ([]byte, []byte) {
	t.Helper()
	key, want := []byte("a-victim"), bigValue("victim", 700)
	if err := d.Put(key, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := d.Put([]byte(fmt.Sprintf("fill%04d", i)), bigValue("fill", 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // device miss, then the block hit that forms the row
		if got, err := d.Get(key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get = %d bytes, %v", len(got), err)
		}
	}
	if st := d.cache.Stats(); st.RowEntries != 1 {
		t.Fatalf("two reads of a 700-byte value left %d rows, want 1: %+v", st.RowEntries, st)
	}
	return key, want
}

// TestRowCacheDoesNotHideMediaDamage flips a bit in the on-media block
// under a cached row after the block itself has left the cache. The
// running store keeps serving the row, as it would a cached block; fsck
// reads the table's blocks, finds this one on the media and reports it;
// and once the cache is gone (reopen) so does the Get.
func TestRowCacheDoesNotHideMediaDamage(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	cfg.BlockCacheSize = 32 * kv.KiB
	var fd *faultfs.Drive
	cfg.WrapDrive = func(inner smr.Drive) smr.Drive {
		fd = faultfs.New(inner, 3)
		return fd
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, want := loadRowVictim(t, d)
	// One-touch reads sweep the victim's block, never promoted, out of
	// probation; the row is read in between and stays protected.
	for i := 0; i < 400; i += 7 {
		if _, err := d.Get([]byte(fmt.Sprintf("fill%04d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Lock()
	_, _, file, _, err := d.lookup(key, d.seq, nil)
	d.mu.Unlock()
	if err != nil || file == nil {
		t.Fatalf("lookup: file %v, %v", file, err)
	}
	// The victim is its table's first entry: its value starts within the
	// first few bytes of the file.
	ext, err := d.backend.FileExtent(file.Num)
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.FlipBit(ext.Off+300, 3); err != nil {
		t.Fatal(err)
	}

	before := d.cache.Stats()
	if got, err := d.Get(key); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get of the cached row after the flip = %d bytes, %v", len(got), err)
	}
	if st := d.cache.Stats(); st.Misses != before.Misses || st.Hits != before.Hits+1 {
		t.Fatalf("the Get was not served by the row: %+v -> %+v", before, st)
	}
	if err := d.VerifyIntegrity(); !errors.Is(err, sstable.ErrCorruptBlock) {
		t.Fatalf("VerifyIntegrity over a damaged block under a cached row = %v, want sstable.ErrCorruptBlock", err)
	}
	dev := d.Device()
	d.Close()
	d, err = OpenDevice(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got, err := d.Get(key); !errors.Is(err, sstable.ErrCorruptBlock) {
		t.Fatalf("Get after reopen = %d bytes, %v; want sstable.ErrCorruptBlock", len(got), err)
	}
	if st := d.cache.Stats(); st.RowEntries != 0 {
		t.Fatalf("a block that failed its CRC became a row: %+v", st)
	}
}

// TestRowsLeaveWithTheirTable: a row is keyed by its table, so the
// compaction that rewrites the table takes the row along, the cache's row
// residency falls to nothing, and the next two reads form the row again
// from the new table.
func TestRowsLeaveWithTheirTable(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	key, want := loadRowVictim(t, d)
	// Overwrite a neighbour so the compaction has two versions to merge
	// and cannot move the victim's table down as it is.
	if err := d.Put([]byte("fill0000"), bigValue("fill", 100)); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if st := d.cache.Stats(); st.RowEntries != 0 || st.RowBytes != 0 || st.UsedBytes > d.cfg.BlockCacheSize {
		t.Fatalf("the victim's table was rewritten, its row stayed: %+v", st)
	}
	for i := 0; i < 3; i++ {
		if got, err := d.Get(key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get after the compaction = %d bytes, %v", len(got), err)
		}
	}
	if st := d.cache.Stats(); st.RowEntries != 1 {
		t.Fatalf("reads of the rewritten table formed %d rows, want 1", st.RowEntries)
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
