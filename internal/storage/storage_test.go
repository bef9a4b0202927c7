package storage

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"sealdb/internal/dband"
	"sealdb/internal/faultfs"
	"sealdb/internal/platter"
	"sealdb/internal/smr"
)

func newRawBackend(t *testing.T) (*Backend, *dband.Manager, *smr.RawDrive) {
	t.Helper()
	disk := platter.New(platter.DefaultConfig(16 << 20))
	drive := smr.NewRaw(disk, 4096)
	mgr := dband.New(disk.Capacity(), 4096, 4096)
	b := NewBackend(drive, NewDynamicBandAllocator(mgr))
	return b, mgr, drive
}

func TestWriteReadRemove(t *testing.T) {
	b, _, _ := newRawBackend(t)
	data := make([]byte, 10000)
	rand.New(rand.NewSource(1)).Read(data)
	if err := b.WriteFile(1, data); err != nil {
		t.Fatal(err)
	}
	if sz, _ := b.FileSize(1); sz != int64(len(data)) {
		t.Errorf("size %d", sz)
	}
	got := make([]byte, len(data))
	if _, err := b.ReadFileAt(1, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("data mismatch")
	}
	// Partial read in the middle.
	mid := make([]byte, 100)
	if _, err := b.ReadFileAt(1, mid, 500); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mid, data[500:600]) {
		t.Error("partial read mismatch")
	}
	if err := b.Remove(1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.FileSize(1); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

// TestHandleReadClock: a handle adds up the device time of the reads made
// through it, exactly what the platter charged them, and a new handle on
// the same file starts at zero.
func TestHandleReadClock(t *testing.T) {
	disk := platter.New(platter.DefaultConfig(16 << 20))
	b := NewBackend(smr.NewRaw(disk, 4096), NewDynamicBandAllocator(dband.New(disk.Capacity(), 4096, 4096)))
	if err := b.WriteFile(1, make([]byte, 10000)); err != nil {
		t.Fatal(err)
	}
	h := b.Handle(1)
	buf := make([]byte, 4096)
	busy := disk.Stats().BusyTime
	for _, off := range []int64{0, 5000, 100} {
		if _, err := h.ReadAt(buf[:100], off); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.ReadAt(buf, 9000); err != io.EOF {
		t.Fatalf("read past the end: %v, want io.EOF", err)
	}
	if got, want := h.ReadTime(), disk.Stats().BusyTime-busy; got <= 0 || got != want {
		t.Fatalf("handle clock %v, the platter charged %v", got, want)
	}
	if _, err := b.ReadFileAt(1, buf, 0); err != nil {
		t.Fatal(err)
	}
	if got := b.Handle(1).ReadTime(); got != 0 {
		t.Fatalf("a new handle starts at %v", got)
	}
}

func TestDuplicateFileRejected(t *testing.T) {
	b, _, _ := newRawBackend(t)
	if err := b.WriteFile(7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile(7, []byte("y")); err == nil {
		t.Error("duplicate file number accepted")
	}
}

func TestReadAtEOFSemantics(t *testing.T) {
	b, _, _ := newRawBackend(t)
	b.WriteFile(1, []byte("hello"))
	p := make([]byte, 10)
	n, err := b.ReadFileAt(1, p, 0)
	if n != 5 || err != io.EOF {
		t.Errorf("n=%d err=%v, want 5, io.EOF", n, err)
	}
	h := b.Handle(1)
	n, err = h.ReadAt(p[:3], 2)
	if n != 3 || err != nil {
		t.Errorf("handle read n=%d err=%v", n, err)
	}
	if string(p[:3]) != "llo" {
		t.Errorf("handle read %q", p[:3])
	}
}

func TestWriteGroupContiguous(t *testing.T) {
	b, _, drive := newRawBackend(t)
	nums := []uint64{10, 11, 12}
	datas := [][]byte{
		bytes.Repeat([]byte("a"), 3000),
		bytes.Repeat([]byte("b"), 5000),
		bytes.Repeat([]byte("c"), 2000),
	}
	ext, err := b.WriteGroup(nums, datas)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Len != 10000 {
		t.Errorf("group extent %v, want len 10000", ext)
	}
	// Files are contiguous and in order.
	var pos = ext.Off
	for i, num := range nums {
		fe, _ := b.FileExtent(num)
		if fe.Off != pos || fe.Len != int64(len(datas[i])) {
			t.Errorf("file %d extent %v, want off %d len %d", num, fe, pos, len(datas[i]))
		}
		got := make([]byte, len(datas[i]))
		b.ReadFileAt(num, got, 0)
		if !bytes.Equal(got, datas[i]) {
			t.Errorf("file %d data mismatch", num)
		}
		pos += fe.Len
	}
	// Removing a grouped member must not free the space.
	valid := drive.ValidBytes()
	b.Remove(11)
	if drive.ValidBytes() != valid {
		t.Error("removing a set member freed drive space early")
	}
	// Freeing the group extent releases it.
	if err := b.FreeExtent(ext); err != nil {
		t.Fatal(err)
	}
	if drive.ValidBytes() != valid-10000 {
		t.Errorf("FreeExtent released %d bytes, want 10000", valid-drive.ValidBytes())
	}
}

// TestWriteGroupUnwindsOnFailure: a group write that fails on its
// second member must leave nothing behind — no mapping for the member
// already written and no valid byte on the drive — and hand the extent
// back to the allocator only when it could retire that validity: a raw
// drive refuses, for ever, to write where the allocator says free and
// it says valid. A drive that is down cannot retire anything, so there
// the extent stays allocated for the next open's reconciliation.
func TestWriteGroupUnwindsOnFailure(t *testing.T) {
	nums := []uint64{10, 11, 12}
	datas := [][]byte{make([]byte, 3000), make([]byte, 5000), make([]byte, 2000)}
	for _, powerCut := range []bool{false, true} {
		disk := platter.New(platter.DefaultConfig(16 << 20))
		raw := smr.NewRaw(disk, 4096)
		fd := faultfs.New(raw, 1)
		mgr := dband.New(disk.Capacity(), 4096, 4096)
		b := NewBackend(fd, NewDynamicBandAllocator(mgr))
		if err := b.WriteFile(1, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		valid, alloc := raw.ValidBytes(), mgr.AllocatedBytes()
		if powerCut {
			fd.CutAtWrite(2)
		} else {
			fd.Inject(faultfs.Rule{Op: faultfs.OpWrite, After: 2, Count: 1})
		}
		if _, err := b.WriteGroup(nums, datas); err == nil {
			t.Fatalf("power cut %v: group write with a failing second member succeeded", powerCut)
		}
		for _, num := range nums {
			if _, err := b.FileExtent(num); !errors.Is(err, ErrNotFound) {
				t.Errorf("power cut %v: member %d still mapped after the failed group write (%v)", powerCut, num, err)
			}
		}
		retired := raw.ValidBytes() == valid
		if retired == powerCut {
			t.Errorf("power cut %v: drive holds %d valid bytes, %d before the group", powerCut, raw.ValidBytes(), valid)
		}
		if freed := mgr.AllocatedBytes() == alloc; freed != retired {
			t.Errorf("power cut %v: extent back with the allocator %v, validity retired %v", powerCut, freed, retired)
		}
		if powerCut {
			continue
		}
		// The space is usable again: the same group lands where it failed.
		if _, err := b.WriteGroup(nums, datas); err != nil {
			t.Errorf("group write after the unwound one: %v", err)
		}
	}
}

func TestAppendFile(t *testing.T) {
	b, _, _ := newRawBackend(t)
	f, err := b.CreateAppend(99, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 20; i++ {
		chunk := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
		want = append(want, chunk...)
	}
	if f.Size() != int64(len(want)) {
		t.Errorf("size %d, want %d", f.Size(), len(want))
	}
	got := make([]byte, len(want))
	if _, err := b.ReadFileAt(99, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("append data mismatch")
	}

	// Reopen and continue appending.
	f2, err := b.ReopenAppend(99, f.Size())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, len(want)+4)
	b.ReadFileAt(99, got2, 0)
	if string(got2[len(want):]) != "tail" {
		t.Error("continued append lost")
	}
}

// TestReopenAppendOverACutTail: on a raw drive, reopening an append
// file below its logical size retires the tail's validity, so a write
// over the cut tail passes the drive's overlap check, reads back, and
// costs no extra media write.
func TestReopenAppendOverACutTail(t *testing.T) {
	b, _, drive := newRawBackend(t)
	f, err := b.CreateAppend(1, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	head := bytes.Repeat([]byte("whole!"), 500)
	if _, err := f.Write(append(head, bytes.Repeat([]byte("torn"), 250)...)); err != nil {
		t.Fatal(err)
	}
	f2, err := b.ReopenAppend(1, int64(len(head)))
	if err != nil {
		t.Fatal(err)
	}
	if size, _ := b.FileSize(1); size != int64(len(head)) {
		t.Fatalf("logical size %d after reopen, want %d", size, len(head))
	}
	tail := bytes.Repeat([]byte("new!"), 300)
	if _, err := f2.Write(tail); err != nil {
		t.Fatalf("write over the cut tail: %v", err)
	}
	res, err := b.ReadReserved(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(head, tail...); !bytes.Equal(res[:len(want)], want) {
		t.Fatal("reopened file does not read back as head + new tail")
	}
	if awa := smr.AWA(drive); awa != 1.0 {
		t.Fatalf("AWA = %v, want exactly 1.0", awa)
	}
	if _, err := b.ReopenAppend(1, 1<<16+1); err == nil {
		t.Fatal("reopen past the reservation accepted")
	}
	if _, err := b.ReopenAppend(2, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("reopening an unknown file: %v, want ErrNotFound", err)
	}
}

func TestAppendFileCapacity(t *testing.T) {
	b, _, _ := newRawBackend(t)
	f, _ := b.CreateAppend(1, 100)
	if _, err := f.Write(make([]byte, 101)); err == nil {
		t.Error("overflowing append accepted")
	}
}

func TestBandAllocatorDedicatedBands(t *testing.T) {
	disk := platter.New(platter.DefaultConfig(16 << 20))
	drive := smr.NewFixedBand(disk, 1<<20)
	a := NewBandAllocator(drive)
	e1, err := a.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := a.Alloc(100)
	if e1.Off%(1<<20) != 0 || e2.Off%(1<<20) != 0 {
		t.Error("extents not band aligned")
	}
	if e1.Off == e2.Off {
		t.Error("two files share a band")
	}
	// A request larger than a band takes a run of consecutive fresh
	// bands (metadata files), still band aligned.
	big, err := a.Alloc(1<<20 + 1)
	if err != nil {
		t.Fatalf("multi-band alloc: %v", err)
	}
	if big.Off%(1<<20) != 0 {
		t.Error("multi-band extent not band aligned")
	}
	following, _ := a.Alloc(100)
	if following.Off < big.Off+2*(1<<20) && following.Off >= big.Off {
		t.Errorf("allocation %v landed inside multi-band run starting at %d", following, big.Off)
	}

	// Write a full band, free it, and rewrite: no RMW thanks to the
	// band reset.
	if _, err := drive.WriteAt(make([]byte, 1<<20), e1.Off); err != nil {
		t.Fatal(err)
	}
	a.Free(e1)
	e3, _ := a.Alloc(1 << 20)
	if e3.Off != e1.Off {
		t.Errorf("band not recycled: %v", e3)
	}
	if _, err := drive.WriteAt(make([]byte, 1<<20), e3.Off); err != nil {
		t.Fatal(err)
	}
	if drive.RMWCount() != 0 {
		t.Errorf("band rewrite after reset caused %d RMWs", drive.RMWCount())
	}
	if awa := smr.AWA(drive); awa != 1.0 {
		t.Errorf("AWA = %v, want 1.0 for dedicated bands", awa)
	}
}

func TestBandAllocatorExhaustion(t *testing.T) {
	disk := platter.New(platter.DefaultConfig(8 << 20))
	drive := smr.NewFixedBand(disk, 1<<20)
	a := NewBandAllocator(drive)
	bands := drive.Capacity() / (1 << 20) // media cache shrinks the usable space
	for i := int64(0); i < bands; i++ {
		if _, err := a.Alloc(10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Alloc(10); err != ErrNoSpace {
		t.Errorf("err = %v, want ErrNoSpace", err)
	}
}

func TestDynamicAllocatorSetsAWAOne(t *testing.T) {
	b, _, drive := newRawBackend(t)
	rng := rand.New(rand.NewSource(3))
	var num uint64
	live := map[uint64]int{}
	for i := 0; i < 300; i++ {
		num++
		data := make([]byte, 1024+rng.Intn(8192))
		if err := b.WriteFile(num, data); err != nil {
			t.Fatalf("write %d: %v", num, err)
		}
		live[num] = len(data)
		if len(live) > 20 {
			for k := range live {
				b.Remove(k)
				delete(live, k)
				break
			}
		}
	}
	if awa := smr.AWA(drive); awa != 1.0 {
		t.Errorf("AWA = %v, want exactly 1.0", awa)
	}
}

// TestSealAppendReleasesTheTailOnARawDrive: sealing an append file on a
// write-anywhere drive gives its unused reservation and its guard back,
// a table inserted there lands right after the file's last byte, and
// the file still reads back whole with AWA exactly 1.
func TestSealAppendReleasesTheTailOnARawDrive(t *testing.T) {
	b, mgr, drive := newRawBackend(t)
	f, err := b.CreateAppend(1, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("segment!"), 375) // 3,000 bytes
	if _, err := f.Write(want); err != nil {
		t.Fatal(err)
	}
	// A neighbour after the reservation keeps the released tail a hole
	// instead of folding it into the frontier.
	if err := b.WriteFile(2, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	ext, _ := b.FileExtent(1)
	before := mgr.AllocatedBytes()
	if err := b.SealAppend(1); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.FileExtent(1); got != (Extent{Off: ext.Off, Len: int64(len(want))}) {
		t.Fatalf("sealed extent %v, want [%d,+%d)", got, ext.Off, len(want))
	}
	if res, _ := b.ReadReserved(1); len(res) != len(want) {
		t.Fatalf("sealed reservation %d, want %d", len(res), len(want))
	}
	if freed := before - mgr.AllocatedBytes(); freed != ext.Len-int64(len(want)) {
		t.Fatalf("seal freed %d bytes, want %d", freed, ext.Len-int64(len(want)))
	}
	table := bytes.Repeat([]byte{0xAB}, 1<<15)
	if err := b.WriteFile(3, table); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.FileExtent(3); got.Off != ext.Off+int64(len(want)) {
		t.Fatalf("table placed at %v, want it at the sealed file's end %d", got, ext.Off+int64(len(want)))
	}
	got := make([]byte, len(want))
	if _, err := b.ReadFileAt(1, got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sealed file damaged by the table in its released tail")
	}
	if awa := smr.AWA(drive); awa != 1.0 {
		t.Fatalf("AWA = %v, want exactly 1.0", awa)
	}
	if err := b.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := b.SealAppend(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("sealing a removed file: %v, want ErrNotFound", err)
	}
}

// TestSealAppendKeepsABandedReservation: a banded drive has no guard,
// and freeing part of a band resets all of it, so sealing there changes
// nothing and the file's bytes survive the next allocation.
func TestSealAppendKeepsABandedReservation(t *testing.T) {
	disk := platter.New(platter.DefaultConfig(16 << 20))
	drive := smr.NewFixedBand(disk, 1<<20)
	b := NewBackend(drive, NewBandAllocator(drive))
	f, err := b.CreateAppend(1, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("segment!"), 375)
	if _, err := f.Write(want); err != nil {
		t.Fatal(err)
	}
	ext, _ := b.FileExtent(1)
	if err := b.SealAppend(1); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.FileExtent(1); got != ext {
		t.Fatalf("sealed extent %v, want the reservation %v", got, ext)
	}
	if res, _ := b.ReadReserved(1); len(res) != 1<<16 {
		t.Fatalf("sealed reservation %d, want %d", len(res), 1<<16)
	}
	if err := b.WriteFile(2, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := b.ReadFileAt(1, got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sealed file damaged on a banded drive")
	}
}
