package platter

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func testDisk(capacity int64) *Disk {
	cfg := DefaultConfig(capacity)
	cfg.ChunkSize = 4096
	return New(cfg)
}

func TestReadBackWrites(t *testing.T) {
	d := testDisk(1 << 20)
	data := []byte("hello shingles")
	if _, err := d.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	d := testDisk(1 << 20)
	p := []byte{1, 2, 3, 4}
	if _, err := d.ReadAt(p, 5000); err != nil {
		t.Fatal(err)
	}
	for _, b := range p {
		if b != 0 {
			t.Fatalf("unwritten space read nonzero: %v", p)
		}
	}
}

func TestCrossChunkWriteRead(t *testing.T) {
	d := testDisk(1 << 20)
	data := make([]byte, 10000) // crosses several 4 KiB chunks
	rand.New(rand.NewSource(7)).Read(data)
	off := int64(4096*2 - 17)
	if _, err := d.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-chunk data mismatch")
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	d := testDisk(1 << 20)
	if _, err := d.WriteAt(make([]byte, 10), 1<<20-5); err == nil {
		t.Error("write past capacity not rejected")
	}
	if _, err := d.ReadAt(make([]byte, 10), -1); err == nil {
		t.Error("negative offset not rejected")
	}
}

func TestSequentialAccessAvoidsSeek(t *testing.T) {
	d := testDisk(1 << 20)
	buf := make([]byte, 4096)
	d.WriteAt(buf, 0)    // first access: one seek
	d.WriteAt(buf, 4096) // contiguous: no seek
	d.WriteAt(buf, 8192) // contiguous: no seek
	if s := d.Stats().Seeks; s != 1 {
		t.Errorf("sequential writes: %d seeks, want 1", s)
	}
	d.WriteAt(buf, 0) // jump back: seek
	if s := d.Stats().Seeks; s != 2 {
		t.Errorf("after jump: %d seeks, want 2", s)
	}
}

func TestTimeModelRatios(t *testing.T) {
	// Streaming 64 MiB should be vastly cheaper per byte than random
	// 4 KiB accesses, and the modeled random-read rate should land
	// near Table II's ~70 IOPS.
	d := testDisk(256 << 20)
	buf := make([]byte, 1<<20)
	var seqTime time.Duration
	for i := int64(0); i < 64; i++ {
		dt, err := d.WriteAt(buf, i*int64(len(buf)))
		if err != nil {
			t.Fatal(err)
		}
		seqTime += dt
	}
	seqBps := float64(64<<20) / seqTime.Seconds()
	if seqBps < 100e6 || seqBps > 160e6 {
		t.Errorf("sequential write bandwidth %.1f MB/s outside [100,160]", seqBps/1e6)
	}

	small := make([]byte, 4096)
	var randTime time.Duration
	rng := rand.New(rand.NewSource(3))
	const n = 200
	for i := 0; i < n; i++ {
		off := int64(rng.Intn(50000)) * 4096
		dt, err := d.ReadAt(small, off)
		if err != nil {
			t.Fatal(err)
		}
		randTime += dt
	}
	iops := float64(n) / randTime.Seconds()
	if iops < 50 || iops > 90 {
		t.Errorf("random 4K read rate %.1f IOPS outside [50,90] (Table II ~70)", iops)
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := testDisk(1 << 20)
	d.WriteAt(make([]byte, 100), 0)
	d.ReadAt(make([]byte, 40), 0)
	s := d.Stats()
	if s.WriteOps != 1 || s.ReadOps != 1 || s.BytesWritten != 100 || s.BytesRead != 40 {
		t.Errorf("unexpected stats: %+v", s)
	}
	if s.BusyTime <= 0 {
		t.Error("busy time not accumulated")
	}
	d.ResetStats()
	if s := d.Stats(); s != (Stats{}) {
		t.Errorf("ResetStats left %+v", s)
	}
}

// recordingSink keeps every access it is shown.
type recordingSink struct{ seen []AccessInfo }

func (r *recordingSink) ObserveAccess(ai AccessInfo) { r.seen = append(r.seen, ai) }

// TestSinkSlot: the disk has one sink slot. An installed sink sees
// every access, a second SetSink replaces it, and a nil one removes it.
func TestSinkSlot(t *testing.T) {
	d := testDisk(1 << 20)
	a, b := &recordingSink{}, &recordingSink{}
	d.SetSink(a)
	d.WriteAt(make([]byte, 10), 512)
	d.ReadAt(make([]byte, 5), 512)
	if len(a.seen) != 2 {
		t.Fatalf("sink saw %d accesses, want 2", len(a.seen))
	}
	if w := a.seen[0]; !w.Write || w.Offset != 512 || w.Length != 10 || !w.Seek || w.ServiceNS <= 0 {
		t.Errorf("bad write entry: %+v", w)
	}
	if r := a.seen[1]; r.Write || r.Offset != 512 || r.Length != 5 {
		t.Errorf("bad read entry: %+v", r)
	}
	// Installing another sink replaces the first.
	d.SetSink(b)
	d.WriteAt(make([]byte, 1), 0)
	if len(a.seen) != 2 || len(b.seen) != 1 {
		t.Errorf("after replacing: a saw %d (want 2), b saw %d (want 1)", len(a.seen), len(b.seen))
	}
	// A nil sink empties the slot.
	d.SetSink(nil)
	d.WriteAt(make([]byte, 1), 0)
	if len(b.seen) != 1 {
		t.Errorf("after removing: b saw %d (want 1)", len(b.seen))
	}
}

func TestSparseFootprint(t *testing.T) {
	cfg := DefaultConfig(1 << 30)
	cfg.ChunkSize = 1 << 16
	d := New(cfg)
	d.WriteAt(make([]byte, 100), 0)
	d.WriteAt(make([]byte, 100), 1<<29)
	if fp := d.MemoryFootprint(); fp > 4*(1<<16) {
		t.Errorf("footprint %d for two tiny writes on a 1 GiB disk", fp)
	}
}

func TestRandomWritesReadBack(t *testing.T) {
	// Property: a sequence of random (possibly overlapping) writes
	// reads back identically to the same writes applied to a plain
	// byte slice.
	f := func(ops []struct {
		Off  uint16
		Data []byte
	}) bool {
		const capacity = 1 << 17
		d := testDisk(capacity)
		ref := make([]byte, capacity)
		for _, op := range ops {
			if len(op.Data) == 0 {
				continue
			}
			off := int64(op.Off)
			if off+int64(len(op.Data)) > capacity {
				continue
			}
			if _, err := d.WriteAt(op.Data, off); err != nil {
				return false
			}
			copy(ref[off:], op.Data)
		}
		got := make([]byte, capacity)
		if _, err := d.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
