package version

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"sealdb/internal/dband"
	"sealdb/internal/kv"
	"sealdb/internal/platter"
	"sealdb/internal/smr"
	"sealdb/internal/storage"
)

func ik(u string, seq kv.SeqNum) kv.InternalKey {
	return kv.MakeInternalKey(nil, []byte(u), seq, kv.KindSet)
}

func meta(num uint64, lo, hi string) *FileMeta {
	return &FileMeta{Num: num, Size: 100, Smallest: ik(lo, 100), Largest: ik(hi, 1)}
}

func allSorted(int) bool { return true }

// fullEdit sets every field Encode writes.
func fullEdit() *Edit {
	return &Edit{
		HasLogNum: true, LogNum: 42,
		HasNextFile: true, NextFileNum: 99,
		HasLastSeq: true, LastSeq: 12345,
		CompactPointers: []CompactPointer{{Level: 2, Key: ik("ptr", 5)}},
		Deleted:         []DeletedFile{{Level: 1, Num: 7}, {Level: 3, Num: 8}},
		Added: []AddedFile{
			{Level: 2, Meta: &FileMeta{Num: 10, Size: 4096, SetID: 3, Smallest: ik("a", 9), Largest: ik("m", 2)}},
		},
		NewVlogSegs:  []uint64{21},
		SealVlogSegs: []VlogSegRecord{{Num: 19, Bytes: 8192, Overhead: 170}, {Num: 20, Bytes: 4000}},
		VlogDead:     []VlogDeadRecord{{Num: 19, Dead: 1234}},
		DropVlogSegs: []uint64{17},
		HasVlogHead:  true, VlogHead: VlogPos{Seg: 20, Off: 3210},
	}
}

func TestEditEncodeDecodeRoundTrip(t *testing.T) {
	e := fullEdit()
	got, err := DecodeEdit(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

func TestDecodeEditErrors(t *testing.T) {
	if _, err := DecodeEdit([]byte{0xff}); err == nil {
		t.Error("truncated varint accepted")
	}
	if _, err := DecodeEdit([]byte{99}); err == nil {
		t.Error("unknown tag accepted")
	}
	if _, err := DecodeEdit([]byte{tagVlogOverhead, 9}); err == nil {
		t.Error("vlog overhead record without its seal accepted")
	}
	// Truncated bytes field in a compact pointer.
	bad := (&Edit{CompactPointers: []CompactPointer{{Level: 1, Key: ik("abcdef", 1)}}}).Encode()
	if _, err := DecodeEdit(bad[:len(bad)-3]); err == nil {
		t.Error("truncated key accepted")
	}
	// A bytes field claiming 1<<63 bytes: the length must not wrap the
	// bounds check negative and panic.
	huge := binary.AppendUvarint([]byte{tagCompactPointer, 1}, 1<<63)
	if _, err := DecodeEdit(append(huge, "abcdef"...)); err == nil {
		t.Error("key of 1<<63 bytes accepted")
	}
}

// FuzzDecodeEdit: no record panics the decoder, and an edit it accepts
// re-encodes to bytes that decode back to the same encoding.
func FuzzDecodeEdit(f *testing.F) {
	m := meta(7, "a", "b")
	m.SetID = 7
	for _, e := range []*Edit{
		fullEdit(),
		{CompactPointers: []CompactPointer{{Level: 1, Key: ik("abcdef", 1)}}},
		{HasLastSeq: true, LastSeq: 500, HasLogNum: true, LogNum: 77, Added: []AddedFile{{Level: 0, Meta: meta(3, "a", "m")}}},
		{NewSets: []SetRecord{{ID: 7, Off: 4096, Len: 8192, Members: 2}}, Added: []AddedFile{{Level: 3, Meta: m}}},
		{Deleted: []DeletedFile{{Level: 3, Num: 7}}, DropSets: []uint64{7}},
		{NewVlogSegs: []uint64{5, 6}, SealVlogSegs: []VlogSegRecord{{Num: 5, Bytes: 5000, Overhead: 120}}, HasVlogHead: true, VlogHead: VlogPos{Seg: 3, Off: 777}},
		{VlogDead: []VlogDeadRecord{{Num: 5, Dead: 600}}, DropVlogSegs: []uint64{5}},
	} {
		f.Add(e.Encode())
	}
	f.Add([]byte{0xff})
	f.Add([]byte{99})
	f.Add([]byte{tagVlogOverhead, 9})
	f.Fuzz(func(t *testing.T, p []byte) {
		e, err := DecodeEdit(p)
		if err != nil {
			return
		}
		enc := e.Encode()
		again, err := DecodeEdit(enc)
		if err != nil {
			t.Fatalf("re-encoded edit does not decode: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("re-encoding changed the bytes:\n got %x\nwant %x", again.Encode(), enc)
		}
	})
}

func TestApplyAddDelete(t *testing.T) {
	v := &Version{}
	e1 := &Edit{Added: []AddedFile{
		{Level: 1, Meta: meta(5, "m", "p")},
		{Level: 1, Meta: meta(4, "a", "c")},
		{Level: 0, Meta: meta(7, "a", "z")},
		{Level: 0, Meta: meta(6, "b", "x")},
	}}
	v2, err := e1.Apply(v)
	if err != nil {
		t.Fatal(err)
	}
	// L1 sorted by smallest, L0 by file number.
	if v2.Files[1][0].Num != 4 || v2.Files[1][1].Num != 5 {
		t.Errorf("L1 order: %v", v2.Files[1])
	}
	if v2.Files[0][0].Num != 6 || v2.Files[0][1].Num != 7 {
		t.Errorf("L0 order: %v", v2.Files[0])
	}
	if err := v2.CheckInvariants(allSorted); err != nil {
		t.Fatal(err)
	}
	// Original untouched.
	if v.TotalFiles() != 0 {
		t.Error("Apply mutated its input")
	}

	e2 := &Edit{Deleted: []DeletedFile{{Level: 1, Num: 4}}}
	v3, err := e2.Apply(v2)
	if err != nil {
		t.Fatal(err)
	}
	if v3.NumFiles(1) != 1 || v3.Files[1][0].Num != 5 {
		t.Errorf("delete failed: %v", v3.Files[1])
	}
	// Deleting a missing file errors.
	if _, err := e2.Apply(v3); err == nil {
		t.Error("double delete accepted")
	}
}

func TestOverlapsSortedLevel(t *testing.T) {
	v := &Version{}
	v.Files[2] = []*FileMeta{
		meta(1, "a", "c"),
		meta(2, "e", "g"),
		meta(3, "i", "k"),
		meta(4, "m", "o"),
	}
	cases := []struct {
		lo, hi string
		want   []uint64
	}{
		{"b", "b", []uint64{1}},
		{"c", "e", []uint64{1, 2}},
		{"d", "d", nil},
		{"a", "z", []uint64{1, 2, 3, 4}},
		{"j", "n", []uint64{3, 4}},
		{"p", "z", nil},
	}
	for _, c := range cases {
		got := v.Overlaps(2, []byte(c.lo), []byte(c.hi), true)
		var nums []uint64
		for _, f := range got {
			nums = append(nums, f.Num)
		}
		if !reflect.DeepEqual(nums, c.want) {
			t.Errorf("Overlaps(%q,%q) = %v, want %v", c.lo, c.hi, nums, c.want)
		}
	}
	// Unbounded queries.
	if got := v.Overlaps(2, nil, nil, true); len(got) != 4 {
		t.Errorf("unbounded overlap returned %d files", len(got))
	}
	if got := v.Overlaps(2, []byte("f"), nil, true); len(got) != 3 {
		t.Errorf("lower-bounded overlap returned %d files", len(got))
	}
}

func TestOverlapsUnsortedLevel(t *testing.T) {
	v := &Version{}
	// Overlapping files, as in the SMRDB baseline's level 1.
	v.Files[1] = []*FileMeta{
		meta(1, "a", "m"),
		meta(2, "c", "z"),
		meta(3, "x", "z"),
	}
	got := v.Overlaps(1, []byte("b"), []byte("d"), false)
	if len(got) != 2 {
		t.Errorf("overlapped-level query returned %d files, want 2", len(got))
	}
}

func TestCheckInvariantsCatchesOverlap(t *testing.T) {
	v := &Version{}
	v.Files[1] = []*FileMeta{meta(1, "a", "f"), meta(2, "c", "k")}
	if err := v.CheckInvariants(allSorted); err == nil {
		t.Error("overlap not detected")
	}
	if err := v.CheckInvariants(func(int) bool { return false }); err != nil {
		t.Errorf("overlapped mode should accept: %v", err)
	}
}

func newTestBackend() *storage.Backend {
	disk := platter.New(platter.DefaultConfig(64 << 20))
	drive := smr.NewRaw(disk, 4096)
	mgr := dband.New(disk.Capacity(), 4096, 4096)
	return storage.NewBackend(drive, storage.NewDynamicBandAllocator(mgr))
}

func TestSetCreateLogRecover(t *testing.T) {
	backend := newTestBackend()
	s, err := Create(Config{Backend: backend, SortedLevel: allSorted})
	if err != nil {
		t.Fatal(err)
	}
	// Issue numbers, add files over several edits.
	f1 := s.NewFileNum()
	e1 := &Edit{
		HasLastSeq: true, LastSeq: 500,
		HasLogNum: true, LogNum: 77,
		Added: []AddedFile{{Level: 0, Meta: meta(f1, "a", "m")}},
	}
	if _, err := s.LogAndApply(e1); err != nil {
		t.Fatal(err)
	}
	f2 := s.NewFileNum()
	e2 := &Edit{
		Added:           []AddedFile{{Level: 1, Meta: meta(f2, "n", "z")}},
		CompactPointers: []CompactPointer{{Level: 1, Key: ik("n", 1)}},
	}
	if _, err := s.LogAndApply(e2); err != nil {
		t.Fatal(err)
	}

	r, _, err := Recover(Config{Backend: backend, SortedLevel: allSorted})
	if err != nil {
		t.Fatal(err)
	}
	if r.LastSeq() != 500 {
		t.Errorf("lastSeq %d, want 500", r.LastSeq())
	}
	if r.LogNum() != 77 {
		t.Errorf("logNum %d, want 77", r.LogNum())
	}
	cur := r.Current()
	if cur.NumFiles(0) != 1 || cur.Files[0][0].Num != f1 {
		t.Errorf("L0 after recovery: %v", cur.Files[0])
	}
	if cur.NumFiles(1) != 1 || cur.Files[1][0].Num != f2 {
		t.Errorf("L1 after recovery: %v", cur.Files[1])
	}
	if string(r.CompactPointer(1).UserKey()) != "n" {
		t.Errorf("compact pointer lost: %v", r.CompactPointer(1))
	}
	// New file numbers do not collide with recovered ones.
	if n := r.NewFileNum(); n <= f2 {
		t.Errorf("file number %d collides (f2=%d)", n, f2)
	}

	// The recovered set can continue logging and recover again.
	f3 := r.NewFileNum()
	if _, err := r.LogAndApply(&Edit{Added: []AddedFile{{Level: 2, Meta: meta(f3, "q", "r")}}}); err != nil {
		t.Fatal(err)
	}
	r2, _, err := Recover(Config{Backend: backend, SortedLevel: allSorted})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Current().NumFiles(2) != 1 {
		t.Error("edit after recovery lost")
	}
}

func TestManifestRotation(t *testing.T) {
	backend := newTestBackend()
	s, err := Create(Config{Backend: backend, ManifestSize: 16 << 10, SortedLevel: allSorted})
	if err != nil {
		t.Fatal(err)
	}
	first := s.ManifestNum()
	// Value-log state the rotation's snapshot has to carry over.
	vlogState := &Edit{
		NewVlogSegs: []uint64{s.NewFileNum(), s.NewFileNum()},
		HasVlogHead: true, VlogHead: VlogPos{Seg: 3, Off: 777},
	}
	vlogState.SealVlogSegs = []VlogSegRecord{{Num: vlogState.NewVlogSegs[0], Bytes: 5000, Overhead: 120}}
	if _, err := s.LogAndApply(vlogState); err != nil {
		t.Fatal(err)
	}
	// Push enough edits to overflow a 16 KiB manifest.
	var lastAdded uint64
	for i := 0; i < 400; i++ {
		num := s.NewFileNum()
		lo := fmt.Sprintf("k%06d", i*2)
		hi := fmt.Sprintf("k%06d", i*2+1)
		e := &Edit{Added: []AddedFile{{Level: 2, Meta: meta(num, lo, hi)}}}
		if i > 0 {
			e.Deleted = []DeletedFile{{Level: 2, Num: lastAdded}}
		}
		lastAdded = num
		if _, err := s.LogAndApply(e); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
	}
	if s.ManifestNum() == first {
		t.Fatal("manifest never rotated")
	}
	r, _, err := Recover(Config{Backend: backend, SortedLevel: allSorted})
	if err != nil {
		t.Fatal(err)
	}
	if r.Current().NumFiles(2) != 1 || r.Current().Files[2][0].Num != lastAdded {
		t.Errorf("state after rotation: %v", r.Current().Files[2])
	}
	sealed, active := vlogState.NewVlogSegs[0], vlogState.NewVlogSegs[1]
	if got := r.VlogSegs(); r.VlogHead() != vlogState.VlogHead || len(got) != 2 ||
		got[0] != (VlogSeg{Num: sealed, Bytes: 5000, Overhead: 120, Sealed: true}) || got[1] != (VlogSeg{Num: active}) {
		t.Errorf("vlog state after rotation: head %+v, segments %+v", r.VlogHead(), got)
	}
}

func TestRecoverMissingCurrent(t *testing.T) {
	backend := newTestBackend()
	if _, _, err := Recover(Config{Backend: backend, SortedLevel: allSorted}); err == nil {
		t.Error("recovery with no CURRENT accepted")
	}
}
