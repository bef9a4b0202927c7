package version

import (
	"testing"
)

// TestRecoverManifestCutAtEveryBoundary: truncate the MANIFEST at
// every record boundary (and between boundaries, mid-record) and
// check that recovery lands exactly on the last complete edit.
func TestRecoverManifestCutAtEveryBoundary(t *testing.T) {
	const edits = 25
	backend := newTestBackend()
	s, err := Create(Config{Backend: backend, SortedLevel: allSorted})
	if err != nil {
		t.Fatal(err)
	}
	// boundaries[i] = manifest size after i edits (i=0: just the
	// creation snapshot). A cut in [boundaries[i], boundaries[i+1])
	// must recover exactly i applied edits.
	size0, err := backend.FileSize(s.ManifestNum())
	if err != nil {
		t.Fatal(err)
	}
	boundaries := []int64{size0}
	for i := 0; i < edits; i++ {
		num := s.NewFileNum()
		if _, err := s.LogAndApply(&Edit{Added: []AddedFile{{Level: 2, Meta: meta(num, key(i*2), key(i*2+1))}}}); err != nil {
			t.Fatal(err)
		}
		sz, err := backend.FileSize(s.ManifestNum())
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, sz)
	}
	manifest := s.ManifestNum()
	ext, err := backend.FileExtent(manifest)
	if err != nil {
		t.Fatal(err)
	}
	full := boundaries[len(boundaries)-1]
	disk := backend.Drive().Disk()

	// Walk the cut point from the end toward the start, zeroing the
	// platter tail past each cut — each trial only extends the
	// previous trial's damage, so no restore step is needed.
	type trial struct {
		cut       int64
		wantFiles int
		midRecord bool
	}
	var trials []trial
	for i := len(boundaries) - 1; i >= 1; i-- {
		trials = append(trials, trial{cut: boundaries[i], wantFiles: i})
		// A mid-record cut between boundary i-1 and i recovers i-1.
		mid := (boundaries[i-1] + boundaries[i]) / 2
		if mid > boundaries[i-1] && mid < boundaries[i] {
			trials = append(trials, trial{cut: mid, wantFiles: i - 1, midRecord: true})
		}
	}
	trials = append(trials, trial{cut: boundaries[0], wantFiles: 0})

	for _, tr := range trials {
		zero := make([]byte, full-tr.cut)
		if _, err := disk.WriteAt(zero, ext.Off+tr.cut); err != nil {
			t.Fatalf("cut %d: zeroing tail: %v", tr.cut, err)
		}
		r, report, err := Recover(Config{Backend: backend, SortedLevel: allSorted})
		if err != nil {
			t.Fatalf("cut %d: Recover failed: %v", tr.cut, err)
		}
		if got := r.Current().NumFiles(2); got != tr.wantFiles {
			t.Fatalf("cut %d: recovered %d files, want %d", tr.cut, got, tr.wantFiles)
		}
		// A mid-record cut leaves a torn frame the report must flag.
		// (Boundary cuts may look clean once an earlier trial has
		// already truncated the logical size to the same point.)
		if tr.midRecord && !report.TruncatedTail {
			t.Errorf("cut %d: report did not flag the torn record", tr.cut)
		}
	}

	// A cut inside the creation snapshot leaves nothing replayable:
	// that is the one case recovery must refuse.
	zero := make([]byte, full-boundaries[0]/2)
	if _, err := disk.WriteAt(zero, ext.Off+boundaries[0]/2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(Config{Backend: backend, SortedLevel: allSorted}); err == nil {
		t.Fatal("recovery with no complete edit accepted")
	}
}

// TestRecoverResumesAfterTruncatedTail: after recovering from a torn
// manifest tail, the set must keep logging edits and survive another
// recovery — the resumed writer and the truncated file agree on
// framing.
func TestRecoverResumesAfterTruncatedTail(t *testing.T) {
	backend := newTestBackend()
	s, err := Create(Config{Backend: backend, SortedLevel: allSorted})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		num := s.NewFileNum()
		if _, err := s.LogAndApply(&Edit{Added: []AddedFile{{Level: 2, Meta: meta(num, key(i*2), key(i*2+1))}}}); err != nil {
			t.Fatal(err)
		}
	}
	manifest := s.ManifestNum()
	size, _ := backend.FileSize(manifest)
	ext, _ := backend.FileExtent(manifest)
	// Tear the last record: scribble over its final 3 bytes (the
	// encoded edit may end in zeros, so zeroing would not damage it).
	disk := backend.Drive().Disk()
	disk.WriteAt([]byte{0xff, 0xff, 0xff}, ext.Off+size-3)

	r, report, err := Recover(Config{Backend: backend, SortedLevel: allSorted})
	if err != nil {
		t.Fatal(err)
	}
	if !report.TruncatedTail {
		t.Error("torn tail not reported")
	}
	if got := r.Current().NumFiles(2); got != 9 {
		t.Fatalf("recovered %d files, want 9", got)
	}
	// Log a new edit over the truncated tail and recover again.
	num := r.NewFileNum()
	if _, err := r.LogAndApply(&Edit{Added: []AddedFile{{Level: 2, Meta: meta(num, key(100), key(101))}}}); err != nil {
		t.Fatalf("logging after truncation: %v", err)
	}
	r2, _, err := Recover(Config{Backend: backend, SortedLevel: allSorted})
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Current().NumFiles(2); got != 10 {
		t.Fatalf("second recovery got %d files, want 10", got)
	}
}

// TestRecoverCorruptManifest: damage in the MANIFEST must yield a
// clean error (or a consistent prefix), never a panic or silent
// garbage.
func TestRecoverCorruptManifest(t *testing.T) {
	backend := newTestBackend()
	s, err := Create(Config{Backend: backend, SortedLevel: allSorted})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		num := s.NewFileNum()
		lo := key(i * 2)
		hi := key(i*2 + 1)
		if _, err := s.LogAndApply(&Edit{Added: []AddedFile{{Level: 2, Meta: meta(num, lo, hi)}}}); err != nil {
			t.Fatal(err)
		}
	}
	manifest := s.ManifestNum()
	size, _ := backend.FileSize(manifest)
	ext, _ := backend.FileExtent(manifest)

	// Flip bytes throughout the manifest body via the drive and try
	// recovery each time.
	for _, off := range []int64{10, size / 3, size / 2, size - 10} {
		if off >= size {
			continue
		}
		// Corrupt (read-modify the platter content directly).
		disk := backend.Drive().Disk()
		orig := make([]byte, 4)
		disk.ReadAt(orig, ext.Off+off)
		disk.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, ext.Off+off)

		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("offset %d: Recover panicked: %v", off, r)
				}
			}()
			r, _, err := Recover(Config{Backend: backend, SortedLevel: allSorted})
			if err == nil && r.Current().TotalFiles() > 50 {
				t.Fatalf("offset %d: corrupt manifest produced %d files", off, r.Current().TotalFiles())
			}
		}()

		// Restore for the next trial.
		disk.WriteAt(orig, ext.Off+off)
	}

	// Untouched again: recovery works.
	r, _, err := Recover(Config{Backend: backend, SortedLevel: allSorted})
	if err != nil {
		t.Fatal(err)
	}
	if r.Current().NumFiles(2) != 50 {
		t.Fatalf("restored manifest recovered %d files", r.Current().NumFiles(2))
	}
}
