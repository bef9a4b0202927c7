package dband

import "testing"

// TestPaperFigure7Sequence replays the paper's Figure 7 walkthrough
// at its original sizes (4 MiB guard, sets of 16/24/20/12/4/8 MiB)
// and checks each intermediate on-disk state.
func TestPaperFigure7Sequence(t *testing.T) {
	const mb = 1 << 20
	m := New(1<<30, 4*mb, 4*mb)

	// (1) Three sets appended sequentially.
	set1, ins, err := m.Alloc(16 * mb)
	if err != nil || ins {
		t.Fatalf("set1: %v ins=%v", err, ins)
	}
	set2, _, _ := m.Alloc(24 * mb)
	set3, _, _ := m.Alloc(20 * mb)
	if set2.Off != 16*mb || set3.Off != 40*mb {
		t.Fatalf("appends not sequential: %v %v", set2, set3)
	}

	// (2) Sets 1 and 3 compact: freed, regenerated sets appended.
	m.Free(set1)
	set1b, ins, _ := m.Alloc(16 * mb)
	if ins {
		// A 16 MiB insert into the 16 MiB hole would need a guard on
		// top (Equation 1), so it must append instead.
		t.Fatalf("set1' inserted into an exact-size hole: %v", set1b)
	}
	if set1b.Off != 60*mb {
		t.Fatalf("set1' at %v, want appended at 60 MiB", set1b)
	}
	m.Free(set3)
	set3b, _, _ := m.Alloc(20 * mb)
	if set3b.Off != 76*mb {
		t.Fatalf("set3' at %v", set3b)
	}

	// (3) Set 4 (12 MiB) inserts into set 1's old 16 MiB hole,
	// splitting it into data plus exactly one guard region.
	set4, ins, _ := m.Alloc(12 * mb)
	if !ins || set4.Off != 0 {
		t.Fatalf("set4: %v ins=%v", set4, ins)
	}
	if free := m.FreeRegions(); len(free) < 1 || free[0] != (Extent{Off: 12 * mb, Len: 4 * mb}) {
		t.Fatalf("guard remainder missing: %v", free)
	}

	// (4) Undo and redo with a 4 MiB set 4: the remaining 12 MiB
	// region then serves an 8 MiB set 5 with only one gap before
	// set 2.
	m.Free(set4)
	set4, _, _ = m.Alloc(4 * mb)
	if set4.Off != 0 {
		t.Fatalf("small set4 at %v", set4)
	}
	set5, ins, _ := m.Alloc(8 * mb)
	if !ins || set5.Off != 4*mb {
		t.Fatalf("set5: %v ins=%v, want inserted right after set4", set5, ins)
	}
	// Free space now: the 4 MiB gap before set 2 and set 3's old hole.
	if free := m.FreeRegions(); len(free) != 2 ||
		free[0] != (Extent{Off: 12 * mb, Len: 4 * mb}) || free[1] != (Extent{Off: 40 * mb, Len: 20 * mb}) {
		t.Fatalf("after set5, free regions: %v", free)
	}

	// (5) Set 1' dies: its space coalesces with the free region
	// between set 3's old space... here, with the hole left by set 3.
	m.Free(set1b)
	var found bool
	for _, f := range m.FreeRegions() {
		if f == (Extent{Off: 40 * mb, Len: 36 * mb}) {
			found = true // set3's old 20 MiB + set1's 16 MiB coalesced
		}
	}
	if !found {
		t.Fatalf("coalesce of set3-hole and set1' missing: %v", m.FreeRegions())
	}

	// (6) The resulting dynamic bands: valid runs of varying sizes.
	bands := m.Bands()
	if len(bands) < 3 {
		t.Fatalf("expected several dynamic bands, got %v", bands)
	}
	// Set 2 (24 MiB at 16 MiB) must be an intact band region.
	if bands[1] != (Extent{Off: 16 * mb, Len: 24 * mb}) {
		t.Fatalf("band holding set 2: %v", bands[1])
	}
}
