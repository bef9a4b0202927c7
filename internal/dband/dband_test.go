package dband

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sealdb/internal/platter"
	"sealdb/internal/smr"
)

const (
	tUnit  = 1024 // one "SSTable"
	tGuard = 1024
	tCap   = 1 << 20
)

func newMgr() *Manager { return New(tCap, tUnit, tGuard) }

func TestAppendsAreContiguous(t *testing.T) {
	m := newMgr()
	var pos int64
	for i := 0; i < 10; i++ {
		e, inserted, err := m.Alloc(3000)
		if err != nil {
			t.Fatal(err)
		}
		if inserted {
			t.Fatal("fresh manager should append, not insert")
		}
		if e.Off != pos || e.Len != 3000 {
			t.Fatalf("alloc %d: got %v, want off %d", i, e, pos)
		}
		pos += 3000
	}
	if m.Frontier() != pos {
		t.Errorf("frontier %d, want %d", m.Frontier(), pos)
	}
	if s := m.Stats(); s.Appends != 10 || s.Inserts != 0 {
		t.Errorf("stats %+v", s)
	}
}

func TestInsertRequiresGuardHeadroom(t *testing.T) {
	m := newMgr()
	a, _, _ := m.Alloc(4096)
	b, _, _ := m.Alloc(4096) // downstream neighbour keeps hole interior
	_ = b
	m.Free(a) // hole of 4096 at offset 0

	// A request of exactly holeSize-guard fits (Equation 1 boundary).
	e, inserted, err := m.Alloc(4096 - tGuard)
	if err != nil || !inserted {
		t.Fatalf("boundary insert failed: %v inserted=%v", err, inserted)
	}
	if e.Off != a.Off {
		t.Errorf("insert placed at %d, want hole start %d", e.Off, a.Off)
	}
	// The remaining guard-sized region must still be tracked as free.
	if m.FreeBytes() != tGuard {
		t.Errorf("free bytes %d, want %d (the guard remainder)", m.FreeBytes(), tGuard)
	}
}

func TestTooLargeForHoleAppends(t *testing.T) {
	m := newMgr()
	a, _, _ := m.Alloc(4096)
	m.Alloc(4096)
	m.Free(a)
	// 4096-byte request needs 4096+guard: hole too small → append.
	e, inserted, err := m.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if inserted {
		t.Error("hole without guard headroom should not be used")
	}
	if e.Off != 8192 {
		t.Errorf("append at %d, want 8192", e.Off)
	}
}

func TestSplitReturnsRemainder(t *testing.T) {
	m := newMgr()
	a, _, _ := m.Alloc(10 * tUnit)
	m.Alloc(tUnit) // pin downstream
	m.Free(a)
	e, inserted, _ := m.Alloc(2 * tUnit)
	if !inserted || e.Off != a.Off {
		t.Fatalf("expected insert at hole start, got %v inserted=%v", e, inserted)
	}
	// Remainder 8*unit returned to the list and still usable.
	if m.FreeBytes() != 8*tUnit {
		t.Fatalf("free bytes %d, want %d", m.FreeBytes(), 8*tUnit)
	}
	e2, inserted2, _ := m.Alloc(2 * tUnit)
	if !inserted2 || e2.Off != e.End() {
		t.Fatalf("second insert should continue in remainder: %v inserted=%v", e2, inserted2)
	}
	if s := m.Stats(); s.Splits < 1 {
		t.Errorf("splits not counted: %+v", s)
	}
}

func TestCoalesceNeighbours(t *testing.T) {
	m := newMgr()
	a, _, _ := m.Alloc(4096)
	b, _, _ := m.Alloc(4096)
	c, _, _ := m.Alloc(4096)
	m.Alloc(4096) // pin so frontier folding doesn't kick in
	m.Free(a)
	m.Free(c)
	if n := len(m.FreeRegions()); n != 2 {
		t.Fatalf("expected 2 regions, got %d", n)
	}
	m.Free(b) // bridges a and c
	regions := m.FreeRegions()
	if len(regions) != 1 || regions[0] != (Extent{Off: 0, Len: 12288}) {
		t.Fatalf("coalesce failed: %v", regions)
	}
	if s := m.Stats(); s.Coalesces != 2 {
		t.Errorf("coalesces = %d, want 2", s.Coalesces)
	}
}

func TestFrontierFoldback(t *testing.T) {
	m := newMgr()
	a, _, _ := m.Alloc(4096)
	b, _, _ := m.Alloc(4096)
	m.Free(b)
	if m.Frontier() != 4096 {
		t.Errorf("frontier %d, want 4096 after tail free", m.Frontier())
	}
	if m.FreeBytes() != 0 {
		t.Errorf("tail free space should fold into frontier, free=%d", m.FreeBytes())
	}
	m.Free(a)
	if m.Frontier() != 0 {
		t.Errorf("frontier %d, want 0 after everything freed", m.Frontier())
	}
}

func TestNoSpace(t *testing.T) {
	m := New(10*tUnit, tUnit, tGuard)
	if _, _, err := m.Alloc(11 * tUnit); err != ErrNoSpace {
		t.Errorf("err = %v, want ErrNoSpace", err)
	}
	if _, _, err := m.Alloc(-1); err == nil {
		t.Error("negative size accepted")
	}
}

func TestBandsCensus(t *testing.T) {
	m := newMgr()
	var exts []Extent
	for i := 0; i < 6; i++ {
		e, _, _ := m.Alloc(2048)
		exts = append(exts, e)
	}
	m.Free(exts[1])
	m.Free(exts[3])
	bands := m.Bands()
	// Allocated runs: [0], [2], [4,5] → three bands.
	want := []Extent{{Off: 0, Len: 2048}, {Off: 4096, Len: 2048}, {Off: 8192, Len: 4096}}
	if len(bands) != len(want) {
		t.Fatalf("bands = %v, want %v", bands, want)
	}
	for i := range want {
		if bands[i] != want[i] {
			t.Fatalf("band %d = %v, want %v", i, bands[i], want[i])
		}
	}
}

func TestFragmentBytes(t *testing.T) {
	m := newMgr()
	a, _, _ := m.Alloc(512)
	m.Alloc(2048)
	b, _, _ := m.Alloc(8192)
	m.Alloc(2048)
	m.Free(a)
	m.Free(b)
	if got := m.FragmentBytes(1024); got != 512 {
		t.Errorf("FragmentBytes(1024) = %d, want 512", got)
	}
	if got := m.FragmentBytes(100000); got != 512+8192 {
		t.Errorf("FragmentBytes(big) = %d, want %d", got, 512+8192)
	}
}

// TestAllocatorInvariants drives random alloc/free traffic and checks
// the global invariants after every operation:
//   - live extents are pairwise disjoint,
//   - free regions are disjoint, maximal (never adjacent), within
//     [0, frontier), and never adjacent to the frontier,
//   - byte accounting: frontier = live + free bytes,
//   - drive-level safety: replaying every Alloc as a write and every
//     Free as a trim against a real smr.RawDrive with the same guard
//     never produces an overlap error (Equation 1 end to end).
func TestAllocatorInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := New(4<<20, tUnit, tGuard)
	drive := smr.NewRaw(platter.New(platter.DefaultConfig(4<<20)), tGuard)
	live := map[int64]Extent{}

	check := func(step int) {
		t.Helper()
		var les []Extent
		for _, e := range live {
			les = append(les, e)
		}
		sort.Slice(les, func(i, j int) bool { return les[i].Off < les[j].Off })
		var liveBytes int64
		for i, e := range les {
			liveBytes += e.Len
			if i > 0 && les[i-1].End() > e.Off {
				t.Fatalf("step %d: live extents overlap: %v %v", step, les[i-1], e)
			}
		}
		free := m.FreeRegions()
		var freeBytes int64
		for i, f := range free {
			freeBytes += f.Len
			if f.Len <= 0 {
				t.Fatalf("step %d: non-positive free region %v", step, f)
			}
			if i > 0 && free[i-1].End() >= f.Off {
				t.Fatalf("step %d: free regions not coalesced: %v %v", step, free[i-1], f)
			}
			if f.End() > m.Frontier() {
				t.Fatalf("step %d: free region %v past frontier %d", step, f, m.Frontier())
			}
			if f.End() == m.Frontier() {
				t.Fatalf("step %d: free region %v touches frontier (should fold)", step, f)
			}
		}
		if liveBytes+freeBytes != m.Frontier() {
			t.Fatalf("step %d: accounting: live %d + free %d != frontier %d",
				step, liveBytes, freeBytes, m.Frontier())
		}
	}

	freeOne := func() {
		for k, v := range live {
			m.Free(v)
			if err := drive.Free(v.Off, v.Len); err != nil {
				t.Fatal(err)
			}
			delete(live, k)
			break
		}
	}

	for step := 0; step < 3000; step++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			size := int64(1+rng.Intn(5)) * tUnit / 2
			e, _, err := m.Alloc(size)
			if err == ErrNoSpace {
				freeOne()
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			// Drive-level check: this write must be legal under the
			// shingling rules (never-overlap-valid plus guard).
			if _, err := drive.WriteAt(make([]byte, e.Len), e.Off); err != nil {
				t.Fatalf("step %d: allocator produced an illegal SMR write: %v", step, err)
			}
			live[e.Off] = e
		} else {
			freeOne()
		}
		if step%50 == 0 {
			check(step)
		}
	}
	check(3000)
	if awa := smr.AWA(drive); awa != 1.0 {
		t.Errorf("AWA = %v, want exactly 1.0 under dynamic band management", awa)
	}
}

func TestGuardRemainderRecoveredByCoalesce(t *testing.T) {
	// An exact-fit insert leaves a guard-sized remainder that is
	// unusable alone but must come back when a neighbour dies.
	m := newMgr()
	a, _, _ := m.Alloc(4096)
	b, _, _ := m.Alloc(4096)
	m.Alloc(512) // pin
	m.Free(a)
	e, inserted, _ := m.Alloc(4096 - tGuard)
	if !inserted {
		t.Fatal("expected insert")
	}
	_ = e
	// Guard remainder [3072, 4096) is free but unusable.
	if _, ins2, _ := m.Alloc(1); ins2 {
		t.Error("guard remainder should not satisfy any insert")
	}
	m.Free(b) // now [3072, 8192) coalesces
	e3, ins3, _ := m.Alloc(4096 + tGuard - tGuard)
	if !ins3 || e3.Off != 3072 {
		t.Errorf("coalesced region not reused: %v inserted=%v", e3, ins3)
	}
}

// TestAllocPropertyQuick uses testing/quick to fuzz allocation sizes:
// every returned extent is within capacity, non-overlapping with all
// currently live extents, and respects Equation 1 when inserted.
func TestAllocPropertyQuick(t *testing.T) {
	type op struct {
		Size uint16
		Free bool
	}
	f := func(ops []op) bool {
		m := New(1<<20, 1024, 512)
		live := map[int64]Extent{}
		for _, o := range ops {
			if o.Free && len(live) > 0 {
				for k, e := range live {
					m.Free(e)
					delete(live, k)
					break
				}
				continue
			}
			size := int64(o.Size%8192) + 1
			e, _, err := m.Alloc(size)
			if err == ErrNoSpace {
				continue
			}
			if err != nil {
				return false
			}
			if e.Off < 0 || e.End() > m.Capacity() || e.Len != size {
				return false
			}
			for _, other := range live {
				if e.Off < other.End() && other.Off < e.End() {
					return false
				}
			}
			live[e.Off] = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
