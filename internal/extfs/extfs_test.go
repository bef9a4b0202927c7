package extfs

import (
	"math/rand"
	"testing"

	"sealdb/internal/storage"
)

func TestAllocRoundsToBlocks(t *testing.T) {
	a := New(1 << 20)
	e, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if e.Len != BlockSize {
		t.Errorf("len %d, want %d", e.Len, BlockSize)
	}
	e2, _ := a.Alloc(BlockSize + 1)
	if e2.Len != 2*BlockSize {
		t.Errorf("len %d, want %d", e2.Len, 2*BlockSize)
	}
	if e2.Off%BlockSize != 0 {
		t.Errorf("second alloc at %d not block aligned", e2.Off)
	}
}

func TestFreshAllocationsSpreadAcrossGroups(t *testing.T) {
	a := New(64 << 20)
	e1, _ := a.Alloc(BlockSize)
	e2, _ := a.Alloc(BlockSize)
	e3, _ := a.Alloc(BlockSize)
	// Rotation: consecutive fresh files land in different block
	// groups (the ext4 aging the paper's Figure 2 observes).
	if e1.Off == e2.Off-BlockSize || e2.Off == e3.Off-BlockSize {
		t.Errorf("fresh allocations adjacent: %v %v %v", e1, e2, e3)
	}
}

func TestFirstFitReusesHoles(t *testing.T) {
	a := New(240 * 1024) // below the group threshold: single group
	e1, _ := a.Alloc(8192)
	a.Alloc(8192) // pin
	e3, _ := a.Alloc(8192)
	a.Alloc(8192) // pin
	a.Free(e1)
	a.Free(e3)
	// New same-size alloc must land in the first hole.
	got, _ := a.Alloc(8192)
	if got.Off != e1.Off {
		t.Errorf("first fit chose %v, want hole at %d", got, e1.Off)
	}
	if a.ReuseFraction() == 0 {
		t.Error("reuse not counted")
	}
}

func TestHoleSplitAndMerge(t *testing.T) {
	a := New(240 * 1024)
	e1, _ := a.Alloc(16384)
	a.Alloc(4096) // pin
	a.Free(e1)
	small, _ := a.Alloc(4096)
	if small.Off != e1.Off {
		t.Fatalf("expected split of hole, got %v", small)
	}
	if a.HoleCount() != 1 {
		t.Fatalf("remainder hole missing: %d holes", a.HoleCount())
	}
	a.Free(small)
	if a.HoleCount() != 1 {
		t.Fatalf("free did not merge with remainder: %d holes", a.HoleCount())
	}
}

func TestAppendAllocatesFreshSpace(t *testing.T) {
	a := New(240 * 1024)
	e1, _ := a.Alloc(8192)
	a.Alloc(4096) // pin
	a.Free(e1)
	// Append allocation must skip the hole and take fresh space.
	log, err := a.AllocAppend(8192)
	if err != nil {
		t.Fatal(err)
	}
	if log.Off == e1.Off {
		t.Error("append allocation reused a hole; logs must grow in fresh space")
	}
	if a.HoleCount() == 0 {
		t.Error("hole should remain")
	}
}

func TestFrontierFoldback(t *testing.T) {
	a := New(240 * 1024)
	// Both allocations in group 0: the second must fold back into the
	// group frontier when freed, the first likewise afterwards.
	e1, _ := a.Alloc(4096)
	var e2 storage.Extent
	for {
		e, err := a.Alloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		if e.Off == e1.End() {
			e2 = e
			break
		}
		defer a.Free(e)
	}
	used := a.UsedBytes()
	a.Free(e2)
	if a.UsedBytes() != used-4096 {
		t.Errorf("used %d after free, want %d", a.UsedBytes(), used-4096)
	}
	a.Free(e1)
	if a.Frontier() != 0 {
		t.Errorf("group-0 frontier %d, want 0", a.Frontier())
	}
}

func TestNoSpace(t *testing.T) {
	a := New(8192)
	if _, err := a.Alloc(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(8192); err != ErrNoSpace {
		t.Errorf("err = %v, want ErrNoSpace", err)
	}
}

func TestRandomTrafficInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	a := New(4 << 20)
	live := map[int64]storage.Extent{}
	for i := 0; i < 5000; i++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			size := int64(1+rng.Intn(4)) * 4096
			e, err := a.Alloc(size)
			if err == ErrNoSpace {
				for k, v := range live {
					a.Free(v)
					delete(live, k)
					break
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			// No overlap with any live extent.
			for _, v := range live {
				if e.Off < v.End() && v.Off < e.End() {
					t.Fatalf("overlap: %v vs %v", e, v)
				}
			}
			live[e.Off] = e
		} else {
			for k, v := range live {
				a.Free(v)
				delete(live, k)
				break
			}
		}
	}
}
