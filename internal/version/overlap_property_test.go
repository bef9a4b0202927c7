package version

import (
	"fmt"
	"math/rand"
	"testing"

	"sealdb/internal/kv"
)

// TestOverlapsAgainstBruteForce drives the binary-search overlap query,
// and the point read's Candidate, against a brute-force scan over randomly
// generated disjoint levels.
func TestOverlapsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		// Build a sorted, disjoint level out of random gaps/widths.
		v := &Version{}
		pos := rng.Intn(10)
		var num uint64 = 1
		for len(v.Files[2]) < 20 && pos < 1000 {
			lo := pos
			hi := lo + rng.Intn(8)
			v.Files[2] = append(v.Files[2], meta(num, key(lo), key(hi)))
			num++
			pos = hi + 1 + rng.Intn(6)
		}
		if err := v.CheckInvariants(allSorted); err != nil {
			t.Fatalf("trial %d: generator broken: %v", trial, err)
		}

		for q := 0; q < 50; q++ {
			a := rng.Intn(1100)
			b := a + rng.Intn(40)
			lo, hi := []byte(key(a)), []byte(key(b))
			if rng.Intn(10) == 0 {
				lo = nil
			}
			if rng.Intn(10) == 0 {
				hi = nil
			}
			got := v.Overlaps(2, lo, hi, true)
			var want []*FileMeta
			for _, f := range v.Files[2] {
				if lo != nil && kv.CompareUser(f.Largest.UserKey(), lo) < 0 {
					continue
				}
				if hi != nil && kv.CompareUser(f.Smallest.UserKey(), hi) > 0 {
					continue
				}
				want = append(want, f)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d query [%q,%q]: got %d files, want %d",
					trial, lo, hi, len(got), len(want))
			}
			if any := len(want) > 0; v.OverlapsAny(2, lo, hi, true) != any || v.OverlapsAny(2, lo, hi, false) != any {
				t.Fatalf("trial %d query [%q,%q]: OverlapsAny disagrees with the %d files found", trial, lo, hi, len(want))
			}
			// The point read's query at lo: the first overlapping file, if
			// it starts at or before lo.
			holds := lo != nil && len(want) > 0 && kv.CompareUser(want[0].Smallest.UserKey(), lo) <= 0
			if c := v.Candidate(2, lo); lo != nil && (len(c) != 0) != holds || holds && c[0] != want[0] {
				t.Fatalf("trial %d point %q: Candidate = %v, want the first of %v if it holds the key", trial, lo, c, want)
			}
			for i := range got {
				if got[i].Num != want[i].Num {
					t.Fatalf("trial %d query [%q,%q]: file %d = %v, want %v",
						trial, lo, hi, i, got[i], want[i])
				}
			}
		}
	}
}

func key(i int) string { return fmt.Sprintf("k%06d", i) }

// TestApplySequenceMatchesReference replays random edit sequences
// against both Apply and a plain map-based model.
func TestApplySequenceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := &Version{}
	type ref struct{ level int }
	live := map[uint64]ref{}
	var num uint64 = 1

	for step := 0; step < 500; step++ {
		e := &Edit{}
		// Delete a random pre-existing file half the time (Apply
		// processes deletions before additions, so files added by
		// this same edit are not eligible).
		if len(live) > 4 && rng.Intn(2) == 0 {
			for n, r := range live {
				e.Deleted = append(e.Deleted, DeletedFile{Level: r.level, Num: n})
				delete(live, n)
				break
			}
		}
		// Add 1-3 files at random levels.
		for i := 0; i < 1+rng.Intn(3); i++ {
			lvl := rng.Intn(NumLevels)
			lo := rng.Intn(100000)
			e.Added = append(e.Added, AddedFile{
				Level: lvl,
				Meta:  meta(num, key(lo), key(lo+rng.Intn(5))),
			})
			live[num] = ref{level: lvl}
			num++
		}
		nv, err := e.Apply(v)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		v = nv
		if v.TotalFiles() != len(live) {
			t.Fatalf("step %d: version has %d files, model %d", step, v.TotalFiles(), len(live))
		}
		// Per-level ordering invariant holds (overlap is allowed in
		// this random model, so only check sortedness).
		if err := v.CheckInvariants(func(int) bool { return false }); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}
