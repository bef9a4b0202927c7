package lsm

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sealdb/internal/kv"
)

// sliceIter is a reference kv.Iterator over a sorted slice of
// internal keys, for isolating mergingIter's logic.
type sliceIter struct {
	keys []kv.InternalKey
	vals [][]byte
	pos  int
}

func newSliceIter(entries map[string]string, seq kv.SeqNum) *sliceIter {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	it := &sliceIter{pos: -1}
	for _, k := range keys {
		it.keys = append(it.keys, kv.MakeInternalKey(nil, []byte(k), seq, kv.KindSet))
		it.vals = append(it.vals, []byte(entries[k]))
	}
	return it
}

func (s *sliceIter) Valid() bool  { return s.pos >= 0 && s.pos < len(s.keys) }
func (s *sliceIter) Error() error { return nil }
func (s *sliceIter) SeekToFirst() { s.pos = 0 }
func (s *sliceIter) SeekToLast()  { s.pos = len(s.keys) - 1 }
func (s *sliceIter) Seek(t kv.InternalKey) {
	s.pos = sort.Search(len(s.keys), func(i int) bool {
		return kv.CompareInternal(s.keys[i], t) >= 0
	})
}
func (s *sliceIter) Next() { s.pos++ }
func (s *sliceIter) Prev() {
	if s.pos >= len(s.keys) {
		s.pos = len(s.keys)
	}
	s.pos--
}
func (s *sliceIter) Key() kv.InternalKey { return s.keys[s.pos] }
func (s *sliceIter) Value() []byte       { return s.vals[s.pos] }

var _ kv.Iterator = (*sliceIter)(nil)

// TestMergingIterBidirectionalAgainstReference fuzzes Next/Prev/Seek
// schedules over several disjoint and interleaved children.
func TestMergingIterBidirectionalAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// Three children with interleaved keys, distinct sequences so
	// internal keys never collide.
	all := map[string]string{}
	var children []kv.Iterator
	for c := 0; c < 3; c++ {
		part := map[string]string{}
		for i := 0; i < 120; i++ {
			k := fmt.Sprintf("m%04d", rng.Intn(1000))
			if _, dup := all[k]; dup {
				continue
			}
			v := fmt.Sprintf("c%d-%d", c, i)
			part[k] = v
			all[k] = v
		}
		children = append(children, newSliceIter(part, kv.SeqNum(10+c)))
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	m := &mergingIter{children: children, cur: -1}
	ref := -1
	for step := 0; step < 6000; step++ {
		switch rng.Intn(7) {
		case 0:
			m.SeekToFirst()
			ref = 0
		case 1:
			m.SeekToLast()
			ref = len(keys) - 1
		case 2:
			target := fmt.Sprintf("m%04d", rng.Intn(1100))
			m.Seek(kv.MakeSearchKey(nil, []byte(target), kv.MaxSeqNum))
			ref = sort.SearchStrings(keys, target)
		case 3, 4:
			if ref >= 0 && ref < len(keys) {
				m.Next()
				ref++
			} else {
				continue
			}
		default:
			if ref >= 0 && ref < len(keys) {
				m.Prev()
				ref--
				if ref < 0 {
					if m.Valid() {
						t.Fatalf("step %d: Prev past start at %s", step, m.Key())
					}
					ref = -1
					continue
				}
			} else {
				continue
			}
		}
		if ref < 0 || ref >= len(keys) {
			if m.Valid() {
				t.Fatalf("step %d: merging iter valid at %s, reference exhausted", step, m.Key())
			}
			ref = -1
			continue
		}
		if !m.Valid() {
			t.Fatalf("step %d: merging iter invalid, reference at %q", step, keys[ref])
		}
		if got := string(m.Key().UserKey()); got != keys[ref] {
			t.Fatalf("step %d: at %q, want %q", step, got, keys[ref])
		}
		if string(m.Value()) != all[keys[ref]] {
			t.Fatalf("step %d: value mismatch at %q", step, keys[ref])
		}
	}
}

// TestMergingIterDuplicateUserKeys: children carrying different
// versions of the same user key must interleave in seq-desc order in
// both directions.
func TestMergingIterDuplicateUserKeys(t *testing.T) {
	mkChild := func(seq kv.SeqNum, keys ...string) kv.Iterator {
		m := map[string]string{}
		for _, k := range keys {
			m[k] = fmt.Sprintf("%s@%d", k, seq)
		}
		return newSliceIter(m, seq)
	}
	m := &mergingIter{cur: -1, children: []kv.Iterator{
		mkChild(30, "a", "b", "c"),
		mkChild(20, "b", "c", "d"),
		mkChild(10, "a", "c", "e"),
	}}
	var forward []string
	for m.SeekToFirst(); m.Valid(); m.Next() {
		forward = append(forward, m.Key().String())
	}
	want := []string{
		`"a"#30,SET`, `"a"#10,SET`,
		`"b"#30,SET`, `"b"#20,SET`,
		`"c"#30,SET`, `"c"#20,SET`, `"c"#10,SET`,
		`"d"#20,SET`, `"e"#10,SET`,
	}
	if len(forward) != len(want) {
		t.Fatalf("forward: %v", forward)
	}
	for i := range want {
		if forward[i] != want[i] {
			t.Fatalf("forward[%d] = %s, want %s", i, forward[i], want[i])
		}
	}
	var backward []string
	for m.SeekToLast(); m.Valid(); m.Prev() {
		backward = append(backward, m.Key().String())
	}
	for i := range want {
		if backward[len(want)-1-i] != want[i] {
			t.Fatalf("backward reversed[%d] = %s, want %s", i, backward[len(want)-1-i], want[i])
		}
	}
}

// TestMergingIterEmptyChildren: empty and exhausted children must not
// disturb the merge.
func TestMergingIterEmptyChildren(t *testing.T) {
	m := &mergingIter{cur: -1, children: []kv.Iterator{
		newSliceIter(map[string]string{}, 1),
		newSliceIter(map[string]string{"x": "1"}, 2),
		newSliceIter(map[string]string{}, 3),
	}}
	m.SeekToFirst()
	if !m.Valid() || string(m.Key().UserKey()) != "x" {
		t.Fatalf("merge over sparse children: %v", m.Valid())
	}
	m.Next()
	if m.Valid() {
		t.Fatal("exhaustion not reached")
	}
	m.SeekToLast()
	if !m.Valid() || string(m.Key().UserKey()) != "x" {
		t.Fatal("SeekToLast over sparse children")
	}
	m.Prev()
	if m.Valid() {
		t.Fatal("Prev past start")
	}

	empty := &mergingIter{cur: -1, children: []kv.Iterator{newSliceIter(map[string]string{}, 1)}}
	empty.SeekToFirst()
	empty.SeekToLast()
	if empty.Valid() {
		t.Fatal("empty merge valid")
	}
}
