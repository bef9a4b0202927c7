package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"sealdb/internal/kv"
	"sealdb/internal/memtable"
	"sealdb/internal/smr"
	"sealdb/internal/sstable"
	"sealdb/internal/version"
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

var errChildFailed = errors.New("child failed")

// failIter is a sliceIter that fails, for good, once a move lands it on
// entry at.
type failIter struct {
	sliceIter
	at  int
	err error
}

func (f *failIter) landed() {
	if f.pos == f.at {
		f.err = errChildFailed
	}
}

func (f *failIter) Valid() bool                { return f.err == nil && f.sliceIter.Valid() }
func (f *failIter) Error() error               { return f.err }
func (f *failIter) SeekToFirst()               { f.sliceIter.SeekToFirst(); f.landed() }
func (f *failIter) SeekToLast()                { f.sliceIter.SeekToLast(); f.landed() }
func (f *failIter) Seek(target kv.InternalKey) { f.sliceIter.Seek(target); f.landed() }
func (f *failIter) Next()                      { f.sliceIter.Next(); f.landed() }
func (f *failIter) Prev()                      { f.sliceIter.Prev(); f.landed() }

// TestMergingIterBidirectionalAgainstReference drives merges of random children
// with random Seek / Next / Prev mixes, direction switches included, and
// requires at every step the key, value and error of the sorted union of
// the children. Children may be empty, end or start part-way through the
// key space, and repeat a user key at other sequence numbers, within a
// child and across children; in half the rounds one child fails for good
// once a move lands it on a chosen entry. The merge moves a child only
// as LevelDB's protocol says (the current child by one entry; the others,
// on a switch, by a Seek to the current key and one step), so the
// reference knows each step on which the failing child's entries a move
// lands, and the error must surface on exactly that step. Equal internal
// keys go to the lower child index first in either direction.
func TestMergingIterBidirectionalAgainstReference(t *testing.T) {
	ik := func(user string, seq int) kv.InternalKey {
		return kv.MakeInternalKey(nil, []byte(user), kv.SeqNum(seq), kv.KindSet)
	}
	tie := func(name string) *sliceIter {
		return &sliceIter{pos: -1, keys: []kv.InternalKey{ik("a", 5), ik("b", 5)}, vals: [][]byte{[]byte(name), []byte(name)}}
	}
	m := &mergingIter{cur: -1, children: []kv.Iterator{tie("A"), tie("B")}}
	var got []string
	for m.SeekToFirst(); m.Valid(); m.Next() {
		got = append(got, string(m.Key().UserKey())+string(m.Value()))
	}
	for m.SeekToLast(); m.Valid(); m.Prev() {
		got = append(got, string(m.Key().UserKey())+string(m.Value()))
	}
	if fmt.Sprint(got) != "[aA aB bA bB bA bB aA aB]" {
		t.Fatalf("equal internal keys merge as %v, want the lower child first in either direction", got)
	}

	type entry struct {
		key        kv.InternalKey
		val        string
		child, idx int // the child holding it and its index there
	}
	rng := rand.New(rand.NewSource(53))
	user := func(u int) string { return fmt.Sprintf("u%02d", u) }
	failures := 0
	for round := 0; round < 400; round++ {
		n := 1 + rng.Intn(12)
		children := make([]kv.Iterator, n)
		var union []entry
		var fail *failIter // nil when no child fails
		failing := -1
		seqs := rng.Perm(40 * 2 * n)
		for c := range children {
			s := &sliceIter{pos: -1}
			if rng.Intn(5) > 0 { // one child in five is empty
				lo := rng.Intn(40)
				for u, hi := lo, lo+rng.Intn(41-lo); u < hi; u++ {
					for v := rng.Intn(3); v > 0; v-- {
						s.keys = append(s.keys, ik(user(u), 1+seqs[0]))
						seqs = seqs[1:]
					}
				}
			}
			sort.Slice(s.keys, func(i, j int) bool { return kv.CompareInternal(s.keys[i], s.keys[j]) < 0 })
			for i, k := range s.keys {
				v := fmt.Sprintf("c%d:%s", c, k)
				s.vals = append(s.vals, []byte(v))
				union = append(union, entry{key: k, val: v, child: c, idx: i})
			}
			children[c] = s
			if failing < 0 && len(s.keys) > 0 && rng.Intn(2*n) == 0 {
				failing, fail = c, &failIter{sliceIter: *s, at: rng.Intn(len(s.keys))}
				children[c] = fail
			}
		}
		sort.Slice(union, func(i, j int) bool { return kv.CompareInternal(union[i].key, union[j].key) < 0 })

		failed := false
		lands := func(i int) { failed = failed || fail != nil && i == fail.at }
		atOrAfter := func(k kv.InternalKey) int { // where a Seek lands the failing child
			if fail == nil {
				return -1
			}
			return sort.Search(len(fail.keys), func(i int) bool { return kv.CompareInternal(fail.keys[i], k) >= 0 })
		}
		m := &mergingIter{children: children, cur: -1}
		p, dir := -1, dirForward
		for op := 0; op < 80; op++ {
			switch r := rng.Intn(10); {
			case r == 0:
				m.SeekToFirst()
				p, dir = 0, dirForward
				lands(0)
			case r == 1:
				m.SeekToLast()
				p, dir = len(union)-1, dirBackward
				if fail != nil {
					lands(len(fail.keys) - 1)
				}
			case r == 2:
				target := kv.MakeSearchKey(nil, []byte(user(rng.Intn(42))), kv.SeqNum(rng.Intn(80*n)))
				m.Seek(target)
				p = sort.Search(len(union), func(i int) bool { return kv.CompareInternal(union[i].key, target) >= 0 })
				dir = dirForward
				lands(atOrAfter(target))
			case p < 0 || p >= len(union):
				continue // an exhausted merge only repositions
			case r < 6:
				switch e := union[p]; {
				case e.child == failing:
					lands(e.idx + 1)
				case dir == dirBackward:
					lands(atOrAfter(e.key))
				}
				m.Next()
				p, dir = p+1, dirForward
			default:
				switch e := union[p]; {
				case e.child == failing:
					lands(e.idx - 1)
				case fail != nil && dir == dirForward:
					j := atOrAfter(e.key)
					lands(j)
					if j < len(fail.keys) {
						lands(j - 1)
					} else {
						lands(len(fail.keys) - 1)
					}
				}
				m.Prev()
				p, dir = p-1, dirBackward
			}
			switch {
			case failed:
				if m.Valid() || !errors.Is(m.Error(), errChildFailed) {
					t.Fatalf("round %d op %d: valid %v, error %v, want the failing child's error", round, op, m.Valid(), m.Error())
				}
			case p < 0 || p >= len(union):
				if m.Valid() || m.Error() != nil {
					t.Fatalf("round %d op %d: valid %v, error %v past the reference's end", round, op, m.Valid(), m.Error())
				}
			case !m.Valid():
				t.Fatalf("round %d op %d: invalid (error %v), want %s", round, op, m.Error(), union[p].key)
			case kv.CompareInternal(m.Key(), union[p].key) != 0 || string(m.Value()) != union[p].val:
				t.Fatalf("round %d op %d: at %s = %q, want %s = %q", round, op, m.Key(), m.Value(), union[p].key, union[p].val)
			}
			if failed {
				failures++
				if m.SeekToFirst(); m.Valid() || m.Error() == nil {
					t.Fatalf("round %d: a reposition cleared the failing child's error", round)
				}
				break
			}
		}
	}
	if failures < 20 {
		t.Fatalf("only %d rounds surfaced a child's failure", failures)
	}
}

// countingIter counts the Key, Valid and Error calls made of a child.
type countingIter struct {
	kv.Iterator
	calls *int
}

func (c countingIter) Key() kv.InternalKey { *c.calls++; return c.Iterator.Key() }
func (c countingIter) Valid() bool         { *c.calls++; return c.Iterator.Valid() }
func (c countingIter) Error() error        { *c.calls++; return c.Iterator.Error() }

// TestMergingIterStepAsksOnlyTheMovedChild: a Next or Prev that does not
// switch direction asks only the child it moved for its error, validity
// and key, so a step costs the same three calls at twelve children as at
// two, whether the lead changes every step or seldom.
func TestMergingIterStepAsksOnlyTheMovedChild(t *testing.T) {
	for _, n := range []int{2, 12} {
		for _, interleaved := range []bool{true, false} {
			calls := 0
			children := make([]kv.Iterator, n)
			for c := range children {
				s := &sliceIter{pos: -1}
				for i := 0; i < 10; i++ {
					k := c*10 + i // a run per child
					if interleaved {
						k = c + n*i // every step hands the lead to the next child
					}
					s.keys = append(s.keys, kv.MakeInternalKey(nil, fmt.Appendf(nil, "k%04d", k), 1, kv.KindSet))
					s.vals = append(s.vals, nil)
				}
				children[c] = countingIter{s, &calls}
			}
			m := &mergingIter{children: children, cur: -1}
			for _, dir := range []int{dirForward, dirBackward} {
				steps := 0
				if dir == dirForward {
					m.SeekToFirst()
				} else {
					m.SeekToLast()
				}
				for ; m.Valid(); steps++ {
					calls = 0
					if dir == dirForward {
						m.Next()
					} else {
						m.Prev()
					}
					if calls > 3 {
						t.Fatalf("%d children (interleaved %v, dir %d): step %d made %d Key/Valid/Error calls, want at most 3", n, interleaved, dir, steps, calls)
					}
				}
				if steps != 10*n || m.Error() != nil {
					t.Fatalf("%d children: %d steps (error %v), want %d", n, steps, m.Error(), 10*n)
				}
			}
		}
	}
}

// TestIteratorsShareNoMerge: Close hands an Iterator's room back stripped,
// referencing no table, block, window, memtable, file or read state, and
// so does a Scan, which reads in the room's own Iterator; the next Iterator
// takes the room, and one opened while that one is open builds its own.
func TestIteratorsShareNoMerge(t *testing.T) {
	d, err := Open(streamConfig(ModeSEALDB, 4*kv.MiB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadStream(t, d, 600)
	a := d.NewIterator()
	room := a.r
	if a.SeekToFirst(); !a.Valid() || len(room.m.children) < 3 {
		t.Fatalf("a merge of %d children (valid %v): the store has no table", len(room.m.children), a.Valid())
	}
	for a.Next(); a.Valid(); a.Next() {
	}
	if held := roomHolds(reflect.ValueOf(room), "room", "", map[uintptr]bool{}); held == "" {
		t.Fatal("an open Iterator's room holds nothing of the store: the check sees nothing")
	}
	a.Close()
	if held := roomHolds(reflect.ValueOf(room), "room", "", map[uintptr]bool{}); held != "" || d.spareRoom.Load() != room {
		t.Fatalf("the closed Iterator's room keeps %s (spare %v)", held, d.spareRoom.Load() == room)
	}
	keys := sortedKeys(ref)
	if kvs, err := d.Scan([]byte(keys[100]), 50); err != nil || len(kvs) != 50 {
		t.Fatalf("Scan = %d records, %v", len(kvs), err)
	}
	if held := roomHolds(reflect.ValueOf(room), "room", "", map[uintptr]bool{}); held != "" || room.it.s != nil || d.spareRoom.Load() != room {
		t.Fatalf("after a Scan the room keeps %s (read state %v, spare %v)", held, room.it.s != nil, d.spareRoom.Load() == room)
	}
	b, c := d.NewIterator(), d.NewIterator()
	defer b.Close()
	defer c.Close()
	if b.r != room || c.r == room || b == &room.it {
		t.Fatal("the next Iterator did not borrow the spare room, or the one after it took it too")
	}
}

// writeHook runs before ahead of every device write it passes on.
type writeHook struct {
	smr.Drive
	before func()
}

func (h writeHook) WriteAt(p []byte, off int64) (time.Duration, error) {
	h.before()
	return h.Drive.WriteAt(p, off)
}

// TestIteratorsShareNoImmutableMemtable: an Iterator opened while a flush
// writes the frozen memtable's table, the immutable memtable published in
// the read state, merges that memtable too; Close hands the room back with
// its immutable-memtable iterator stripped, as it strips the live one's.
// The Iterator opens from the flush's device write, under the writer's
// d.mu: NewIterator takes no engine lock, and nor does releasing a state
// the DB still holds.
func TestIteratorsShareNoImmutableMemtable(t *testing.T) {
	cfg := streamConfig(ModeSEALDB, 4*kv.MiB)
	var d *DB
	var during func() // run once, at the first write while imm is published
	cfg.WrapDrive = func(inner smr.Drive) smr.Drive {
		return writeHook{inner, func() {
			if during != nil && d.state.Load().imm != nil {
				f := during
				during = nil
				f()
			}
		}}
	}
	var err error
	if d, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadStream(t, d, 600)
	for i := 0; i < 40; i++ { // the memtable the flush freezes is not empty
		k := fmt.Sprintf("sk%06d", i*15)
		ref[k] = string(bigValue(k, 200+i))
		if err := d.Put([]byte(k), []byte(ref[k])); err != nil {
			t.Fatal(err)
		}
	}
	keys := sortedKeys(ref)
	var room *readRoom
	ran := false
	during = func() {
		ran = true
		it := d.NewIterator()
		room = it.r
		defer it.Close()
		// Errorf, not Fatalf: the writer holds d.mu and the storage write
		// lock here.
		i := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if i >= len(keys) || string(it.Key()) != keys[i] || string(it.Value()) != ref[keys[i]] {
				t.Errorf("entry %d during the flush: key %q, want %q", i, it.Key(), keys[min(i, len(keys)-1)])
				return
			}
			i++
		}
		if err := it.Error(); err != nil || i != len(keys) {
			t.Errorf("the Iterator returned %d of %d entries, %v", i, len(keys), err)
		}
		if held := roomHolds(reflect.ValueOf(&room.imm), "room.imm", "", map[uintptr]bool{}); held == "" {
			t.Error("an Iterator opened during the flush does not read the immutable memtable")
		}
	}
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("the flush made no device write while the immutable memtable was published")
	}
	if held := roomHolds(reflect.ValueOf(room), "room", "", map[uintptr]bool{}); held != "" || d.spareRoom.Load() != room {
		t.Fatalf("the closed Iterator's room keeps %s (spare %v)", held, d.spareRoom.Load() == room)
	}
}

// roomHolds returns the path of the first reference v (field name field)
// keeps to the store's data: a table, block, window, memtable, file,
// version or read state, or a byte slice other than a key or value buffer
// (one into a block or a window). It does not follow the DB.
func roomHolds(v reflect.Value, path, field string, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Type() == reflect.TypeFor[*DB]() || seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		switch e := v.Type().Elem(); {
		case e == reflect.TypeFor[sstable.Table](), e == reflect.TypeFor[memtable.MemTable](),
			e == reflect.TypeFor[readState](), e == reflect.TypeFor[version.FileMeta](),
			e == reflect.TypeFor[version.Version](), e == reflect.TypeFor[[]byte](),
			e.Name() == "block" || e.Name() == "window":
			return path + " (" + v.Type().String() + ")"
		}
		return roomHolds(v.Elem(), path, field, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return roomHolds(v.Elem(), path, field, seen)
	case reflect.Struct:
		for i := range v.NumField() {
			f := v.Type().Field(i)
			if held := roomHolds(v.Field(i), path+"."+f.Name, f.Name, seen); held != "" {
				return held
			}
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if v.IsNil() || field == "key" || field == "val" {
				return ""
			}
			return path
		}
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			if held := roomHolds(v.Index(i), fmt.Sprintf("%s[%d]", path, i), field, seen); held != "" {
				return held
			}
		}
	}
	return ""
}
