package memtable

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"sealdb/internal/kv"
)

// slabEntry is entry i of a fixed mix: values from nothing to 1.5 KiB,
// every eleventh a tombstone, keys revisited so versions stack up.
func slabEntry(i int) (kv.Kind, []byte, []byte) {
	key := fmt.Appendf(nil, "key%07d", (i*7919)%5000)
	if i%11 == 0 {
		return kv.KindDelete, key, nil
	}
	return kv.KindSet, key, bytes.Repeat([]byte{byte(i)}, (i*37)%1500)
}

// TestApproximateSizeUnchanged pins ApproximateSize to the values it
// returned when every entry was four heap objects. The engine rotates
// the memtable on it, so a byte of difference moves every flush, and
// with it every device-clock figure in the repository.
func TestApproximateSizeUnchanged(t *testing.T) {
	want := map[int]int64{0: 74, 999: 751459, 2999: 2274284}
	m := New(7)
	for i := 0; i < 3000; i++ {
		kind, k, v := slabEntry(i)
		m.Add(kv.SeqNum(i+1), kind, k, v)
		if w, ok := want[i]; ok && m.ApproximateSize() != w {
			t.Errorf("after %d adds ApproximateSize = %d, recorded %d", i+1, m.ApproximateSize(), w)
		}
	}
}

// TestSlabEntriesStayValid: what Get and an iterator hand out aliases
// the memtable's slabs, and stays valid and unchanged for as long as it
// is held — through later Adds that open new slabs, and after the
// memtable itself has been dropped (flushed) with an older iterator
// still on it. Slabs are collected, never reused.
func TestSlabEntriesStayValid(t *testing.T) {
	m := New(3)
	const n = 3000 // about 2 MiB: dozens of byte slabs, node and link slabs
	for i := 0; i < n/2; i++ {
		kind, k, v := slabEntry(i)
		m.Add(kv.SeqNum(i+1), kind, k, v)
	}
	type held struct {
		i      int
		key, v []byte
	}
	var holds []held
	for i := 1; i < n/2; i += 97 {
		kind, k, want := slabEntry(i)
		if kind == kv.KindDelete {
			continue
		}
		v, kind, ok := m.Get(k, kv.SeqNum(i+1))
		if !ok || kind != kv.KindSet || !bytes.Equal(v, want) {
			t.Fatalf("Get(entry %d) = %d bytes, %v, ok %v", i, len(v), kind, ok)
		}
		holds = append(holds, held{i: i, v: v})
	}
	it := m.NewIterator()
	it.SeekToFirst()
	first := held{key: it.Key(), v: it.Value()}
	firstKey, firstVal := bytes.Clone(first.key), bytes.Clone(first.v)

	for i := n / 2; i < n; i++ {
		kind, k, v := slabEntry(i)
		m.Add(kv.SeqNum(i+1), kind, k, v)
	}
	m = nil // flushed: only the iterator and the held values remain
	for i := 0; i < 3; i++ {
		runtime.GC()
		_ = New(int64(i)) // new memtables take new slabs
	}
	for _, h := range holds {
		if _, _, want := slabEntry(h.i); !bytes.Equal(h.v, want) {
			t.Fatalf("value of entry %d changed while held", h.i)
		}
	}
	if !bytes.Equal(first.key, firstKey) || !bytes.Equal(first.v, firstVal) {
		t.Fatal("the iterator's first entry changed while held")
	}
	seen := 0
	for ; it.Valid(); it.Next() {
		seen++
	}
	if seen != n {
		t.Fatalf("iterator over the dropped memtable saw %d entries, want %d", seen, n)
	}
}

// TestEntriesLargerThanASlab: an entry that no slab could hold gets an
// object of its own, and the entries around it are none the worse.
func TestEntriesLargerThanASlab(t *testing.T) {
	m := New(4)
	big := bytes.Repeat([]byte("B"), 3*slabBytes+17)
	bigKey := bytes.Repeat([]byte("k"), slabBytes)
	m.Add(1, kv.KindSet, []byte("a"), []byte("small"))
	m.Add(2, kv.KindSet, []byte("b"), big)
	m.Add(3, kv.KindSet, bigKey, []byte("v"))
	m.Add(4, kv.KindSet, []byte("c"), bytes.Repeat([]byte("q"), slabBytes/4)) // exactly the cut-off
	m.Add(5, kv.KindSet, []byte("d"), []byte("small again"))
	for _, c := range []struct {
		key, want []byte
	}{
		{[]byte("a"), []byte("small")}, {[]byte("b"), big}, {bigKey, []byte("v")},
		{[]byte("c"), bytes.Repeat([]byte("q"), slabBytes/4)}, {[]byte("d"), []byte("small again")},
	} {
		if v, _, ok := m.Get(c.key, kv.MaxSeqNum); !ok || !bytes.Equal(v, c.want) {
			t.Errorf("Get of a %d-byte key: %d bytes, ok %v, want %d bytes", len(c.key), len(v), ok, len(c.want))
		}
	}
	if m.Len() != 5 {
		t.Errorf("Len = %d, want 5", m.Len())
	}
}

// TestAddAllocsAmortised: 4,096 adds of the benchmark's shape (16-byte
// keys, 1 KiB values) take a slab now and then and nothing else.
func TestAddAllocsAmortised(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const n = 4096
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "user%012d", (i*7919)%n)
	}
	value := make([]byte, 1024)
	perRun := testing.AllocsPerRun(5, func() {
		m := New(1)
		for i, k := range keys {
			m.Add(kv.SeqNum(i+1), kv.KindSet, k, value)
		}
	})
	if perAdd := perRun / n; perAdd > 0.1 {
		t.Errorf("%.3f allocations per Add, want at most 0.1", perAdd)
	}
}
