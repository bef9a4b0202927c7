package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"sealdb/internal/kv"
)

func TestGetLatestVisible(t *testing.T) {
	m := New(1)
	m.Add(1, kv.KindSet, []byte("k"), []byte("v1"))
	m.Add(2, kv.KindSet, []byte("k"), []byte("v2"))
	m.Add(3, kv.KindDelete, []byte("k"), nil)
	m.Add(4, kv.KindSet, []byte("k"), []byte("v4"))

	cases := []struct {
		seq     kv.SeqNum
		want    string
		deleted bool
		ok      bool
	}{
		{0, "", false, false},
		{1, "v1", false, true},
		{2, "v2", false, true},
		{3, "", true, true},
		{4, "v4", false, true},
		{100, "v4", false, true},
	}
	for _, c := range cases {
		v, kind, ok := m.Get([]byte("k"), c.seq)
		if del := ok && kind == kv.KindDelete; ok != c.ok || del != c.deleted || string(v) != c.want {
			t.Errorf("Get@%d = (%q, %v, ok=%v), want (%q, del=%v, %v)",
				c.seq, v, kind, ok, c.want, c.deleted, c.ok)
		}
	}
}

func TestGetMissingKey(t *testing.T) {
	m := New(1)
	m.Add(1, kv.KindSet, []byte("b"), []byte("v"))
	if _, _, ok := m.Get([]byte("a"), 10); ok {
		t.Error("found nonexistent key a")
	}
	if _, _, ok := m.Get([]byte("c"), 10); ok {
		t.Error("found nonexistent key c")
	}
	if _, _, ok := m.Get([]byte("bb"), 10); ok {
		t.Error("found nonexistent key bb (prefix of stored key)")
	}
}

func TestIteratorOrder(t *testing.T) {
	m := New(2)
	rng := rand.New(rand.NewSource(3))
	n := 500
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%06d", rng.Intn(100000)))
		m.Add(kv.SeqNum(i+1), kv.KindSet, k, []byte("v"))
	}
	it := m.NewIterator()
	var prev kv.InternalKey
	count := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if prev != nil && kv.CompareInternal(prev, it.Key()) >= 0 {
			t.Fatalf("order violation: %s !< %s", prev, it.Key())
		}
		prev = it.Key().Clone()
		count++
	}
	if count != n {
		t.Errorf("iterated %d entries, want %d", count, n)
	}
}

func TestIteratorSeek(t *testing.T) {
	m := New(4)
	for i := 0; i < 100; i += 2 {
		m.Add(kv.SeqNum(i+1), kv.KindSet, []byte(fmt.Sprintf("k%03d", i)), nil)
	}
	it := m.NewIterator()
	// Seek to an absent key lands on the next present one.
	it.Seek(kv.MakeSearchKey(nil, []byte("k051"), kv.MaxSeqNum))
	if !it.Valid() || string(it.Key().UserKey()) != "k052" {
		t.Fatalf("seek landed on %v", it.Key())
	}
	// Seek past the end invalidates.
	it.Seek(kv.MakeSearchKey(nil, []byte("z"), kv.MaxSeqNum))
	if it.Valid() {
		t.Error("seek past end should invalidate")
	}
	// Seek to exact first.
	it.Seek(kv.MakeSearchKey(nil, []byte("k000"), kv.MaxSeqNum))
	if !it.Valid() || string(it.Key().UserKey()) != "k000" {
		t.Fatalf("seek to first landed on %v", it.Key())
	}
}

func TestSizeAccounting(t *testing.T) {
	m := New(5)
	if m.ApproximateSize() != 0 || !m.Empty() {
		t.Error("fresh memtable not empty")
	}
	m.Add(1, kv.KindSet, []byte("abc"), make([]byte, 1000))
	if m.ApproximateSize() < 1000 {
		t.Errorf("size %d too small", m.ApproximateSize())
	}
	if m.Len() != 1 || m.Empty() {
		t.Error("length accounting wrong")
	}
}

func TestCallerBufferReuseSafe(t *testing.T) {
	m := New(6)
	k := []byte("key")
	v := []byte("value")
	m.Add(1, kv.KindSet, k, v)
	k[0] = 'x'
	v[0] = 'x'
	got, _, ok := m.Get([]byte("key"), 1)
	if !ok || string(got) != "value" {
		t.Errorf("mutation of caller buffers leaked into memtable: %q ok=%v", got, ok)
	}
}

// TestAgainstReferenceModel drives random operations against a map
// and checks Get results at every sequence number boundary.
func TestAgainstReferenceModel(t *testing.T) {
	type op struct {
		Key byte
		Val uint16
		Del bool
	}
	f := func(ops []op) bool {
		m := New(9)
		type state struct {
			val string
			del bool
		}
		history := make(map[kv.SeqNum]map[string]state)
		cur := map[string]state{}
		for i, o := range ops {
			k := []byte{o.Key % 16}
			seq := kv.SeqNum(i + 1)
			if o.Del {
				m.Add(seq, kv.KindDelete, k, nil)
				cur[string(k)] = state{del: true}
			} else {
				v := fmt.Sprint(o.Val)
				m.Add(seq, kv.KindSet, k, []byte(v))
				cur[string(k)] = state{val: v}
			}
			snap := make(map[string]state, len(cur))
			for kk, vv := range cur {
				snap[kk] = vv
			}
			history[seq] = snap
		}
		for seq, snap := range history {
			for kk, st := range snap {
				v, kind, ok := m.Get([]byte(kk), seq)
				if !ok {
					return false
				}
				if st.del != (kind == kv.KindDelete) {
					return false
				}
				if !st.del && string(v) != st.val {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIterationMatchesSortedInsertion(t *testing.T) {
	m := New(10)
	var keys []string
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("%08x", rng.Uint32())
		keys = append(keys, k)
		m.Add(kv.SeqNum(i+1), kv.KindSet, []byte(k), []byte(k))
	}
	sort.Strings(keys)
	it := m.NewIterator()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if string(it.Key().UserKey()) != keys[i] {
			t.Fatalf("position %d: got %q want %q", i, it.Key().UserKey(), keys[i])
		}
		if !bytes.Equal(it.Value(), []byte(keys[i])) {
			t.Fatalf("value mismatch at %d", i)
		}
		i++
	}
	if i != len(keys) {
		t.Errorf("iterated %d, want %d", i, len(keys))
	}
}

func TestIteratorBackward(t *testing.T) {
	m := New(12)
	var keys []string
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("%08x", rng.Uint32())
		keys = append(keys, k)
		m.Add(kv.SeqNum(i+1), kv.KindSet, []byte(k), []byte(k))
	}
	sort.Strings(keys)

	// Full reverse scan.
	it := m.NewIterator()
	i := len(keys) - 1
	for it.SeekToLast(); it.Valid(); it.Prev() {
		if string(it.Key().UserKey()) != keys[i] {
			t.Fatalf("reverse position %d: got %q want %q", i, it.Key().UserKey(), keys[i])
		}
		i--
	}
	if i != -1 {
		t.Fatalf("reverse scan stopped at %d", i)
	}

	// Seek then Prev: largest key < target.
	target := keys[150]
	it.Seek(kv.MakeSearchKey(nil, []byte(target), kv.MaxSeqNum))
	it.Prev()
	if !it.Valid() || string(it.Key().UserKey()) != keys[149] {
		t.Fatalf("seek+prev landed on %v", it.Key())
	}
	// Prev from the first entry invalidates.
	it.SeekToFirst()
	it.Prev()
	if it.Valid() {
		t.Fatal("Prev before first entry should invalidate")
	}
	// Empty memtable.
	empty := New(1)
	eit := empty.NewIterator()
	eit.SeekToLast()
	if eit.Valid() {
		t.Fatal("SeekToLast on empty memtable valid")
	}
}

// TestOneWriterConcurrentReaders: Gets and iterators run without a lock
// beside the one writer. Every entry added before a read began is seen
// by it, whole, and iteration stays in order both ways. Run under -race.
func TestOneWriterConcurrentReaders(t *testing.T) {
	m := New(11)
	const n = 20000 // 7919 is prime: entry i has a key of its own
	key := func(i int) []byte { return fmt.Appendf(nil, "key%06d", (i*7919)%n) }
	var added atomic.Int64 // entries 1..added are in
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			m.Add(kv.SeqNum(i), kv.KindSet, key(i), fmt.Appendf(nil, "v%d", i))
			added.Store(int64(i))
		}
	}()
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for done := false; !done; {
				seen := int(added.Load())
				done = seen == n
				if seen == 0 {
					continue
				}
				if r%2 == 0 {
					for j := 0; j < 200; j++ {
						i := 1 + rng.Intn(seen)
						if v, kind, ok := m.Get(key(i), kv.SeqNum(seen)); !ok || kind != kv.KindSet || string(v) != fmt.Sprintf("v%d", i) {
							errs <- fmt.Errorf("Get of entry %d at %d = %q, %v, ok %v", i, seen, v, kind, ok)
							return
						}
					}
					continue
				}
				it := m.NewIterator()
				count := 0
				var prev kv.InternalKey
				for it.SeekToFirst(); it.Valid(); it.Next() {
					if prev != nil && kv.CompareInternal(prev, it.Key()) >= 0 {
						errs <- fmt.Errorf("forward order broken at %s", it.Key())
						return
					}
					prev = it.Key() // aliases the slab: stable
					if it.Key().Seq() <= kv.SeqNum(seen) {
						count++
					}
				}
				if count != seen {
					errs <- fmt.Errorf("iterator saw %d of the %d entries added before it began", count, seen)
					return
				}
				prev = nil
				it.SeekToLast()
				for j := 0; it.Valid() && j < 50; j++ {
					if prev != nil && kv.CompareInternal(it.Key(), prev) >= 0 {
						errs <- fmt.Errorf("backward order broken at %s", it.Key())
						return
					}
					prev = it.Key()
					it.Prev()
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
