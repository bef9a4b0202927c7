package sstable

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"sealdb/internal/kv"
)

// identityCorpus is a fixed set of tables whose bytes were hashed with
// the builder as it stood before it learnt to build into a caller's
// buffer (PR 19's). Whatever the builder does about memory, what it
// writes does not change.
var identityCorpus = []struct {
	name     string
	entries  int
	valueLen func(i int) int
	golden   string
}{
	{"1KiB", 240, func(int) int { return 1024 }, "d188f303230b2459"},
	{"64B", 3000, func(int) int { return 64 }, "5c9f2fcea6a6eb8e"},
	{"one-entry", 1, func(int) int { return 100 }, "c891b25edd7a80f3"},
	// 4 varint bytes + a 19-byte internal key + 4065 + one restart +
	// the count is 4096: every even entry lands exactly on the block
	// cut, every odd one a byte short of it.
	{"at-cut", 64, func(i int) int { return 4065 - i%2 }, "a39e8cea1aa02fff"},
	{"tombstones", 500, func(i int) int { return (i % 3) * 40 }, "bc3d1f80b6186b31"},
}

// identityFill adds the corpus entries to b: 11-byte user keys in
// order, values from a seeded generator (half random, half a run of
// zeros), every third entry of a zero-length value a tombstone.
func identityFill(b *Builder, entries int, valueLen func(int) int) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < entries; i++ {
		v := make([]byte, valueLen(i))
		rng.Read(v[:len(v)/2])
		kind := kv.KindSet
		if len(v) == 0 {
			kind = kv.KindDelete
		}
		b.Add(kv.MakeInternalKey(nil, fmt.Appendf(nil, "key%08d", i*7), kv.SeqNum(i+1), kind), v)
	}
}

func tableHash(t *testing.T, b *Builder) string {
	t.Helper()
	data, meta, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Size != int64(len(data)) {
		t.Fatalf("meta.Size %d, table is %d bytes", meta.Size, len(data))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// TestBuilderBytesIdentical builds each corpus table the four ways a
// table gets its buffer: none given (it grows from nil), a recycled one
// with room for all of it, one far too small (it must still grow), and
// a builder reset after another table. Recycled buffers come back full
// of old bytes, so each is dirtied first.
func TestBuilderBytesIdentical(t *testing.T) {
	dirty := func(n int) []byte {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = 0xff
		}
		return buf[:0]
	}
	for _, c := range identityCorpus {
		reused := NewBuilder()
		identityFill(reused.Reset(dirty(1<<10), 10), 77, func(i int) int { return i })
		if _, _, err := reused.Finish(); err != nil {
			t.Fatal(err)
		}
		for how, b := range map[string]*Builder{
			"grown from nil": NewBuilder(),
			"presized":       NewBuilder().Reset(dirty(512<<10), 10),
			"too small":      NewBuilder().Reset(dirty(16), 10),
			"reset":          reused.Reset(dirty(300<<10), 10),
		} {
			identityFill(b, c.entries, c.valueLen)
			if got := tableHash(t, b); got != c.golden {
				t.Errorf("%s, %s: table hash %s, recorded %s", c.name, how, got, c.golden)
			}
		}
	}
}

// buildBloom is the filter over keys, as the builder makes it from
// their hashes.
func buildBloom(keys [][]byte) []byte {
	hashes := make([]uint32, len(keys))
	for i, k := range keys {
		hashes[i] = bloomHash(k)
	}
	return appendBloom(nil, hashes, 10)
}
