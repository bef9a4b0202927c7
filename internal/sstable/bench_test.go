package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sealdb/internal/kv"
)

func benchTable(b *testing.B, n int) (*Table, []string) {
	b.Helper()
	bl := NewBuilder()
	keys := make([]string, n)
	val := make([]byte, 1024)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("key%09d", i)
		bl.Add(kv.MakeInternalKey(nil, []byte(keys[i]), kv.SeqNum(i+1), kv.KindSet), val)
	}
	data, _, err := bl.Finish()
	if err != nil {
		b.Fatal(err)
	}
	t, err := Open(bytes.NewReader(data), int64(len(data)), 1, NewCache(64<<20))
	if err != nil {
		b.Fatal(err)
	}
	return t, keys
}

func BenchmarkBuild(b *testing.B) {
	val := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder()
		for j := 0; j < 1000; j++ {
			bl.Add(kv.MakeInternalKey(nil, fmt.Appendf(nil, "key%09d", j), kv.SeqNum(j+1), kv.KindSet), val)
		}
		if _, _, err := bl.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(1000 * 1024)
}

func BenchmarkTableGet(b *testing.B) {
	t, keys := benchTable(b, 10000)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[rng.Intn(len(keys))]
		if _, _, ok, err := t.Get([]byte(k), kv.MaxSeqNum); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkTableGetAbsent(b *testing.B) {
	t, _ := benchTable(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok, _ := t.Get(fmt.Appendf(nil, "nope%09d", i), kv.MaxSeqNum); ok {
			b.Fatal("phantom hit")
		}
	}
}

func BenchmarkTableIterate(b *testing.B) {
	t, _ := benchTable(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := t.NewIterator()
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			n++
		}
		if n != 10000 {
			b.Fatal(n)
		}
	}
	b.SetBytes(10000 * 1024)
}

func BenchmarkBloomBuild(b *testing.B) {
	keys := make([][]byte, 10000)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "key%09d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildBloom(keys)
	}
}

func BenchmarkBloomQuery(b *testing.B) {
	keys := make([][]byte, 10000)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "key%09d", i)
	}
	f := buildBloom(keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bloomMayContain(f, keys[i%len(keys)])
	}
}
