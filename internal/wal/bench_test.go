package wal

import (
	"bytes"
	"io"
	"testing"
)

func BenchmarkAddRecord(b *testing.B) {
	var buf bytes.Buffer
	w := NewTaggedWriter(&buf, testTag)
	rec := make([]byte, 1100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.AddRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(1100)
}

func BenchmarkReadRecord(b *testing.B) {
	var buf bytes.Buffer
	w := NewTaggedWriter(&buf, testTag)
	rec := make([]byte, 1100)
	for i := 0; i < 10000; i++ {
		w.AddRecord(rec)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewTaggedReader(bytes.NewReader(data), testTag)
		n := 0
		for {
			if _, err := r.ReadRecord(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != 10000 {
			b.Fatal(n)
		}
	}
	b.SetBytes(int64(len(data)))
}
