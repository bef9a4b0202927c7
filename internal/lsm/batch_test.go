package lsm

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"sealdb/internal/kv"
)

func TestBatchEncodeDecodeRoundTrip(t *testing.T) {
	type op struct {
		Key, Val []byte
		Del      bool
	}
	f := func(ops []op) bool {
		b := NewBatch()
		for _, o := range ops {
			if o.Del {
				b.Delete(o.Key)
			} else {
				b.Put(o.Key, o.Val)
			}
		}
		b.setSeq(1000)
		var got []op
		last, n, err := decodeBatch(b.rep, nil, func(seq kv.SeqNum, kind kv.Kind, key, value []byte) error {
			if seq != 1000+kv.SeqNum(len(got)) {
				t.Errorf("seq %d at index %d", seq, len(got))
			}
			got = append(got, op{
				Key: append([]byte(nil), key...),
				Val: append([]byte(nil), value...),
				Del: kind == kv.KindDelete,
			})
			return nil
		})
		if err != nil || n != len(ops) {
			return false
		}
		if len(ops) > 0 && last != 1000+kv.SeqNum(len(ops))-1 {
			return false
		}
		for i := range ops {
			if got[i].Del != ops[i].Del || !bytes.Equal(got[i].Key, ops[i].Key) {
				return false
			}
			if !ops[i].Del {
				want := ops[i].Val
				if want == nil {
					want = []byte{}
				}
				gotv := got[i].Val
				if gotv == nil {
					gotv = []byte{}
				}
				if !bytes.Equal(gotv, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBatchDecodeRejectsCorruption(t *testing.T) {
	b := NewBatch()
	b.Put([]byte("key"), []byte("value"))
	b.Delete([]byte("other"))
	b.setSeq(5)
	rep := append([]byte(nil), b.rep...)

	nop := func(kv.SeqNum, kv.Kind, []byte, []byte) error { return nil }

	// Too short.
	if _, _, err := decodeBatch(rep[:batchHeaderLen-1], nil, nop); err == nil {
		t.Error("short batch accepted")
	}
	// Truncated entry.
	if _, _, err := decodeBatch(rep[:len(rep)-3], nil, nop); err == nil {
		t.Error("truncated batch accepted")
	}
	// Unknown kind byte.
	bad := append([]byte(nil), rep...)
	bad[batchHeaderLen] = 99
	if _, _, err := decodeBatch(bad, nil, nop); err == nil {
		t.Error("unknown kind accepted")
	}
	// Trailing garbage.
	if _, _, err := decodeBatch(append(rep, 0xde, 0xad), nil, nop); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Clean decode still works.
	if _, n, err := decodeBatch(rep, nil, nop); err != nil || n != 2 {
		t.Errorf("clean decode: n=%d err=%v", n, err)
	}
}

func TestBatchReset(t *testing.T) {
	b := NewBatch()
	b.Put([]byte("a"), []byte("1"))
	b.Delete([]byte("b"))
	if b.Len() != 2 || b.bytes == 0 {
		t.Fatalf("pre-reset state: len=%d bytes=%d", b.Len(), b.bytes)
	}
	b.Reset()
	if b.Len() != 0 || b.bytes != 0 || b.Size() != batchHeaderLen {
		t.Errorf("reset left len=%d bytes=%d size=%d", b.Len(), b.bytes, b.Size())
	}
	// Reusable after reset.
	b.Put([]byte("c"), []byte("2"))
	b.setSeq(1)
	count := 0
	decodeBatch(b.rep, nil, func(kv.SeqNum, kv.Kind, []byte, []byte) error {
		count++
		return nil
	})
	if count != 1 {
		t.Errorf("decoded %d entries after reuse", count)
	}
}

func TestBatchResetKeepsCapacity(t *testing.T) {
	// The server's batch pool leans on Reset keeping the backing
	// buffer: a pooled batch must not reallocate when refilled to its
	// previous size.
	b := NewBatch()
	val := make([]byte, 1024)
	for i := 0; i < 64; i++ {
		b.Put([]byte(fmt.Sprintf("key%04d", i)), val)
	}
	grown := b.Cap()
	if grown <= batchHeaderLen {
		t.Fatalf("Cap() = %d, want growth past the header", grown)
	}
	b.Reset()
	if b.Cap() != grown {
		t.Fatalf("Reset changed capacity: %d -> %d", grown, b.Cap())
	}
	for i := 0; i < 64; i++ {
		b.Put([]byte(fmt.Sprintf("key%04d", i)), val)
	}
	if b.Cap() != grown {
		t.Fatalf("refill to the same size reallocated: %d -> %d", grown, b.Cap())
	}
}

func TestWALRotationUnderLargeBatches(t *testing.T) {
	// Batches near and beyond the WAL extent size must be handled by
	// early rotation and oversized log extents.
	cfg := tinyConfig(ModeSEALDB)
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	big := bytes.Repeat([]byte("x"), int(cfg.MemtableSize)) // larger than a memtable
	for i := 0; i < 5; i++ {
		b := NewBatch()
		b.Put([]byte{byte('a' + i)}, big)
		if err := d.Apply(b); err != nil {
			t.Fatalf("big batch %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		v, err := d.Get([]byte{byte('a' + i)})
		if err != nil || !bytes.Equal(v, big) {
			t.Fatalf("big value %d lost: err=%v len=%d", i, err, len(v))
		}
	}
	// And they survive recovery.
	dev := d.Device()
	d.Close()
	d2, err := OpenDevice(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for i := 0; i < 5; i++ {
		if v, err := d2.Get([]byte{byte('a' + i)}); err != nil || len(v) != len(big) {
			t.Fatalf("big value %d lost after recovery: err=%v len=%d", i, err, len(v))
		}
	}
}
