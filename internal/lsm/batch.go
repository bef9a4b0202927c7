package lsm

import (
	"encoding/binary"
	"fmt"

	"sealdb/internal/kv"
	"sealdb/internal/vlog"
)

// batchHeaderLen is 8 bytes of base sequence plus 4 bytes of count,
// LevelDB's write-batch header.
const batchHeaderLen = 12

// Batch collects mutations applied (and logged) atomically.
type Batch struct {
	rep   []byte
	count uint32
	bytes int64 // key+value payload, for stats
	// Commit-queue state (ApplyCtx), written under the DB's mu.
	done  bool
	err   error
	group *GroupCommit
}

// NewBatch returns an empty batch.
func NewBatch() *Batch {
	return &Batch{rep: make([]byte, batchHeaderLen)}
}

// Put queues a key/value write.
func (b *Batch) Put(key, value []byte) {
	b.rep = append(b.rep, byte(kv.KindSet))
	b.rep = binary.AppendUvarint(b.rep, uint64(len(key)))
	b.rep = append(b.rep, key...)
	b.rep = binary.AppendUvarint(b.rep, uint64(len(value)))
	b.rep = append(b.rep, value...)
	b.count++
	b.bytes += int64(len(key) + len(value))
}

// Delete queues a tombstone.
func (b *Batch) Delete(key []byte) {
	b.rep = append(b.rep, byte(kv.KindDelete))
	b.rep = binary.AppendUvarint(b.rep, uint64(len(key)))
	b.rep = append(b.rep, key...)
	b.count++
	b.bytes += int64(len(key))
}

// Len returns the number of queued mutations.
func (b *Batch) Len() int { return int(b.count) }

// Size returns the encoded size in bytes.
func (b *Batch) Size() int64 { return int64(len(b.rep)) }

// Reset clears the batch for reuse, keeping the backing buffer's
// capacity. Put and Delete's pool and each server connection's batch
// rely on it: after a warm-up a reused batch serves steady-state
// traffic without reallocating.
func (b *Batch) Reset() {
	b.rep = b.rep[:batchHeaderLen]
	b.count = 0
	b.bytes = 0
}

// Cap returns the capacity of the batch's backing buffer. Pools use
// it to drop batches that ballooned past their size bound instead of
// pinning the memory forever.
func (b *Batch) Cap() int { return cap(b.rep) }

func (b *Batch) setSeq(seq kv.SeqNum) {
	binary.LittleEndian.PutUint64(b.rep[0:8], uint64(seq))
	binary.LittleEndian.PutUint32(b.rep[8:12], b.count)
}

// decodeBatch iterates an encoded batch, calling fn for each entry
// with its assigned sequence number. Used by log replay and Apply. recs
// are the value records of the value-log group the batch was logged in
// (nil for a WAL record): each batchKindSeparated entry stands for the
// next of them, and decodes as a Set of the record's key to a pointer
// at it.
func decodeBatch(rep []byte, recs []vlog.Record, fn func(seq kv.SeqNum, kind kv.Kind, key, value []byte) error) (kv.SeqNum, int, error) {
	if len(rep) < batchHeaderLen {
		return 0, 0, fmt.Errorf("lsm: batch too short (%d bytes)", len(rep))
	}
	base := kv.SeqNum(binary.LittleEndian.Uint64(rep[0:8]))
	count := binary.LittleEndian.Uint32(rep[8:12])
	p := rep[batchHeaderLen:]
	for i := uint32(0); i < count; i++ {
		if len(p) < 1 {
			return 0, 0, fmt.Errorf("lsm: batch truncated at entry %d", i)
		}
		kind := kv.Kind(p[0])
		p = p[1:]
		if kind == batchKindSeparated {
			if len(recs) == 0 {
				return 0, 0, fmt.Errorf("lsm: separated entry %d has no value record in its group", i)
			}
			var stored [vlogPointerLen]byte
			stored[0] = vlogTagPtr
			vlog.AppendPointer(stored[1:1], recs[0].Ptr)
			if err := fn(base+kv.SeqNum(i), kv.KindSet, recs[0].Key, stored[:]); err != nil {
				return 0, 0, err
			}
			recs = recs[1:]
			continue
		}
		klen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < klen {
			return 0, 0, fmt.Errorf("lsm: bad key length at entry %d", i)
		}
		key := p[n : n+int(klen)]
		p = p[n+int(klen):]
		var value []byte
		if kind == kv.KindSet {
			vlen, n := binary.Uvarint(p)
			if n <= 0 || uint64(len(p)-n) < vlen {
				return 0, 0, fmt.Errorf("lsm: bad value length at entry %d", i)
			}
			value = p[n : n+int(vlen)]
			p = p[n+int(vlen):]
		} else if kind != kv.KindDelete {
			return 0, 0, fmt.Errorf("lsm: unknown batch entry kind %d", kind)
		}
		if err := fn(base+kv.SeqNum(i), kind, key, value); err != nil {
			return 0, 0, err
		}
	}
	if len(p) != 0 {
		return 0, 0, fmt.Errorf("lsm: %d trailing bytes in batch", len(p))
	}
	if len(recs) != 0 {
		return 0, 0, fmt.Errorf("lsm: %d value records in the group beyond the batch's separated entries", len(recs))
	}
	return base + kv.SeqNum(count) - 1, int(count), nil
}

// batchBaseSeq peeks the base sequence number of an encoded batch
// without decoding its entries. Replay uses it to check sequence
// continuity before applying a record.
func batchBaseSeq(rep []byte) (kv.SeqNum, bool) {
	if len(rep) < batchHeaderLen {
		return 0, false
	}
	return kv.SeqNum(binary.LittleEndian.Uint64(rep[0:8])), true
}
