// Package kv holds the primitive types shared by every layer of the
// store: user keys and values, internal keys (user key + sequence
// number + kind), the internal-key ordering used by memtables,
// SSTables and compactions, and common size units.
package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// Common byte-size units.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
)

// SeqNum is a monotonically increasing sequence number assigned to
// every mutation. Sequence numbers order mutations of the same user
// key and implement snapshot visibility.
type SeqNum uint64

// MaxSeqNum is the largest representable sequence number. Internal
// keys store the sequence in 56 bits, exactly as LevelDB does.
const MaxSeqNum SeqNum = (1 << 56) - 1

// Kind discriminates the type of a mutation stored in an internal key.
type Kind uint8

const (
	// KindDelete marks a tombstone.
	KindDelete Kind = 0
	// KindSet marks a regular value write.
	KindSet Kind = 1
	// KindPointer marks a value write whose value lives in the value
	// log: the entry's value is the 16-byte vlog.Pointer to its record.
	KindPointer Kind = 2

	maxKind = KindPointer
)

func (k Kind) String() string {
	switch k {
	case KindDelete:
		return "DEL"
	case KindSet:
		return "SET"
	case KindPointer:
		return "PTR"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// InternalKey is a user key followed by an 8-byte trailer encoding
// (seq << 8 | kind) in little-endian order, the LevelDB layout.
type InternalKey []byte

// TrailerLen is the number of bytes appended to a user key to form an
// internal key.
const TrailerLen = 8

// MakeInternalKey appends the trailer for (seq, kind) to ukey,
// reusing dst's storage when possible.
func MakeInternalKey(dst []byte, ukey []byte, seq SeqNum, kind Kind) InternalKey {
	dst = append(slices.Grow(dst[:0], len(ukey)+TrailerLen), ukey...)
	return binary.LittleEndian.AppendUint64(dst, uint64(seq)<<8|uint64(kind))
}

// MakeSearchKey builds the internal key that sorts immediately before
// every entry for ukey visible at seq. Because internal ordering
// places higher sequence numbers first, a search key uses the given
// sequence with the largest kind.
func MakeSearchKey(dst []byte, ukey []byte, seq SeqNum) InternalKey {
	return MakeInternalKey(dst, ukey, seq, maxKind)
}

// UserKey returns the user-key prefix of an internal key.
func (ik InternalKey) UserKey() []byte {
	return ik[:len(ik)-TrailerLen]
}

// Seq returns the sequence number encoded in the trailer.
func (ik InternalKey) Seq() SeqNum {
	return SeqNum(binary.LittleEndian.Uint64(ik[len(ik)-TrailerLen:]) >> 8)
}

// Kind returns the mutation kind encoded in the trailer.
func (ik InternalKey) Kind() Kind {
	return Kind(ik[len(ik)-TrailerLen] & 0xff)
}

// Valid reports whether ik is long enough to hold a trailer.
func (ik InternalKey) Valid() bool {
	return len(ik) >= TrailerLen
}

// Clone returns a copy of ik that does not share storage.
func (ik InternalKey) Clone() InternalKey {
	return append(InternalKey(nil), ik...)
}

func (ik InternalKey) String() string {
	if !ik.Valid() {
		return fmt.Sprintf("invalid-internal-key(%q)", []byte(ik))
	}
	return fmt.Sprintf("%q#%d,%s", ik.UserKey(), ik.Seq(), ik.Kind())
}

// CompareUser orders user keys bytewise, the only comparator the
// store supports.
func CompareUser(a, b []byte) int {
	return bytes.Compare(a, b)
}

// CompareInternal orders internal keys by user key ascending, then
// sequence number descending, then kind descending, so that the most
// recent mutation of a user key sorts first.
func CompareInternal(a, b InternalKey) int {
	if c := bytes.Compare(a.UserKey(), b.UserKey()); c != 0 {
		return c
	}
	at := binary.LittleEndian.Uint64(a[len(a)-TrailerLen:])
	bt := binary.LittleEndian.Uint64(b[len(b)-TrailerLen:])
	switch {
	case at > bt:
		return -1
	case at < bt:
		return 1
	}
	return 0
}
