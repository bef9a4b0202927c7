package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync/atomic"

	"sealdb/internal/lsm"
	"sealdb/internal/sealclient"
)

// kvStore is what a client drives: *lsm.DB in process, tcpStore over
// the wire. Tests wrap it to plant faults.
type kvStore interface {
	Get(key []byte) ([]byte, error)
	Put(key, value []byte) error
	Delete(key []byte) error
	Scan(start []byte, limit int) ([]lsm.KV, error)
}

// tcpStore adapts a sealclient connection to kvStore.
type tcpStore struct{ *sealclient.Client }

func (s tcpStore) Scan(start []byte, limit int) ([]lsm.KV, error) {
	kvs, err := s.Client.Scan(start, limit)
	out := make([]lsm.KV, len(kvs))
	for i, kv := range kvs {
		out[i] = lsm.KV{Key: kv.Key, Value: kv.Value}
	}
	return out, err
}

func isNotFound(err error) bool {
	return errors.Is(err, lsm.ErrNotFound) || errors.Is(err, sealclient.ErrNotFound)
}

// ledger is the benchmark's record of what it wrote: per key index, the
// state it last issued and the state the store last acknowledged. A
// state is version<<1 | live. Each key has one writer (see
// tcp_hot_mixed), so a key's versions are issued and acknowledged in
// order; the other client reads the states atomically to bound what a
// concurrent Get may return.
type ledger struct {
	issued []atomic.Uint32
	acked  []atomic.Uint32
}

func newLedger(keySpace int) *ledger {
	return &ledger{issued: make([]atomic.Uint32, keySpace), acked: make([]atomic.Uint32, keySpace)}
}

// issue starts a write of key idx and returns the version it carries.
func (l *ledger) issue(idx uint32, live bool) uint32 {
	ver := l.issued[idx].Load()>>1 + 1
	st := ver << 1
	if live {
		st |= 1
	}
	l.issued[idx].Store(st)
	return ver
}

// ack records that the store acknowledged the last issued write.
func (l *ledger) ack(idx uint32) { l.acked[idx].Store(l.issued[idx].Load()) }

// checkGet judges a Get of key idx. before is the acknowledged state
// read before the call, after the issued state read after it: with one
// client they are equal and the check is exact (version == last
// written); under two clients the version must lie between them.
func checkGet(v []byte, err error, idx, before, after uint32) bool {
	if err != nil {
		return isNotFound(err) && before&1 == 0 && before == after
	}
	ver, ok := valueVersion(v, idx)
	if !ok || ver < before>>1 || ver > after>>1 {
		return false
	}
	return ver > before>>1 || before&1 == 1
}

// checkScan judges a Scan that started at the existing key `start` with
// the given limit (one client only): keys ascend from the start key,
// and every value names its own key at the version last written.
func (l *ledger) checkScan(kvs []lsm.KV, err error, start []byte, limit int) bool {
	if err != nil || len(kvs) == 0 || len(kvs) > limit || !bytes.Equal(kvs[0].Key, start) {
		return false
	}
	var kbuf [keySize]byte
	for i, kv := range kvs {
		if i > 0 && bytes.Compare(kvs[i-1].Key, kv.Key) >= 0 {
			return false
		}
		if len(kv.Value) < valueHeader {
			return false
		}
		idx := uint32(binary.LittleEndian.Uint64(kv.Value))
		if int(idx) >= len(l.acked) || !bytes.Equal(putKey(kbuf[:], idx), kv.Key) {
			return false
		}
		st := l.acked[idx].Load()
		if ver, ok := valueVersion(kv.Value, idx); !ok || st&1 == 0 || ver != st>>1 {
			return false
		}
	}
	return true
}
