package kv

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInternalKeyRoundTrip(t *testing.T) {
	cases := []struct {
		ukey string
		seq  SeqNum
		kind Kind
	}{
		{"", 0, KindDelete},
		{"a", 1, KindSet},
		{"user-key", 12345678, KindSet},
		{"user-key", uint64MaxSeq(), KindDelete},
		{string([]byte{0, 1, 2, 0xff}), 42, KindSet},
	}
	for _, c := range cases {
		ik := MakeInternalKey(nil, []byte(c.ukey), c.seq, c.kind)
		if got := string(ik.UserKey()); got != c.ukey {
			t.Errorf("UserKey = %q, want %q", got, c.ukey)
		}
		if got := ik.Seq(); got != c.seq {
			t.Errorf("Seq = %d, want %d", got, c.seq)
		}
		if got := ik.Kind(); got != c.kind {
			t.Errorf("Kind = %v, want %v", got, c.kind)
		}
		if !ik.Valid() {
			t.Errorf("key %s unexpectedly invalid", ik)
		}
	}
}

func uint64MaxSeq() SeqNum { return MaxSeqNum }

func TestInternalKeyReusesDst(t *testing.T) {
	dst := make([]byte, 0, 64)
	ik := MakeInternalKey(dst, []byte("abc"), 7, KindSet)
	if &dst[:1][0] != &ik[:1][0] {
		t.Error("MakeInternalKey did not reuse dst storage")
	}
}

// TestInternalKeyAllocatesOnce checks that a key built into no storage
// costs one allocation, the user key and trailer together.
func TestInternalKeyAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	ukey := []byte("0123456789abcdef")
	if n := testing.AllocsPerRun(100, func() { keySink = MakeInternalKey(nil, ukey, 7, KindSet) }); n != 1 {
		t.Fatalf("MakeInternalKey(nil, 16-byte key) made %v allocations, want 1", n)
	}
}

var keySink InternalKey

func TestCompareInternalOrdering(t *testing.T) {
	mk := func(u string, s SeqNum, k Kind) InternalKey {
		return MakeInternalKey(nil, []byte(u), s, k)
	}

	// Explicit pairwise expectations.
	tests := []struct {
		a, b InternalKey
		want int
	}{
		{mk("a", 1, KindSet), mk("b", 1, KindSet), -1},
		{mk("b", 1, KindSet), mk("a", 1, KindSet), 1},
		{mk("a", 2, KindSet), mk("a", 1, KindSet), -1}, // higher seq first
		{mk("a", 1, KindSet), mk("a", 2, KindSet), 1},
		{mk("a", 1, KindSet), mk("a", 1, KindDelete), -1}, // higher kind first
		{mk("a", 1, KindSet), mk("a", 1, KindSet), 0},
		{mk("", 1, KindSet), mk("a", 1, KindSet), -1},
	}
	for i, tc := range tests {
		if got := CompareInternal(tc.a, tc.b); got != tc.want {
			t.Errorf("case %d: CompareInternal(%s, %s) = %d, want %d", i, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSearchKeySortsBeforeEntries(t *testing.T) {
	// A search key at seq S must compare <= every entry for the same
	// user key with seq <= S, and > entries with seq > S.
	ukey := []byte("k")
	search := MakeSearchKey(nil, ukey, 50)
	for seq := SeqNum(0); seq <= 100; seq += 10 {
		for _, kind := range []Kind{KindDelete, KindSet, KindPointer} {
			entry := MakeInternalKey(nil, ukey, seq, kind)
			c := CompareInternal(search, entry)
			if seq <= 50 && c > 0 {
				t.Errorf("search#50 should sort <= entry seq=%d kind=%v, got %d", seq, kind, c)
			}
			if seq > 50 && c <= 0 {
				t.Errorf("search#50 should sort after entry seq=%d kind=%v, got %d", seq, kind, c)
			}
		}
	}
}

func TestCompareInternalAgreesWithUserOrder(t *testing.T) {
	f := func(a, b []byte, sa, sb uint32) bool {
		ia := MakeInternalKey(nil, a, SeqNum(sa), KindSet)
		ib := MakeInternalKey(nil, b, SeqNum(sb), KindSet)
		c := CompareInternal(ia, ib)
		uc := bytes.Compare(a, b)
		if uc != 0 {
			return c == uc
		}
		// Same user key: ordering is by seq desc.
		switch {
		case sa > sb:
			return c == -1
		case sa < sb:
			return c == 1
		}
		return c == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	ik := MakeInternalKey(nil, []byte("abc"), 9, KindSet)
	cl := ik.Clone()
	ik[0] = 'z'
	if cl[0] != 'a' {
		t.Error("Clone shares storage with original")
	}
}

func TestCompareInternalTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]InternalKey, 200)
	for i := range keys {
		u := make([]byte, rng.Intn(4))
		rng.Read(u)
		keys[i] = MakeInternalKey(nil, u, SeqNum(rng.Intn(8)), Kind(rng.Intn(2)))
	}
	for i := 0; i < 500; i++ {
		a, b, c := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
		if CompareInternal(a, b) <= 0 && CompareInternal(b, c) <= 0 {
			if CompareInternal(a, c) > 0 {
				t.Fatalf("transitivity violated: %s <= %s <= %s but a > c", a, b, c)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if KindSet.String() != "SET" || KindDelete.String() != "DEL" || KindPointer.String() != "PTR" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unexpected: %s", Kind(9))
	}
}
