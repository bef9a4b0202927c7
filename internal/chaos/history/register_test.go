package history

import (
	"strings"
	"testing"
)

func rput(client int, v string, inv, resp int64) RegOp {
	return RegOp{Client: client, Kind: KindPut, Key: "k", Value: v, Invoke: inv, Response: resp}
}

func rdel(client int, inv, resp int64) RegOp {
	return RegOp{Client: client, Kind: KindDelete, Key: "k", Invoke: inv, Response: resp}
}

func rget(client int, v string, inv, resp int64) RegOp {
	return RegOp{Client: client, Kind: KindGet, Key: "k", Value: v, Found: v != "", Invoke: inv, Response: resp}
}

// wantRegViolation asserts exactly one violation of the given kind.
func wantRegViolation(t *testing.T, ops []RegOp, kind string) {
	t.Helper()
	got := CheckLinearizable(ops)
	if len(got) != 1 || got[0].Kind != kind {
		t.Fatalf("got %v, want exactly one %q violation", got, kind)
	}
	if !strings.Contains(got[0].String(), "key k") {
		t.Fatalf("violation %q does not name its key", got[0])
	}
}

func TestLinearizableConcurrentHistoryPasses(t *testing.T) {
	ops := []RegOp{
		// Two overlapping writers: either order is legal, and reads
		// during the overlap may see them in that order.
		rput(0, "a", 0, 100), rput(1, "b", 0, 100),
		rget(2, "b", 10, 20), rget(3, "a", 30, 40), rget(2, "a", 110, 120),
		// A delete overlapping a read: the read may or may not see it.
		rdel(0, 200, 300), rget(3, "a", 210, 220), rget(2, "", 250, 260),
		rget(3, "", 310, 320),
		// Written again, and a read concurrent with the write.
		rput(1, "c", 400, 500), rget(2, "", 410, 420), rget(3, "c", 450, 460),
		// A read that began before its value's write and ended inside it.
		rput(0, "d", 600, 700), rget(2, "d", 590, 650),
		// Another key, never written: found nothing, legally.
		{Client: 4, Kind: KindGet, Key: "other", Invoke: 0, Response: 1000},
	}
	if got := CheckLinearizable(ops); len(got) != 0 {
		t.Fatalf("linearizable history flagged: %v", got)
	}
}

func TestLinearizableStaleReadIsFlagged(t *testing.T) {
	// b replaced a, wholly, before the read began.
	wantRegViolation(t, []RegOp{rput(0, "a", 0, 10), rput(1, "b", 20, 30), rget(2, "a", 40, 50)}, "stale")
}

func TestLinearizableFutureReadIsFlagged(t *testing.T) {
	wantRegViolation(t, []RegOp{rget(2, "a", 0, 5), rput(0, "a", 10, 20)}, "future")
}

func TestLinearizableReadReadInversionIsFlagged(t *testing.T) {
	// a is in, b is being written: one read sees b, and a read that
	// began after it ended sees a again.
	wantRegViolation(t, []RegOp{
		rput(0, "a", 0, 5), rput(1, "b", 10, 100),
		rget(2, "b", 20, 30), rget(3, "a", 40, 50),
	}, "inversion")
	// The same shape between three reads of two overlapping writes.
	wantRegViolation(t, []RegOp{
		rput(0, "a", 0, 100), rput(1, "b", 0, 100),
		rget(2, "b", 10, 20), rget(3, "a", 30, 40), rget(2, "b", 50, 60),
	}, "inversion")
}

func TestLinearizablePhantomIsFlagged(t *testing.T) {
	wantRegViolation(t, []RegOp{rput(0, "a", 0, 10), rget(2, "z", 20, 30)}, "phantom")
}

func TestLinearizableAbsentReads(t *testing.T) {
	// Found nothing after a put completed, with no delete: stale.
	wantRegViolation(t, []RegOp{rput(0, "a", 0, 10), rget(2, "", 20, 30)}, "stale")
	// ... after a value was read, likewise.
	wantRegViolation(t, []RegOp{rput(0, "a", 0, 100), rget(1, "a", 10, 20), rget(2, "", 30, 40)}, "stale")
	// A delete that began only after the read ended explains nothing.
	wantRegViolation(t, []RegOp{rput(0, "a", 0, 10), rget(2, "", 20, 30), rdel(0, 40, 50)}, "stale")
	// A delete that ended before a read of the value began explains
	// nothing either: it must precede the put.
	wantRegViolation(t, []RegOp{
		rput(0, "a", 0, 10), rdel(1, 1, 2), rget(3, "a", 15, 20), rget(2, "", 30, 40),
	}, "stale")
	// A delete concurrent with the read explains it; so does one before
	// a put still running when the read ended.
	for _, ops := range [][]RegOp{
		{rput(0, "a", 0, 10), rdel(1, 25, 50), rget(2, "", 20, 30)},
		{rput(0, "a", 0, 100), rdel(1, 1, 2), rget(2, "", 30, 40), rget(3, "a", 50, 60)},
	} {
		if got := CheckLinearizable(ops); len(got) != 0 {
			t.Fatalf("legal absent read flagged: %v", got)
		}
	}
}
