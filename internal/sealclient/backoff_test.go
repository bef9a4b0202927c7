package sealclient

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sealdb/internal/wire"
)

// sleepRecorder captures backoff sleeps instead of sleeping.
type sleepRecorder struct {
	mu     sync.Mutex
	sleeps []time.Duration
}

func (r *sleepRecorder) sleep(d time.Duration) {
	r.mu.Lock()
	r.sleeps = append(r.sleeps, d)
	r.mu.Unlock()
}

func (r *sleepRecorder) got() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.sleeps...)
}

// maxJitter makes the full-jitter draw deterministic at its upper
// bound: rnd(n) = n-1, so each sleep equals its cap minus 1ns.
func maxJitter(n int64) int64 { return n - 1 }

func wantSleeps(t *testing.T, rec *sleepRecorder, want []time.Duration) {
	t.Helper()
	got := rec.got()
	if len(got) != len(want) {
		t.Fatalf("slept %d times (%v), want %d (%v)", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestBackoffDoublesWithFullJitter(t *testing.T) {
	// Every request kills the connection: each of the 2 retries must
	// sleep under a cap that doubles from 2ms, and with the jitter
	// pinned to its maximum the exact sequence is 2ms-1, 4ms-1.
	s := newStubServer(t, func(nc net.Conn, f wire.Frame) bool { return false })
	rec := &sleepRecorder{}
	c, err := Dial(s.ln.Addr().String(), Options{
		Timeout: time.Second, Sleep: rec.sleep, Rand: maxJitter,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if _, err := c.Get([]byte("k")); !errors.Is(err, ErrConn) {
		t.Fatalf("Get err = %v, want ErrConn", err)
	}
	ms := time.Millisecond
	wantSleeps(t, rec, []time.Duration{2*ms - 1, 4*ms - 1})
	if got := s.dials.Load(); got != 3 {
		t.Fatalf("server saw %d dials, want 3 (initial + 2 retries)", got)
	}
}

func TestBackoffJitterReachesZero(t *testing.T) {
	// Full jitter draws uniformly from [0, cap): with the rng pinned
	// low every sleep is zero, and Sleep is still invoked once per
	// retry (so injected sleepers observe every attempt).
	s := newStubServer(t, func(nc net.Conn, f wire.Frame) bool { return false })
	rec := &sleepRecorder{}
	c, err := Dial(s.ln.Addr().String(), Options{
		Timeout: time.Second, Sleep: rec.sleep, Rand: func(n int64) int64 { return 0 },
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if _, err := c.Get([]byte("k")); !errors.Is(err, ErrConn) {
		t.Fatalf("Get err = %v, want ErrConn", err)
	}
	wantSleeps(t, rec, []time.Duration{0, 0})
}

func TestDegradedQuadruplesBackoffAndClears(t *testing.T) {
	// Writes answered DEGRADED flip the client's degraded view; read
	// retries then back off under 4x caps (8ms, 16ms instead of 2ms,
	// 4ms). A later successful write clears the view.
	var healthy atomic.Bool
	s := newStubServer(t, func(nc net.Conn, f wire.Frame) bool {
		if f.Op == wire.OpPut {
			st := wire.StatusDegraded
			if healthy.Load() {
				st = wire.StatusOK
			}
			r := wire.Reply(f.ReqID, st, nil)
			return wire.WriteFrame(nc, &r) == nil
		}
		return false // reads: kill the connection to force retries
	})
	rec := &sleepRecorder{}
	c, err := Dial(s.ln.Addr().String(), Options{
		Timeout: time.Second, Sleep: rec.sleep, Rand: maxJitter,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if err := c.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put err = %v, want ErrDegraded", err)
	}
	if !c.Degraded() {
		t.Fatal("client did not note the DEGRADED write")
	}
	if _, err := c.Get([]byte("k")); !errors.Is(err, ErrConn) {
		t.Fatalf("Get err = %v, want ErrConn", err)
	}
	ms := time.Millisecond
	wantSleeps(t, rec, []time.Duration{8*ms - 1, 16*ms - 1})

	healthy.Store(true)
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("healthy Put: %v", err)
	}
	if c.Degraded() {
		t.Fatal("successful write did not clear the degraded view")
	}
}
