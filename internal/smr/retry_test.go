package smr

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sealdb/internal/platter"
)

type scriptedErr struct {
	transient bool
}

func (e *scriptedErr) Error() string   { return fmt.Sprintf("scripted (transient=%v)", e.transient) }
func (e *scriptedErr) Transient() bool { return e.transient }

// scriptedDrive fails the next `failures` writes with err, then
// succeeds.
type scriptedDrive struct {
	Drive
	failures int
	err      error
	writes   int
}

func (d *scriptedDrive) WriteAt(p []byte, off int64) (time.Duration, error) {
	d.writes++
	if d.failures > 0 {
		d.failures--
		return 0, d.err
	}
	return d.Drive.WriteAt(p, off)
}

func newTestRaw(t *testing.T) *RawDrive {
	t.Helper()
	disk := platter.New(platter.DefaultConfig(1 << 20))
	return NewRaw(disk, 4096)
}

func TestRetryRecoversTransient(t *testing.T) {
	inner := newTestRaw(t)
	s := &scriptedDrive{Drive: inner, failures: 2, err: &scriptedErr{transient: true}}
	r := NewRetry(s, 3, time.Millisecond)

	p := []byte("hello durable world")
	dur, err := r.WriteAt(p, 0)
	if err != nil {
		t.Fatalf("write did not recover: %v", err)
	}
	if dur < 3*time.Millisecond { // 1ms + 2ms backoff charged
		t.Errorf("backoff not charged to service time: %v", dur)
	}
	st := r.Stats()
	if st.Recovered != 1 || st.Retried != 2 || st.Exhausted != 0 {
		t.Errorf("stats = %+v, want retried=2 recovered=1 exhausted=0", st)
	}
	got := make([]byte, len(p))
	if _, err := r.ReadAt(got, 0); err != nil || string(got) != string(p) {
		t.Fatalf("read back: %q, %v", got, err)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	inner := newTestRaw(t)
	werr := &scriptedErr{transient: true}
	s := &scriptedDrive{Drive: inner, failures: 10, err: werr}
	r := NewRetry(s, 3, time.Millisecond)

	_, err := r.WriteAt([]byte("x"), 0)
	if !errors.Is(err, werr) {
		t.Fatalf("want scripted error after exhaustion, got %v", err)
	}
	if st := r.Stats(); st.Exhausted != 1 || st.Retried != 3 {
		t.Errorf("stats = %+v, want retried=3 exhausted=1", st)
	}
	if s.writes != 4 { // initial + 3 retries
		t.Errorf("inner saw %d writes, want 4", s.writes)
	}
}

func TestRetryPassesPermanentThrough(t *testing.T) {
	inner := newTestRaw(t)
	werr := &scriptedErr{transient: false}
	s := &scriptedDrive{Drive: inner, failures: 10, err: werr}
	r := NewRetry(s, 3, time.Millisecond)

	_, err := r.WriteAt([]byte("x"), 0)
	if !errors.Is(err, werr) {
		t.Fatalf("want permanent error, got %v", err)
	}
	if s.writes != 1 {
		t.Errorf("permanent error was retried: %d writes", s.writes)
	}
	if IsTransient(err) {
		t.Error("permanent error classified transient")
	}
}
