package smr

import (
	"errors"
	"sync"
	"time"

	"sealdb/internal/platter"
)

// TransientError is implemented by errors that may succeed on retry
// (e.g. a simulated media hiccup from a fault injector). Errors that
// do not implement it — or whose Transient method returns false — are
// treated as permanent.
type TransientError interface {
	error
	Transient() bool
}

// IsTransient reports whether any error in err's chain declares
// itself transient.
func IsTransient(err error) bool {
	var te TransientError
	return errors.As(err, &te) && te.Transient()
}

// RetryStats counts the retry layer's activity.
type RetryStats struct {
	// Retried is the number of individual retry attempts issued.
	Retried int64
	// Recovered is the number of writes that failed at least once
	// and then succeeded on a retry.
	Recovered int64
	// Exhausted is the number of writes that still failed after the
	// retry budget (the error is surfaced to the caller).
	Exhausted int64
}

// RetryDrive is drive middleware that retries transient WriteAt
// failures a bounded number of times, at once. Reads are not retried
// (the read path has its own recovery semantics), and permanent errors
// pass straight through.
type RetryDrive struct {
	inner   Drive
	retries int

	mu    sync.Mutex
	stats RetryStats // guarded by mu
}

// NewRetry wraps inner with a retry policy of up to retries extra
// attempts.
func NewRetry(inner Drive, retries int) *RetryDrive {
	return &RetryDrive{inner: inner, retries: retries}
}

// Stats returns a snapshot of the retry counters.
func (d *RetryDrive) Stats() RetryStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// note updates the retry counters under the drive's lock, so
// concurrent writers (WAL appends racing a manifest rotation) do not
// tear the counters.
func (d *RetryDrive) note(f func(*RetryStats)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f(&d.stats)
}

// WriteAt implements Drive, retrying transient failures.
func (d *RetryDrive) WriteAt(p []byte, off int64) (time.Duration, error) {
	total, err := d.inner.WriteAt(p, off)
	if err == nil || !IsTransient(err) {
		return total, err
	}
	for range d.retries {
		d.note(func(s *RetryStats) { s.Retried++ })
		dur, retryErr := d.inner.WriteAt(p, off)
		total += dur
		if retryErr == nil {
			d.note(func(s *RetryStats) { s.Recovered++ })
			return total, nil
		}
		err = retryErr
		if !IsTransient(err) {
			return total, err
		}
	}
	d.note(func(s *RetryStats) { s.Exhausted++ })
	return total, err
}

// ReadAt implements Drive.
func (d *RetryDrive) ReadAt(p []byte, off int64) (time.Duration, error) {
	return d.inner.ReadAt(p, off)
}

// Free implements Drive.
func (d *RetryDrive) Free(off, length int64) error { return d.inner.Free(off, length) }

// Guard implements Drive.
func (d *RetryDrive) Guard() int64 { return d.inner.Guard() }

// Capacity implements Drive.
func (d *RetryDrive) Capacity() int64 { return d.inner.Capacity() }

// HostBytesWritten implements Drive.
func (d *RetryDrive) HostBytesWritten() int64 { return d.inner.HostBytesWritten() }

// Disk implements Drive.
func (d *RetryDrive) Disk() *platter.Disk { return d.inner.Disk() }
