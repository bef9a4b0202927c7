// Package faultfs provides a deterministic, seeded fault-injection
// layer for smr.Drive stacks. It models the failure vocabulary of a
// real shingled drive losing power or developing media defects:
//
//   - Power cuts at the N-th write: the in-flight write is torn — a
//     random prefix reaches the platter, the rest is dropped — and
//     every later operation fails with ErrPowerCut until PowerOn.
//   - Injected read/write errors, transient or permanent, scoped by
//     offset range, armed after a write count, limited by a count,
//     or fired probabilistically from the seeded RNG.
//   - Bit flips in acknowledged data (FlipBit), modeling corruption
//     of bytes the device acked but never made durable.
//
// All randomness comes from a caller-provided seed, so a failing
// fault schedule replays exactly.
package faultfs

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sealdb/internal/platter"
	"sealdb/internal/smr"
)

// ErrPowerCut is returned by every operation between a simulated
// power cut and PowerOn.
var ErrPowerCut = &Error{Op: "power", Temporary: false, msg: "faultfs: power is cut"}

// Op names the operation class a rule applies to.
type Op string

// Operation classes for Rule.Op.
const (
	OpWrite Op = "write"
	OpRead  Op = "read"
)

// Error is an injected device error. It implements
// smr.TransientError so the retry middleware can distinguish
// transient hiccups from permanent media failures.
type Error struct {
	Op        string
	Off       int64
	Temporary bool
	msg       string
}

func (e *Error) Error() string {
	if e.msg != "" {
		return e.msg
	}
	kind := "permanent"
	if e.Temporary {
		kind = "transient"
	}
	return fmt.Sprintf("faultfs: injected %s %s error at offset %d", kind, e.Op, e.Off)
}

// Transient implements smr.TransientError.
func (e *Error) Transient() bool { return e.Temporary }

// Rule describes one injected fault. A rule fires when the
// operation class matches, the op's offset range intersects
// [Off, Off+Len) (Len == 0 means any offset), at least After ops of
// that class have already completed, and — if Probability is set —
// the seeded RNG rolls under it. Count limits how many times the
// rule fires (0 = unlimited).
type Rule struct {
	Op          Op
	Off         int64
	Len         int64
	After       int64
	Count       int64
	Probability float64
	Temporary   bool

	fired int64
}

func (r *Rule) matches(op Op, off, length, done int64, rng *rand.Rand) bool {
	if r.Op != op {
		return false
	}
	if done < r.After {
		return false
	}
	if r.Count > 0 && r.fired >= r.Count {
		return false
	}
	if r.Len > 0 && (off+length <= r.Off || off >= r.Off+r.Len) {
		return false
	}
	if r.Probability > 0 && rng.Float64() >= r.Probability {
		return false
	}
	return true
}

// Drive wraps an smr.Drive with deterministic fault injection. It is
// safe for concurrent use; injected outcomes are serialized under an
// internal mutex so a given (seed, schedule) replays identically on
// a single-threaded workload.
type Drive struct {
	inner smr.Drive

	mu     sync.Mutex
	rng    *rand.Rand
	rules  []*Rule
	writes int64 // completed or attempted write ops
	reads  int64
	cutAt  int64 // power cut armed at this write count (0 = disarmed)
	keep   int   // bytes of the torn write that land (< 0: a seeded-random prefix)
	down   bool
	stats  map[string]int64
}

// New wraps inner with a fault injector seeded with seed.
func New(inner smr.Drive, seed int64) *Drive {
	return &Drive{
		inner: inner,
		rng:   rand.New(rand.NewSource(seed)),
		stats: make(map[string]int64),
	}
}

// Inject adds a fault rule. Rules are evaluated in insertion order;
// the first match fires.
func (d *Drive) Inject(r Rule) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rule := r
	d.rules = append(d.rules, &rule)
}

// ClearRules removes all fault rules (armed power cuts stay armed).
func (d *Drive) ClearRules() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rules = nil
}

// CutAtWrite arms a power cut at the n-th write from now (n >= 1):
// that write is torn — a seeded-random prefix reaches the platter —
// and the device then fails everything with ErrPowerCut until
// PowerOn. n <= 0 disarms.
func (d *Drive) CutAtWrite(n int64) { d.TearAtWrite(n, -1) }

// TearAtWrite is CutAtWrite with the tear chosen by the caller:
// exactly the first keep bytes of the n-th write reach the platter
// (all of it when the write is shorter; keep < 0 draws a seeded-random
// prefix). Sweeping keep over a write's length visits every state a
// power cut can leave it in.
func (d *Drive) TearAtWrite(n int64, keep int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n <= 0 {
		d.cutAt = 0
		return
	}
	d.cutAt, d.keep = d.writes+n, keep
}

// PowerOn restores the device after a cut. Volatile host state is
// the caller's problem; the platter keeps whatever was written.
func (d *Drive) PowerOn() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.down = false
	d.cutAt = 0
}

// Down reports whether the device is currently powered off.
func (d *Drive) Down() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.down
}

// WriteCount returns the number of write operations attempted so
// far (including the torn one). Crash-replay harnesses use it to
// enumerate cut points.
func (d *Drive) WriteCount() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// FaultStats returns a snapshot of injection counters:
// power_cuts, torn_bytes_dropped, injected_write_errors,
// injected_read_errors, blocked_ops, bit_flips.
func (d *Drive) FaultStats() map[string]int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int64, len(d.stats))
	for k, v := range d.stats {
		out[k] = v
	}
	return out
}

// FlipBit flips one bit of acknowledged data directly on the
// platter, bypassing the drive's validity tracking — modeling
// corruption of a sector the device acked but never made durable.
func (d *Drive) FlipBit(off int64, bit uint) error {
	var b [1]byte
	disk := d.inner.Disk()
	if _, err := disk.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 1 << (bit % 8)
	if _, err := disk.WriteAt(b[:], off); err != nil {
		return err
	}
	d.mu.Lock()
	d.stats["bit_flips"]++
	d.mu.Unlock()
	return nil
}

// WriteAt implements smr.Drive with fault injection.
func (d *Drive) WriteAt(p []byte, off int64) (time.Duration, error) {
	d.mu.Lock()
	if d.down {
		d.stats["blocked_ops"]++
		d.mu.Unlock()
		return 0, ErrPowerCut
	}
	d.writes++
	if d.cutAt > 0 && d.writes >= d.cutAt {
		// Tear the in-flight write: a random prefix reaches the
		// platter (bypassing the drive's validity tracking — the
		// drive never acked this write), the rest is lost.
		keep := min(d.keep, len(p))
		if keep < 0 {
			keep = d.rng.Intn(len(p) + 1)
		}
		d.down = true
		d.cutAt = 0
		d.stats["power_cuts"]++
		d.stats["torn_bytes_dropped"] += int64(len(p) - keep)
		disk := d.inner.Disk()
		d.mu.Unlock()
		if keep > 0 {
			disk.WriteAt(p[:keep], off)
		}
		return 0, ErrPowerCut
	}
	for _, r := range d.rules {
		if r.matches(OpWrite, off, int64(len(p)), d.writes-1, d.rng) {
			r.fired++
			d.stats["injected_write_errors"]++
			d.mu.Unlock()
			return 0, &Error{Op: string(OpWrite), Off: off, Temporary: r.Temporary}
		}
	}
	d.mu.Unlock()
	return d.inner.WriteAt(p, off)
}

// ReadAt implements smr.Drive with fault injection.
func (d *Drive) ReadAt(p []byte, off int64) (time.Duration, error) {
	d.mu.Lock()
	if d.down {
		d.stats["blocked_ops"]++
		d.mu.Unlock()
		return 0, ErrPowerCut
	}
	d.reads++
	for _, r := range d.rules {
		if r.matches(OpRead, off, int64(len(p)), d.reads-1, d.rng) {
			r.fired++
			d.stats["injected_read_errors"]++
			d.mu.Unlock()
			return 0, &Error{Op: string(OpRead), Off: off, Temporary: r.Temporary}
		}
	}
	d.mu.Unlock()
	return d.inner.ReadAt(p, off)
}

// Free implements smr.Drive.
func (d *Drive) Free(off, length int64) error {
	d.mu.Lock()
	if d.down {
		d.stats["blocked_ops"]++
		d.mu.Unlock()
		return ErrPowerCut
	}
	d.mu.Unlock()
	return d.inner.Free(off, length)
}

// Guard implements smr.Drive.
func (d *Drive) Guard() int64 { return d.inner.Guard() }

// Capacity implements smr.Drive.
func (d *Drive) Capacity() int64 { return d.inner.Capacity() }

// HostBytesWritten implements smr.Drive.
func (d *Drive) HostBytesWritten() int64 { return d.inner.HostBytesWritten() }

// Disk implements smr.Drive.
func (d *Drive) Disk() *platter.Disk { return d.inner.Disk() }

// Unwrap implements smr.Unwrapper.
func (d *Drive) Unwrap() smr.Drive { return d.inner }
