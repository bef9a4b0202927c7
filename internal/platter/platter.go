// Package platter models a raw rotating disk surface: a flat byte
// address space with a calibrated service-time model. Every read and
// write stores or returns real bytes (the backing store is a sparse
// chunk map) and advances a simulated clock by seek + rotational +
// transfer time, so experiments report deterministic device time
// instead of wall-clock noise.
//
// The model is deliberately simple — an access that does not start
// where the previous access ended pays an average seek plus half a
// rotation; transfer time is linear in the byte count — but it is
// calibrated against the paper's Table II device measurements (see
// DefaultConfig) and reproduces the sequential-vs-random cost ratios
// that drive every result in the paper.
package platter

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes the geometry and timing of a disk.
type Config struct {
	// Capacity is the size of the addressable space in bytes.
	Capacity int64
	// ChunkSize is the allocation unit of the sparse backing store.
	ChunkSize int

	// SeqReadBps and SeqWriteBps are the streaming bandwidths in
	// bytes per second.
	SeqReadBps  float64
	SeqWriteBps float64
	// SeekTime is the average head repositioning time, charged for a
	// discontiguous access one quarter of the surface away; actual
	// seeks scale with the square root of the distance (the classic
	// a + b·sqrt(d) head model), capped near 2x for full strokes.
	SeekTime time.Duration
	// SettleTime is the minimum repositioning cost of a
	// near-distance seek (track-to-track).
	SettleTime time.Duration
	// RotationalLatency is the average rotational delay (half a
	// revolution) charged together with a seek.
	RotationalLatency time.Duration
}

// DefaultConfig returns timing calibrated to the paper's Table II:
// ~165 MB/s sequential read, ~148 MB/s sequential write, and ~70
// random 4 KiB IOPS (1 / (8.3ms + 5.55ms + transfer) ≈ 70/s), for a
// drive of the given capacity.
func DefaultConfig(capacity int64) Config {
	return Config{
		Capacity:          capacity,
		ChunkSize:         1 << 20,
		SeqReadBps:        165e6,
		SeqWriteBps:       148e6,
		SeekTime:          8300 * time.Microsecond,
		SettleTime:        500 * time.Microsecond,
		RotationalLatency: 5550 * time.Microsecond,
	}
}

// Stats aggregates the device-level counters of a Disk.
type Stats struct {
	ReadOps      int64
	WriteOps     int64
	BytesRead    int64
	BytesWritten int64
	Seeks        int64
	// BusyTime is the accumulated simulated service time of all
	// operations; user-visible throughput is bytes / BusyTime.
	BusyTime time.Duration
}

// AccessInfo describes one device access as seen by a Sink: what was
// transferred and what it cost under the service-time model.
type AccessInfo struct {
	Write  bool
	Offset int64
	Length int
	// Seek is false for a sequential continuation of the previous
	// access.
	Seek bool
	// ServiceNS is the modeled service time of this access in
	// nanoseconds (seek + rotational + transfer).
	ServiceNS int64
}

// Sink observes every device access. It is invoked synchronously
// under the disk lock, so implementations must be fast and must not
// call back into the Disk.
type Sink interface {
	ObserveAccess(AccessInfo)
}

// Disk is a simulated raw disk. All methods are safe for concurrent
// use.
type Disk struct {
	cfg Config

	// busy is the simulated clock, Stats.BusyTime's one owner: written
	// under mu, read without it so a clock read costs one atomic load.
	busy atomic.Int64

	mu      sync.Mutex
	chunks  map[int64][]byte
	lastEnd int64 // offset immediately after the previous access
	stats   Stats // BusyTime unused; see busy
	sink    Sink
}

// New creates a disk with the given configuration.
func New(cfg Config) *Disk {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 1 << 20
	}
	if cfg.Capacity <= 0 {
		panic("platter: non-positive capacity")
	}
	return &Disk{
		cfg:     cfg,
		chunks:  make(map[int64][]byte),
		lastEnd: -1,
	}
}

// Capacity returns the addressable size in bytes.
func (d *Disk) Capacity() int64 { return d.cfg.Capacity }

// Config returns the disk configuration.
func (d *Disk) Config() Config { return d.cfg }

func (d *Disk) checkRange(off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > d.cfg.Capacity {
		return fmt.Errorf("platter: access [%d, %d) outside capacity %d", off, off+int64(n), d.cfg.Capacity)
	}
	return nil
}

// serviceTime computes and accounts the cost of one access under the
// lock. It updates lastEnd and the seek counter, and reports the
// access to the installed sink.
func (d *Disk) serviceTime(off int64, n int, write bool) time.Duration {
	var t time.Duration
	seek := off != d.lastEnd
	if seek {
		t += d.seekCost(off) + d.cfg.RotationalLatency
		d.stats.Seeks++
	}
	bps := d.cfg.SeqReadBps
	if write {
		bps = d.cfg.SeqWriteBps
	}
	if bps > 0 {
		t += time.Duration(float64(n) / bps * float64(time.Second))
	}
	d.lastEnd = off + int64(n)
	d.busy.Add(int64(t))
	if d.sink != nil {
		d.sink.ObserveAccess(AccessInfo{
			Write: write, Offset: off, Length: n, Seek: seek, ServiceNS: int64(t),
		})
	}
	return t
}

// seekCost models head travel as settle + (avg-settle)·sqrt(d/(C/4)):
// SeekTime at a quarter-surface stroke, SettleTime for neighbouring
// tracks, ~2x SeekTime for a full stroke. Caller holds d.mu.
func (d *Disk) seekCost(off int64) time.Duration {
	if d.lastEnd < 0 {
		return d.cfg.SeekTime
	}
	dist := off - d.lastEnd
	if dist < 0 {
		dist = -dist
	}
	ref := float64(d.cfg.Capacity) / 4
	frac := math.Sqrt(float64(dist) / ref)
	if frac > 2 {
		frac = 2
	}
	return d.cfg.SettleTime + time.Duration(float64(d.cfg.SeekTime-d.cfg.SettleTime)*frac)
}

// WriteAt stores p at off, advancing the simulated clock. It returns
// the simulated service time of the operation.
func (d *Disk) WriteAt(p []byte, off int64) (time.Duration, error) {
	if err := d.checkRange(off, len(p)); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.serviceTime(off, len(p), true)
	d.stats.WriteOps++
	d.stats.BytesWritten += int64(len(p))
	d.copyIn(p, off)
	return t, nil
}

// ReadAt fills p from off, advancing the simulated clock. Unwritten
// space reads as zeros. It returns the simulated service time.
func (d *Disk) ReadAt(p []byte, off int64) (time.Duration, error) {
	if err := d.checkRange(off, len(p)); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.serviceTime(off, len(p), false)
	d.stats.ReadOps++
	d.stats.BytesRead += int64(len(p))
	d.copyOut(p, off)
	return t, nil
}

func (d *Disk) copyIn(p []byte, off int64) {
	cs := int64(d.cfg.ChunkSize)
	for len(p) > 0 {
		ci := off / cs
		co := int(off % cs)
		c := d.chunks[ci]
		if c == nil {
			c = make([]byte, cs)
			d.chunks[ci] = c
		}
		n := copy(c[co:], p)
		p = p[n:]
		off += int64(n)
	}
}

func (d *Disk) copyOut(p []byte, off int64) {
	cs := int64(d.cfg.ChunkSize)
	for len(p) > 0 {
		ci := off / cs
		co := int(off % cs)
		var n int
		if c := d.chunks[ci]; c != nil {
			n = copy(p, c[co:])
		} else {
			n = len(p)
			if max := int(cs) - co; n > max {
				n = max
			}
			for i := 0; i < n; i++ {
				p[i] = 0
			}
		}
		p = p[n:]
		off += int64(n)
	}
}

// Stats returns a snapshot of the device counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.BusyTime = time.Duration(d.busy.Load())
	return s
}

// BusyNS returns the simulated clock, Stats().BusyTime in nanoseconds,
// without taking the disk lock.
func (d *Disk) BusyNS() int64 { return d.busy.Load() }

// ResetStats zeroes the counters (the data and head position are
// kept). Useful to measure a phase of an experiment.
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
	d.busy.Store(0)
}

// SetSink installs s as the disk's one access sink, replacing any
// sink installed before; a nil s removes it. The sink observes every
// subsequent access, called under the disk lock (see the Sink
// contract).
func (d *Disk) SetSink(s Sink) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sink = s
}

// MemoryFootprint returns the bytes held by the sparse backing store,
// for test assertions about sparseness.
func (d *Disk) MemoryFootprint() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.chunks)) * int64(d.cfg.ChunkSize)
}
