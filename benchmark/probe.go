package main

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The host-clock metrics are normalised for memory contention.
//
// On the shared 2-core reference host the cost of a DRAM-missing load
// drifts by a factor of two over minutes (other tenants share the last
// level cache and the memory controllers), while register and
// L2-resident work is steady to 3%. The store under test is an emulated
// disk of several hundred MiB living in memory, so every workload slows
// with that drift: over ten back-to-back runs the raw ops/s of
// tcp_hot_mixed spread over 35% of its median (interquartile), and a
// run's time per op tracked the contention it ran under with r = 0.97.
// Nothing measured inside one run can average that away, because the
// contention outlasts the run.
//
// So each run carries its own reference: a fixed gather kernel
// (independent random loads over a 256 MiB region outside the Go heap)
// is timed at every segment boundary of the measured phase and at
// intervals during set-up. The median kernel time, divided by its
// typical time on the reference host, is the contention index g of that
// stretch of the run. A wall-clock duration d is reported as d / g^γ:
// what it would have been at g = 1. A mean (time per op, set-up time) is
// dominated by the memory-heavy tail of the work, a median latency by
// the cache-friendly typical op, so they get different exponents. The
// exponents and the reference time are constants of the benchmark,
// fitted once over all workloads (README.md has the data): a change to
// the store cannot move them, and at g = 1 the correction is the
// identity. The raw throughput and g are reported as per-layer metrics.
const (
	probeRegion = 256 << 20
	probeLoads  = 20_000
	// referenceProbe is the gather kernel's median time inside a run on
	// the reference host (the kernel starts on caches and a TLB the
	// workload has just filled, so it is slower than it would be alone).
	referenceProbe = 690 * time.Microsecond
	gammaMean      = 0.9
	gammaMedian    = 0.65
)

// memProbe times the gather kernel.
type memProbe struct {
	region  []byte
	samples []time.Duration
	spent   time.Duration
	state   uint64
	sum     uint64
}

func newMemProbe() (*memProbe, error) {
	region, err := syscall.Mmap(-1, 0, probeRegion, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(region); i += 4096 {
		region[i] = 1 // fault every page in, once
	}
	return &memProbe{region: region, state: 1}, nil
}

// sharedProbe returns the process's probe, mapping its region on first
// use; the region lives until the process exits.
var sharedProbe = sync.OnceValues(newMemProbe)

// sample runs the kernel once and records its duration.
func (p *memProbe) sample() {
	const words = probeRegion / 8
	start := time.Now()
	x, sum := p.state, p.sum
	for i := 0; i < probeLoads; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		sum += binary.LittleEndian.Uint64(p.region[(x>>33)%words*8:])
	}
	p.state, p.sum = x, sum
	d := time.Since(start)
	p.samples = append(p.samples, d)
	p.spent += d
}

// take returns the contention index over the samples since the last
// take, the time they cost, and forgets them.
func (p *memProbe) take() (g float64, spent time.Duration) {
	if len(p.samples) == 0 {
		return 1, 0
	}
	slices.Sort(p.samples)
	g = float64(p.samples[len(p.samples)/2]) / float64(referenceProbe)
	spent = p.spent
	p.samples, p.spent = p.samples[:0], 0
	return g, spent
}

// normalise converts a wall-clock duration measured under contention g
// to the reference host's clock.
func normalise(d, g, gamma float64) float64 { return d / math.Pow(g, gamma) }
