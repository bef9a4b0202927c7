package main

import (
	"fmt"
	"math/rand"
	"time"

	"sealdb/internal/kv"
	"sealdb/internal/lsm"
	"sealdb/internal/obs"
	"sealdb/internal/traceanalyze"
)

// ChurnSchema identifies the BENCH_churn.json layout so CI can
// validate artifacts across revisions.
const ChurnSchema = "sealdb-bench-churn/v2"

// ChurnReport is the -churn output: a timeline of storage-surface
// samples under sustained overwrite/delete/scan load, plus the bounds
// the run was held to. The run is fully deterministic: every sample
// point is on the simulated device clock, and p50/p99 are device-time
// latencies, so the timeline is reproducible byte-for-byte per seed.
type ChurnReport struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	Keys   int    `json:"keys"`
	// TargetDeviceSeconds is the simulated device time the run churns
	// for; Ops is how many operations that took.
	TargetDeviceSeconds float64 `json:"target_device_seconds"`
	Ops                 int64   `json:"ops"`

	// Bounds and the observed extremes over the steady state (samples
	// after the first full pass over the keyspace).
	BoundSA    float64 `json:"bound_sa"`
	BoundP99NS int64   `json:"bound_p99_ns"`
	MaxSA      float64 `json:"max_sa"`
	MaxP99NS   int64   `json:"max_p99_ns"`
	Passed     bool    `json:"passed"`

	Samples []ChurnSample `json:"samples"`
}

// ChurnSample is one observatory reading on the device clock.
type ChurnSample struct {
	DeviceSeconds float64 `json:"device_seconds"`
	Ops           int64   `json:"ops"`
	// Warmup marks samples taken before the keyspace has been fully
	// written once; SA is meaningless while logical bytes ramp, so
	// warmup samples are exempt from the bounds.
	Warmup bool `json:"warmup,omitempty"`

	PhysicalBytes    int64   `json:"physical_bytes"`
	LogicalLiveBytes int64   `json:"logical_live_bytes"`
	DeadBytes        int64   `json:"dead_bytes"`
	SA               float64 `json:"sa"`

	FragHoles   int     `json:"frag_holes"`
	FragIndex   float64 `json:"frag_index"`
	LargestFree int64   `json:"largest_free"`

	// Per-window device-time latency quantiles (reset each sample).
	P50NS int64 `json:"p50_ns"`
	P99NS int64 `json:"p99_ns"`

	// AllocBands counts the bands that hold allocation.
	AllocBands int `json:"alloc_bands"`
}

type churnOptions struct {
	out      string
	dumpDir  string // optional raw smrtrace dump written at the end
	minutes  float64
	keys     int
	seed     int64
	boundSA  float64
	boundP99 time.Duration
}

// runChurn drives a seeded sustained overwrite+delete+scan workload
// until the simulated device clock has advanced by the target, sampling
// the storage-surface observatory on a fixed device-time interval. The
// value log stays off so the offline analyzer's logical-byte recompute
// (and hence its SA cross-check) is exact on the -churndump output.
func runChurn(o churnOptions) {
	cfg := lsm.Config{
		Mode:     lsm.ModeSEALDB,
		Geometry: lsm.ScaledGeometry(16*kv.KiB, 1*kv.GiB),
		Seed:     o.seed,
	}
	cfg.JournalCapacity = 1 << 17
	db, err := lsm.Open(cfg)
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	var base *traceanalyze.Baseline
	if o.dumpDir != "" {
		base = traceanalyze.Begin(db)
	}

	busy := func() int64 { return int64(db.Device().Disk.Stats().BusyTime) }
	targetNS := int64(o.minutes * 60 * 1e9)
	startNS := busy()
	sampleEvery := targetNS / 60 // ~60 samples per run
	if sampleEvery < 1e6 {
		sampleEvery = 1e6
	}

	rep := ChurnReport{
		Schema:              ChurnSchema,
		Seed:                o.seed,
		Keys:                o.keys,
		TargetDeviceSeconds: float64(targetNS) / 1e9,
		BoundSA:             o.boundSA,
		BoundP99NS:          o.boundP99.Nanoseconds(),
	}
	rng := rand.New(rand.NewSource(o.seed))
	val := make([]byte, 1024)
	key := func(i int) []byte { return []byte(fmt.Sprintf("churn-%08d", i)) }

	fmt.Printf("# churn: %d keys, %.1fs of device time, seed %d, SA bound %.2f, p99 bound %v\n",
		o.keys, rep.TargetDeviceSeconds, o.seed, o.boundSA, o.boundP99)
	fmt.Printf("%10s %10s %8s %8s %8s %10s %10s %6s\n",
		"device_s", "ops", "SA", "frag", "holes", "p99", "physical", "bands")

	lat := obs.NewHistogram()
	var ops int64
	nextSample := startNS + sampleEvery
	sample := func(now int64) {
		snap := lat.Snapshot()
		lat = obs.NewHistogram() // per-window quantiles
		sp := db.SpaceProfile()
		s := ChurnSample{
			DeviceSeconds:    float64(now-startNS) / 1e9,
			Ops:              ops,
			Warmup:           ops < int64(o.keys),
			PhysicalBytes:    sp.PhysicalBytes,
			LogicalLiveBytes: sp.LogicalLiveBytes,
			DeadBytes:        sp.SurfaceDeadBytes,
			SA:               sp.SpaceAmplification,
			FragHoles:        sp.Frag.Holes,
			FragIndex:        sp.Frag.Index,
			LargestFree:      sp.Frag.LargestFree,
			P50NS:            snap.P50,
			P99NS:            snap.P99,
			AllocBands:       len(db.BandProfile().Bands),
		}
		rep.Samples = append(rep.Samples, s)
		if !s.Warmup {
			if s.SA > rep.MaxSA {
				rep.MaxSA = s.SA
			}
			if s.P99NS > rep.MaxP99NS {
				rep.MaxP99NS = s.P99NS
			}
		}
		fmt.Printf("%10.3f %10d %8.3f %8.3f %8d %10v %10s %6d\n",
			s.DeviceSeconds, s.Ops, s.SA, s.FragIndex, s.FragHoles,
			time.Duration(s.P99NS).Round(time.Microsecond), human(s.PhysicalBytes), s.AllocBands)
	}

	// The op mix: mostly overwrites of a zipf-less uniform working set
	// (every key rewritten again and again — the defragmentation
	// stressor), a delete every 8th op (holes for the free list), a
	// short scan every 16th (read path under churn).
	maxOps := int64(o.keys) * 10000 // runaway backstop
	for busy()-startNS < targetNS && ops < maxOps {
		k := rng.Intn(o.keys)
		t0 := busy()
		switch {
		case ops%16 == 15:
			if _, err := db.Scan(key(k), 20); err != nil {
				fatal(err)
			}
		case ops%8 == 7:
			if err := db.Delete(key(k)); err != nil {
				fatal(err)
			}
		default:
			n := 200 + rng.Intn(len(val)-200)
			v := val[:n]
			for j := range v {
				v[j] = byte(rng.Int())
			}
			if err := db.Put(key(k), v); err != nil {
				fatal(err)
			}
		}
		lat.Observe(busy() - t0)
		ops++
		if now := busy(); now >= nextSample {
			sample(now)
			nextSample = now + sampleEvery
		}
	}
	sample(busy())
	rep.Ops = ops
	rep.Passed = rep.MaxSA <= rep.BoundSA && rep.MaxP99NS <= rep.BoundP99NS

	if o.dumpDir != "" {
		// After rep is final: Collect's fsck reads the device.
		d, err := traceanalyze.Collect(db, base)
		if err != nil {
			fatal(err)
		}
		if err := d.Write(o.dumpDir); err != nil {
			fatal(err)
		}
		fmt.Printf("# wrote raw dump %s (analyze with: smrtrace -analyze %s)\n", o.dumpDir, o.dumpDir)
	}
	writeJSON(o.out, &rep)
	fmt.Printf("# wrote %s (%d samples, %d ops)\n", o.out, len(rep.Samples), ops)

	if !rep.Passed {
		fatal(fmt.Errorf("churn bounds violated: max SA %.3f (bound %.2f), max p99 %v (bound %v)",
			rep.MaxSA, rep.BoundSA, time.Duration(rep.MaxP99NS), time.Duration(rep.BoundP99NS)))
	}
	fmt.Printf("# bounds held: max SA %.3f <= %.2f, max p99 %v <= %v\n",
		rep.MaxSA, rep.BoundSA, time.Duration(rep.MaxP99NS), time.Duration(rep.BoundP99NS))
}
