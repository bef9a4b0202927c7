package lsm

import (
	"fmt"
	"math/rand"
	"testing"
)

// Engine micro-benchmarks (wall-clock CPU cost of the host software
// stack; device time is simulated separately).

func benchDB(b *testing.B, mode Mode) *DB {
	b.Helper()
	d, err := Open(tinyConfig(mode))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() }) // double-close is a harmless ErrClosed
	return d
}

// putBenchConfig gives the Put benchmark disk headroom: the sets
// ablation's contiguous group extents rarely fit the ext4-like
// allocator's holes, so it consumes fresh space at its full
// write-amplification rate between recycles.
func putBenchConfig(mode Mode) Config {
	cfg := tinyConfig(mode)
	cfg.DiskCapacity = 1 << 30
	return cfg
}

func BenchmarkEnginePut(b *testing.B) {
	for _, mode := range allModes() {
		b.Run(mode.String(), func(b *testing.B) {
			d, err := Open(putBenchConfig(mode))
			if err != nil {
				b.Fatal(err)
			}
			val := make([]byte, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Recycle the store periodically: the benchmark disk
				// is small, and on it the baselines consume fresh
				// space at their write-amplification rate (SMRDB's
				// overlapped level retains dead versions by design;
				// the ext4-like allocator rarely fits a whole set
				// into a hole).
				if i > 0 && i%15000 == 0 {
					b.StopTimer()
					d.Close()
					d, err = Open(putBenchConfig(mode))
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := d.Put(fmt.Appendf(nil, "key%09d", i%20000), val); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			d.Close()
			b.SetBytes(1024)
		})
	}
}

func BenchmarkEngineGet(b *testing.B) {
	for _, mode := range allModes() {
		b.Run(mode.String(), func(b *testing.B) {
			d := benchDB(b, mode)
			val := make([]byte, 1024)
			const n = 20000
			for i := 0; i < n; i++ {
				d.Put(fmt.Appendf(nil, "key%09d", i), val)
			}
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Get(fmt.Appendf(nil, "key%09d", rng.Intn(n))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineScan100(b *testing.B) {
	d := benchDB(b, ModeSEALDB)
	val := make([]byte, 1024)
	const n = 20000
	for i := 0; i < n; i++ {
		d.Put(fmt.Appendf(nil, "key%09d", i), val)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kvs, err := d.Scan(fmt.Appendf(nil, "key%09d", rng.Intn(n-200)), 100)
		if err != nil || len(kvs) != 100 {
			b.Fatal(len(kvs), err)
		}
	}
}

func BenchmarkEngineBatch100(b *testing.B) {
	d := benchDB(b, ModeSEALDB)
	val := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := NewBatch()
		for j := 0; j < 100; j++ {
			batch.Put(fmt.Appendf(nil, "key%09d", (i*100+j)%100000), val)
		}
		if err := d.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(100 * 1024)
}

// BenchmarkMetricsSnapshot prices one /metrics collection on the end
// state of the benchmark's put_random workload: 100k records of 16 B +
// 1 KiB loaded in random order into a default SEALDB store, then 96k
// operations, 90 % puts and 10 % deletes, over 150k keys.
func BenchmarkMetricsSnapshot(b *testing.B) {
	d, err := Open(DefaultConfig(ModeSEALDB))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	const records = 100_000
	val := make([]byte, 1024)
	key := func(i int) []byte { return fmt.Appendf(nil, "user%012d", i) }
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(records) {
		if err := d.Put(key(i), val); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 96_000; i++ {
		k := key(rng.Intn(records * 3 / 2))
		if rng.Intn(10) == 0 {
			err = d.Delete(k)
		} else {
			err = d.Put(k, val)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(d.MetricsSnapshot().Gauges) == 0 {
			b.Fatal("no gauges")
		}
	}
}
