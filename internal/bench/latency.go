package bench

import (
	"fmt"
	"io"
	"time"

	"sealdb/internal/lsm"
	"sealdb/internal/obs"
	"sealdb/internal/ycsb"
)

// LatencyRow is one store's per-operation simulated latency profile
// under a workload — the tail-latency view the paper's bimodal-SMR
// discussion (§II-C) motivates: LevelDB's reads and writes stall
// behind band cleaning, SEALDB's do not.
type LatencyRow struct {
	Store  string
	Reads  obs.HistogramSnapshot
	Writes obs.HistogramSnapshot
}

// runLatencyProfile loads each store and runs a 50/50 read/update mix
// (YCSB-A) measuring each operation's simulated device time.
func runLatencyProfile(o Options, r *Results) error {
	for _, mode := range paperStores {
		row, err := o.latencyProfile(mode)
		if err != nil {
			return err
		}
		r.Latency = append(r.Latency, row)
	}
	return nil
}

func (o Options) latencyProfile(mode lsm.Mode) (LatencyRow, error) {
	row := LatencyRow{Store: mode.String()}
	ld, err := o.load(o.config(mode), o.ValueSize, false, nil)
	if err != nil {
		return row, err
	}
	defer ld.db.Close()
	reads, writes := obs.NewHistogram(), obs.NewHistogram()
	rng := newRng(o.Seed + 3)
	gen := ycsb.NewScrambledZipfian(ld.records)
	val := make([]byte, o.ValueSize)
	for i := 0; i < o.Ops; i++ {
		key := ycsb.Key(gen.Next(rng))
		start := simTime(ld.db)
		if i%2 == 0 {
			if _, err := ld.db.Get(key); err != nil && err != lsm.ErrNotFound {
				return row, err
			}
			reads.Observe(int64(simTime(ld.db) - start))
		} else {
			rng.Read(val)
			if err := ld.db.Put(key, val); err != nil {
				return row, err
			}
			writes.Observe(int64(simTime(ld.db) - start))
		}
	}
	row.Reads, row.Writes = reads.Snapshot(), writes.Snapshot()
	return row, nil
}

// latencySummary renders "mean / p50 / p99 / max" of device-time
// samples in nanoseconds.
func latencySummary(s obs.HistogramSnapshot) string {
	var mean int64
	if s.Count > 0 {
		mean = s.Sum / s.Count
	}
	us := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
	return fmt.Sprintf("mean %v  p50 %v  p99 %v  max %v", us(mean), us(s.P50), us(s.P99), us(s.Max))
}

// printLatency renders the latency profiles.
func printLatency(tw io.Writer, res *Results) {
	fmt.Fprintf(tw, "Latency (simulated): store\treads\twrites\n")
	for _, r := range res.Latency {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", r.Store, latencySummary(r.Reads), latencySummary(r.Writes))
	}
}
