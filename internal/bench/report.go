package bench

import (
	"fmt"
	"io"
	"time"

	"sealdb/internal/lsm"
	"sealdb/internal/obs"
	"sealdb/internal/ycsb"
)

// YCSBPhase is one phase (load or one core workload) of a store's
// machine-readable YCSB result. Latencies are per store call in
// simulated device microseconds; WA/AWA are the cumulative modeled
// amplification at the end of the phase.
type YCSBPhase struct {
	Workload  string  `json:"workload"`
	Ops       int64   `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50us     float64 `json:"p50_us"`
	P99us     float64 `json:"p99_us"`
	WA        float64 `json:"wa"`
	AWA       float64 `json:"awa"`
}

// YCSBStoreReport is one (store, value size) cell of the matrix: its
// phases, load first then A–F.
type YCSBStoreReport struct {
	Store     string      `json:"store"`
	ValueSize int         `json:"value_size"`
	Phases    []YCSBPhase `json:"phases"`
}

// YCSBReport is the BENCH_ycsb.json payload: the experiment scale and
// every (store, value size) cell's per-workload results, so the perf
// trajectory can be diffed across commits.
type YCSBReport struct {
	SSTableSize    int64             `json:"sstable_size"`
	BandSize       int64             `json:"band_size"`
	LoadMB         int64             `json:"load_mb"`
	ValueSize      int               `json:"value_size"`
	ValueSizes     []int             `json:"value_sizes"`
	OpsPerWorkload int               `json:"ops_per_workload"`
	Seed           int64             `json:"seed"`
	Stores         []YCSBStoreReport `json:"stores"`
}

// vlogThreshold is the key–value separation threshold of the report's
// "sealdb+vlog" store — the SEALDB engine with values at or above it
// moved to the value log. 64 separates every size on the standard
// 64 B → 1 MiB axis.
const vlogThreshold = 64

// RunYCSBReport runs the load phase and YCSB A–F against every
// (store, value size) cell, producing the machine-readable report:
// throughput from simulated device time, per-call p50/p99 from
// device-time deltas, and the cumulative modeled WA/AWA after each
// phase.
func RunYCSBReport(o Options) (*YCSBReport, error) {
	sizes := o.ValueSizes
	if len(sizes) == 0 {
		sizes = []int{o.ValueSize}
	}
	rep := &YCSBReport{
		SSTableSize:    o.Geometry.SSTableSize,
		BandSize:       o.Geometry.BandSize,
		LoadMB:         o.LoadMB,
		ValueSize:      o.ValueSize,
		ValueSizes:     sizes,
		OpsPerWorkload: o.Ops,
		Seed:           o.Seed,
	}
	type store struct {
		name string
		cfg  lsm.Config
	}
	var stores []store
	for _, mode := range paperStores {
		stores = append(stores, store{mode.String(), o.config(mode)})
	}
	vlog := o.config(lsm.ModeSEALDB)
	vlog.ValueThreshold = vlogThreshold
	stores = append(stores, store{"sealdb+vlog", vlog})
	for _, vs := range sizes {
		for _, st := range stores {
			sr, err := o.runYCSBCell(st.name, st.cfg, vs)
			if err != nil {
				return nil, err
			}
			rep.Stores = append(rep.Stores, sr)
		}
	}
	return rep, nil
}

// runYCSBCell runs the full phase sequence for one (store, value
// size) cell on a fresh store of configuration cfg.
func (o Options) runYCSBCell(store string, cfg lsm.Config, valueSize int) (YCSBStoreReport, error) {
	sr := YCSBStoreReport{Store: store, ValueSize: valueSize}
	h := obs.NewHistogram() // per-call device time of the current phase
	ld, err := o.load(cfg, valueSize, false, h)
	if err != nil {
		return sr, err
	}
	defer ld.db.Close()
	sr.Phases = append(sr.Phases, phaseResult(ld.db, "load", ld.records, ld.time, h))

	for _, w := range ycsb.CoreWorkloads() {
		ops := o.OpsFor(valueSize)
		if w.ScanProp > 0 {
			// Workload E's scans touch MaxScanLen records per op;
			// trim the op count to keep runtimes proportionate.
			ops = max(ops/10, 16)
		}
		h.Reset()
		var res ycsb.Result
		d, err := phase(ld.db, func() error {
			var err error
			res, err = ld.runner.Run(w, ops)
			return err
		})
		if err != nil {
			return sr, fmt.Errorf("bench: %s workload %s: %w", store, w.Name, err)
		}
		sr.Phases = append(sr.Phases, phaseResult(ld.db, w.Name, int64(res.Ops), d, h))
	}
	return sr, nil
}

func phaseResult(db *lsm.DB, name string, ops int64, d time.Duration, h *obs.Histogram) YCSBPhase {
	amp := db.Amplification()
	lat := h.Snapshot()
	return YCSBPhase{
		Workload:  name,
		Ops:       ops,
		OpsPerSec: throughput(ops, d),
		P50us:     float64(lat.P50) / 1e3,
		P99us:     float64(lat.P99) / 1e3,
		WA:        amp.WA,
		AWA:       amp.AWA,
	}
}

// runFig9 runs the load phase and YCSB A–F on the paper's three stores
// at the experiment's value size: Figure 9 reads the throughput of the
// same cells the YCSB report is made of.
func runFig9(o Options, r *Results) error {
	for _, mode := range paperStores {
		cell, err := o.runYCSBCell(mode.String(), o.config(mode), o.ValueSize)
		if err != nil {
			return err
		}
		r.Fig9 = append(r.Fig9, cell)
	}
	return nil
}

// printFig9 renders the YCSB table, normalized to the first store.
func printFig9(tw io.Writer, res *Results) {
	cells := res.Fig9
	fmt.Fprintf(tw, "Fig 9: store\tload\tA\tB\tC\tD\tE\tF\t(normalized to %s)\n", cells[0].Store)
	for _, c := range cells {
		fmt.Fprintf(tw, "%s", c.Store)
		for i, p := range c.Phases {
			fmt.Fprintf(tw, "\t%.2fx", ratio(p.OpsPerSec, cells[0].Phases[i].OpsPerSec))
		}
		fmt.Fprintf(tw, "\t\n")
	}
}
