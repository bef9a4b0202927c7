// Benchmarks regenerating every table and figure of the paper's
// evaluation (§IV). Each benchmark runs the corresponding experiment
// from the internal/bench harness and reports the figure's headline
// numbers as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation at smoke scale. The canonical
// (larger) runs are produced by cmd/sealdb-bench; see EXPERIMENTS.md.
package sealdb_test

import (
	"testing"

	"sealdb/internal/bench"
	"sealdb/internal/lsm"
)

// benchOptions keeps each figure fast enough to iterate under the
// default -benchtime; cmd/sealdb-bench runs the full-scale versions.
func benchOptions() bench.Options {
	return bench.QuickOptions()
}

// runFigures runs the named figures of the harness.
func runFigures(b *testing.B, o bench.Options, ids ...string) *bench.Results {
	b.Helper()
	res, err := bench.Run(o, ids...)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkTable2DevicePerf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range runFigures(b, benchOptions(), "table2").Table2 {
			switch r.Metric {
			case "Sequential read (MB/s)":
				b.ReportMetric(r.HDD, "hdd-seqread-MB/s")
				b.ReportMetric(r.SMR, "smr-seqread-MB/s")
			case "Random write 4KiB (IOPS)":
				b.ReportMetric(r.HDD, "hdd-randwrite-iops")
				b.ReportMetric(r.SMR, "smr-randwrite-iops")
			}
		}
	}
}

func BenchmarkFig2LevelDBLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runFigures(b, benchOptions(), "2").Stores[lsm.ModeLevelDB].Layout
		b.ReportMetric(float64(r.Compactions), "compactions")
		b.ReportMetric(r.MeanExtentsPerCompaction, "extents/compaction")
		b.ReportMetric(r.SpanMB, "span-MB")
	}
}

func BenchmarkFig3BandSweep(b *testing.B) {
	o := benchOptions()
	o.LoadMB = 8
	for i := 0; i < b.N; i++ {
		rows := runFigures(b, o, "3").Fig3
		first, last := rows[0], rows[len(rows)-1]
		b.ReportMetric(first.MWA, "mwa-smallest-band")
		b.ReportMetric(last.MWA, "mwa-largest-band")
		b.ReportMetric(last.BandsPerCompaction, "bands/compaction-largest")
	}
}

func BenchmarkFig8Micro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stores := runFigures(b, benchOptions(), "8").Stores
		base := stores[lsm.ModeLevelDB].Micro
		for _, r := range stores {
			n := r.Micro.Normalized(base)
			b.ReportMetric(n.RandWrite, r.Store+"-randwrite-x")
		}
	}
}

func BenchmarkFig9YCSB(b *testing.B) {
	o := benchOptions()
	o.LoadMB = 6
	for i := 0; i < b.N; i++ {
		cells := runFigures(b, o, "9").Fig9
		const phaseA = 1 // phases are the load, then A–F
		base := cells[0].Phases[phaseA].OpsPerSec
		for _, c := range cells {
			if base > 0 {
				b.ReportMetric(c.Phases[phaseA].OpsPerSec/base, c.Store+"-ycsbA-x")
			}
		}
	}
}

func BenchmarkFig10Compaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range runFigures(b, benchOptions(), "10").Stores {
			b.ReportMetric(r.Compaction.TotalTime.Seconds(), r.Store+"-total-compaction-s")
			b.ReportMetric(r.Compaction.MeanBytes/(1<<20), r.Store+"-mean-compaction-MB")
		}
	}
}

func BenchmarkFig11SEALDBLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runFigures(b, benchOptions(), "11").Stores[lsm.ModeSEALDB].Layout
		b.ReportMetric(float64(r.Compactions), "compactions")
		b.ReportMetric(r.MeanExtentsPerCompaction, "extents/compaction")
		b.ReportMetric(r.FootprintMB, "footprint-MB")
	}
}

func BenchmarkFig12WriteAmp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range runFigures(b, benchOptions(), "12").Stores {
			b.ReportMetric(r.Amp.WA, r.Store+"-WA")
			b.ReportMetric(r.Amp.AWA, r.Store+"-AWA")
			b.ReportMetric(r.Amp.MWA, r.Store+"-MWA")
		}
	}
}

func BenchmarkFig13Fragments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runFigures(b, benchOptions(), "13").Stores[lsm.ModeSEALDB].Fragments
		b.ReportMetric(float64(res.Bands), "dynamic-bands")
		b.ReportMetric(100*res.FragmentOfUsed, "fragments-pct")
	}
}

func BenchmarkFig14Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stores := runFigures(b, benchOptions(), "14").Stores
		base := stores[lsm.ModeLevelDB].Micro
		for _, r := range stores {
			n := r.Micro.Normalized(base)
			b.ReportMetric(n.RandWrite, r.Store+"-randwrite-x")
			b.ReportMetric(n.SeqRead, r.Store+"-seqread-x")
		}
	}
}
