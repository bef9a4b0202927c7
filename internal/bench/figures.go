package bench

import (
	"fmt"
	"io"
	"time"

	"sealdb/internal/kv"
	"sealdb/internal/lsm"
)

// ---------------------------------------------------------------------------
// Figures 2 and 11 — per-compaction data layout

// LayoutPoint is one SSTable write of one compaction: the data behind
// the scatter plots of Figures 2 (LevelDB) and 11 (SEALDB).
type LayoutPoint struct {
	Compaction int64   `json:"compaction"`
	OffsetMB   float64 `json:"offset_mb"`
	LengthKB   float64 `json:"length_kb"`
}

// LayoutResult summarizes a layout trace.
type LayoutResult struct {
	Points []LayoutPoint
	// Compactions is the number of set-producing merges observed.
	Compactions int
	// SpanMB is the device address range the compaction writes
	// covered (Figure 2 shows LevelDB spanning the whole first 10 GB;
	// Figure 11 shows SEALDB packing into a small prefix).
	SpanMB float64
	// FootprintMB is the device space occupied at the end.
	FootprintMB float64
	// MeanExtentsPerCompaction counts discontiguous write runs per
	// compaction (1.0 = perfectly sequential sets).
	MeanExtentsPerCompaction float64
}

// mergeCompactions returns the merge compactions of db's job record:
// every job that is neither a flush nor a trivial move.
func mergeCompactions(db *lsm.DB) []lsm.CompactionInfo {
	var out []lsm.CompactionInfo
	for _, ci := range db.Stats().Compactions {
		if !ci.Flush && !ci.TrivialMove {
			out = append(out, ci)
		}
	}
	return out
}

// layoutOf collects the physical address of every compaction output
// SSTable of a loaded store (the paper traced these with "Ext4
// Magic"): Figure 2 on LevelDB, Figure 11 on SEALDB.
func layoutOf(db *lsm.DB) *LayoutResult {
	res := &LayoutResult{}
	var minOff, maxOff int64 = 1 << 62, 0
	var extents int
	for _, ci := range mergeCompactions(db) {
		if len(ci.OutputPlacements) == 0 {
			continue
		}
		res.Compactions++
		var lastEnd int64 = -1
		for _, ext := range ci.OutputPlacements {
			res.Points = append(res.Points, LayoutPoint{
				Compaction: int64(ci.ID),
				OffsetMB:   float64(ext.Off) / float64(kv.MiB),
				LengthKB:   float64(ext.Len) / float64(kv.KiB),
			})
			minOff, maxOff = min(minOff, ext.Off), max(maxOff, ext.End())
			if ext.Off != lastEnd {
				extents++
			}
			lastEnd = ext.End()
		}
	}
	if maxOff > minOff {
		res.SpanMB = float64(maxOff-minOff) / float64(kv.MiB)
	}
	res.MeanExtentsPerCompaction = ratio(float64(extents), float64(res.Compactions))
	// Footprint: how much device address space the store occupies.
	if dbm := db.Device().DBand; dbm != nil {
		res.FootprintMB = float64(dbm.Frontier()) / float64(kv.MiB)
	} else if fs := db.Device().ExtFS; fs != nil {
		res.FootprintMB = float64(fs.HighWater()) / float64(kv.MiB)
	}
	return res
}

// PrintLayout renders a store's layout summary.
func PrintLayout(w io.Writer, fig string, run *StoreRun) {
	r := run.Layout
	fmt.Fprintf(w, "%s (%s): %d compactions, writes span %.1f MB, footprint %.1f MB, %.2f extents/compaction\n",
		fig, run.Store, r.Compactions, r.SpanMB, r.FootprintMB, r.MeanExtentsPerCompaction)
}

// WritePointsCSV dumps scatter data for plotting; index names the
// first column ("compaction" for Figures 2 and 11, "band" for 13).
func WritePointsCSV(w io.Writer, index string, points []LayoutPoint) {
	fmt.Fprintf(w, "%s,offset_mb,length_kb\n", index)
	for _, p := range points {
		fmt.Fprintf(w, "%d,%.3f,%.3f\n", p.Compaction, p.OffsetMB, p.LengthKB)
	}
}

// ---------------------------------------------------------------------------
// Figure 3 — band-size sweep

// BandSweepRow is one band size of Figure 3.
type BandSweepRow struct {
	BandSSTables float64 // band size in SSTable units (paper: 5..15)
	BandMB       float64
	// Figure 3(a)
	SSTablesPerCompaction float64
	BandsPerCompaction    float64
	// Figure 3(b)
	WA  float64
	MWA float64
}

// bandSweepRow measures how many SSTables and bands one compaction of
// a loaded store touches, and the resulting WA/MWA.
func bandSweepRow(db *lsm.DB) BandSweepRow {
	g := db.Config().Geometry
	row := BandSweepRow{
		BandSSTables: float64(g.BandSize) / float64(g.SSTableSize),
		BandMB:       float64(g.BandSize) / float64(kv.MiB),
	}
	// Per-compaction: SSTables written and distinct bands their
	// placements touch (Figure 3(a)).
	var sstSum, bandSum, n float64
	for _, ci := range mergeCompactions(db) {
		if len(ci.OutputPlacements) == 0 {
			continue
		}
		bands := map[int64]bool{}
		for _, ext := range ci.OutputPlacements {
			for b := ext.Off / g.BandSize; b <= (ext.End()-1)/g.BandSize; b++ {
				bands[b] = true
			}
		}
		sstSum += float64(ci.OutputFiles)
		bandSum += float64(len(bands))
		n++
	}
	amp := db.Amplification()
	row.WA, row.MWA = amp.WA, amp.MWA
	row.SSTablesPerCompaction = ratio(sstSum, n)
	row.BandsPerCompaction = ratio(bandSum, n)
	return row
}

// runFig3 sweeps LevelDB-on-SMR over several band sizes. The row at
// the experiment's own band size is a view of the shared LevelDB
// load; the others load a store each.
func runFig3(o Options, r *Results) error {
	for _, units := range []float64{5, 7.5, 10, 12.5, 15} {
		cfg := o.config(lsm.ModeLevelDB)
		cfg.BandSize = int64(units * float64(cfg.SSTableSize))
		row := r.Stores[lsm.ModeLevelDB].Sweep
		if cfg.BandSize != o.Geometry.BandSize {
			ld, err := o.load(cfg, o.ValueSize, false, nil)
			if err != nil {
				return err
			}
			row = bandSweepRow(ld.db)
			ld.db.Close()
		}
		row.BandSSTables = units
		r.Fig3 = append(r.Fig3, row)
	}
	return nil
}

// printFig3 renders the band-size sweep.
func printFig3(tw io.Writer, res *Results) {
	fmt.Fprintf(tw, "Fig 3: band size (SSTables)\tband MB\tSSTables/compaction\tbands/compaction\tWA\tMWA\n")
	for _, r := range res.Fig3 {
		fmt.Fprintf(tw, "%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.BandSSTables, r.BandMB, r.SSTablesPerCompaction, r.BandsPerCompaction, r.WA, r.MWA)
	}
}

// ---------------------------------------------------------------------------
// Figure 10 — compaction latency and size

// CompactionProfile is one store's compaction behaviour during a
// random load.
type CompactionProfile struct {
	Latencies   []time.Duration // per merge compaction, in order
	Compactions int
	TotalTime   time.Duration
	MeanBytes   float64 // average input+output data per compaction
	// MeanSetFiles is the average compaction unit: the files taken
	// from the next level, the paper's set.
	MeanSetFiles float64
}

// compactionProfileOf profiles the compactions of a loaded store.
func compactionProfileOf(db *lsm.DB) *CompactionProfile {
	p := &CompactionProfile{}
	var bytesSum, setFiles, setN float64
	for _, ci := range mergeCompactions(db) {
		p.Compactions++
		p.Latencies = append(p.Latencies, ci.Latency)
		p.TotalTime += ci.Latency
		bytesSum += float64(ci.InputBytes + ci.OutputBytes)
		if ci.Inputs1 > 0 {
			setFiles += float64(ci.Inputs1)
			setN++
		}
	}
	p.MeanBytes = ratio(bytesSum, float64(p.Compactions))
	p.MeanSetFiles = ratio(setFiles, setN)
	return p
}

// printFig10 renders the compaction profiles.
func printFig10(tw io.Writer, res *Results) {
	fmt.Fprintf(tw, "Fig 10: store\tcompactions\ttotal latency\tmean latency\tavg compaction MB\tavg set files\n")
	for _, r := range res.runs(paperStores) {
		p := r.Compaction
		mean := time.Duration(0)
		if p.Compactions > 0 {
			mean = p.TotalTime / time.Duration(p.Compactions)
		}
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%.2f\t%.2f\n",
			r.Store, p.Compactions, p.TotalTime.Round(time.Millisecond),
			mean.Round(time.Microsecond), p.MeanBytes/float64(kv.MiB), p.MeanSetFiles)
	}
}

// writeFig10CSV dumps the per-compaction latency series.
func writeFig10CSV(w io.Writer, res *Results) {
	fmt.Fprintf(w, "store,compaction,latency_ms\n")
	for _, r := range res.runs(paperStores) {
		for i, l := range r.Compaction.Latencies {
			fmt.Fprintf(w, "%s,%d,%.3f\n", r.Store, i+1, float64(l.Microseconds())/1000)
		}
	}
}

// printFig12 renders the write amplification table.
func printFig12(tw io.Writer, res *Results) {
	fmt.Fprintf(tw, "Fig 12: store\tWA\tAWA\tMWA\n")
	for _, r := range res.runs(paperStores) {
		fmt.Fprintf(tw, "%s\t%.2f\t%.3f\t%.2f\n", r.Store, r.Amp.WA, r.Amp.AWA, r.Amp.MWA)
	}
}

// ---------------------------------------------------------------------------
// Figure 13 — dynamic bands and fragments

// FragmentResult is the dynamic-band census after a random load.
type FragmentResult struct {
	Bands          int
	MeanBandMB     float64
	MaxBandMB      float64
	OccupiedMB     float64
	FragmentMB     float64
	FragmentOfUsed float64 // fragments / occupied space (paper: 9.32%)
	AvgSetBytes    int64   // fragment threshold used
}

// fragmentsOf reports the dynamic band layout and fragment census of
// a loaded dynamic-band store, using the measured average set size as
// the fragment threshold as the paper does.
func fragmentsOf(db *lsm.DB) (*FragmentResult, []LayoutPoint) {
	// Average set size from the compaction trace.
	var setBytes, setN float64
	for _, ci := range mergeCompactions(db) {
		if ci.Inputs1 > 0 {
			setBytes += float64(ci.OutputBytes)
			setN++
		}
	}
	avgSet := int64(ratio(setBytes, setN))

	mgr := db.Device().DBand
	bands := mgr.Bands()
	res := &FragmentResult{Bands: len(bands), AvgSetBytes: avgSet}
	var total, largest int64
	var points []LayoutPoint
	for i, b := range bands {
		total += b.Len
		largest = max(largest, b.Len)
		points = append(points, LayoutPoint{
			Compaction: int64(i),
			OffsetMB:   float64(b.Off) / float64(kv.MiB),
			LengthKB:   float64(b.Len) / float64(kv.KiB),
		})
	}
	if len(bands) > 0 {
		res.MeanBandMB = float64(total) / float64(len(bands)) / float64(kv.MiB)
		res.MaxBandMB = float64(largest) / float64(kv.MiB)
	}
	res.OccupiedMB = float64(mgr.Frontier()) / float64(kv.MiB)
	res.FragmentMB = float64(mgr.FragmentBytes(avgSet)) / float64(kv.MiB)
	res.FragmentOfUsed = ratio(res.FragmentMB, res.OccupiedMB)
	return res, points
}

// PrintFig13 renders the fragment census.
func PrintFig13(w io.Writer, r *FragmentResult) {
	fmt.Fprintf(w, "Fig 13: %d dynamic bands (mean %.2f MB, max %.2f MB), occupied %.1f MB, fragments %.2f MB (%.2f%% of occupied, threshold = avg set %.2f MB)\n",
		r.Bands, r.MeanBandMB, r.MaxBandMB, r.OccupiedMB, r.FragmentMB,
		100*r.FragmentOfUsed, float64(r.AvgSetBytes)/float64(kv.MiB))
}
