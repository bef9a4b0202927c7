package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"sealdb/internal/kv"
	"sealdb/internal/platter"
	"sealdb/internal/smr"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ---------------------------------------------------------------------------
// Table II — raw device performance

// DeviceRow is one line of Table II.
type DeviceRow struct {
	Metric string
	HDD    float64
	SMR    float64
}

// rawDevice is what Table II characterizes: the bare platter or an SMR
// drive over one.
type rawDevice interface {
	ReadAt(p []byte, off int64) (time.Duration, error)
	WriteAt(p []byte, off int64) (time.Duration, error)
	Capacity() int64
}

// runTable2 measures the emulated devices the way the paper's Table
// II benchmarks the real ones: streaming bandwidth and random 4 KiB
// IOPS, on a conventional drive (bare platter) and on the fixed-band
// SMR drive. The SMR drive uses the paper's full-scale 40 MiB bands —
// this is a device characterization, independent of the store's
// scaled geometry.
func runTable2(o Options, r *Results) error {
	const table2Band = 40 * kv.MiB
	mkDisk := func() *platter.Disk {
		return platter.New(platter.DefaultConfig(o.Geometry.DiskCapacity))
	}
	hdd, err := deviceColumn(mkDisk(), 0, 11)
	if err != nil {
		return err
	}
	// SMR drive: fixed bands; random writes pay read-modify-write.
	// Precondition a region so its band write pointers are high, as a
	// sustained-random-write characterization does: on a virgin band a
	// shingled write just streams forward, but rewriting used bands
	// pays the full read-modify-write (the paper's 5–140 IOPS range is
	// this bimodality; we report the sustained end).
	smrDrive, err := deviceColumn(smr.NewFixedBand(mkDisk(), table2Band), 8*table2Band, 13)
	if err != nil {
		return err
	}
	r.Table2 = []DeviceRow{
		{Metric: "Sequential read (MB/s)"}, {Metric: "Sequential write (MB/s)"},
		{Metric: "Random read 4KiB (IOPS)"}, {Metric: "Random write 4KiB (IOPS)"},
	}
	for i := range r.Table2 {
		r.Table2[i].HDD, r.Table2[i].SMR = hdd[i], smrDrive[i]
	}
	return nil
}

// deviceColumn measures one device's Table II column, in row order,
// streaming writes before reads so the reads find data. Random
// accesses span the whole surface, as a device characterization does,
// except that a non-zero precondition first rewrites that many leading
// bytes and confines the random writes (seed+1) to them.
func deviceColumn(dev rawDevice, precondition, seed int64) (col [4]float64, err error) {
	const streamMB = 64
	const randomOps = 300
	// timed sums the service time of n accesses of size bytes at the
	// offsets at yields, stopping at the first error.
	timed := func(op func([]byte, int64) (time.Duration, error), size, n int, at func(i int) int64) time.Duration {
		buf := make([]byte, size)
		var total time.Duration
		for i := 0; i < n && err == nil; i++ {
			var dt time.Duration
			dt, err = op(buf, at(i))
			total += dt
		}
		return total
	}
	stream := func(i int) int64 { return int64(i) << 20 }
	col[1] = float64(streamMB) * 1e6 / timed(dev.WriteAt, 1<<20, streamMB, stream).Seconds() / 1e6
	col[0] = float64(streamMB) * 1e6 / timed(dev.ReadAt, 1<<20, streamMB, stream).Seconds() / 1e6

	span, rng := dev.Capacity(), newRng(seed)
	random := func(int) int64 { return rng.Int63n(span/4096) * 4096 }
	col[2] = float64(randomOps) / timed(dev.ReadAt, 4096, randomOps, random).Seconds()
	if precondition > 0 {
		span = min(span, precondition)
		timed(dev.WriteAt, 1<<20, int(span>>20), stream)
	}
	rng = newRng(seed + 1)
	col[3] = float64(randomOps) / timed(dev.WriteAt, 4096, randomOps, random).Seconds()
	return col, err
}

// printTable2 renders Table II.
func printTable2(tw io.Writer, res *Results) {
	fmt.Fprintf(tw, "Table II: device performance\t(emulated HDD)\t(emulated SMR)\n")
	for _, r := range res.Table2 {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\n", r.Metric, r.HDD, r.SMR)
	}
}

// ---------------------------------------------------------------------------
// Figure 8 — micro-benchmarks, and Figure 14 — ablation

// MicroRow is one store's result across the four micro workloads
// (throughputs in simulated ops/s).
type MicroRow struct {
	SeqWrite  float64
	RandWrite float64
	SeqRead   float64
	RandRead  float64
}

// Normalized returns the row's throughputs normalized to base.
func (r MicroRow) Normalized(base MicroRow) MicroRow {
	return MicroRow{
		SeqWrite:  ratio(r.SeqWrite, base.SeqWrite),
		RandWrite: ratio(r.RandWrite, base.RandWrite),
		SeqRead:   ratio(r.SeqRead, base.SeqRead),
		RandRead:  ratio(r.RandRead, base.RandRead),
	}
}

// microReads runs the paper's sequential and random read benchmarks
// on a randomly loaded store, filling the read columns of row.
func (o Options) microReads(ld *loaded, row *MicroRow) error {
	d, err := phase(ld.db, func() error { return seqRead(ld.db, o.Ops) })
	if err != nil {
		return err
	}
	row.SeqRead = throughput(int64(o.Ops), d)

	d, err = phase(ld.db, func() error { return randRead(ld.db, ld.records, o.Ops, o.Seed+77) })
	row.RandRead = throughput(int64(o.Ops), d)
	return err
}

// printMicroRows renders Figure 8/14 rows, normalized to the first.
func printMicroRows(tw io.Writer, title string, runs []*StoreRun) {
	fmt.Fprintf(tw, "%s\tseq-write\trand-write\tseq-read\trand-read\t(normalized to %s; raw ops/s in parens)\n",
		title, runs[0].Store)
	for _, run := range runs {
		r := run.Micro
		n := r.Normalized(runs[0].Micro)
		fmt.Fprintf(tw, "%s\t%.2fx (%.0f)\t%.2fx (%.0f)\t%.2fx (%.0f)\t%.2fx (%.0f)\t\n",
			run.Store, n.SeqWrite, r.SeqWrite, n.RandWrite, r.RandWrite,
			n.SeqRead, r.SeqRead, n.RandRead, r.RandRead)
	}
}
