package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"sealdb/internal/lsm"
)

// StoreRun is everything the figures read off one store: its random
// load is executed and timed once, and each field is a view of the
// loaded store.
type StoreRun struct {
	Store string
	// Micro is the Figure 8/14 row: RandWrite is the load itself, the
	// other columns are measured only by a micro run.
	Micro      MicroRow
	Layout     *LayoutResult      // Figures 2 and 11
	Sweep      BandSweepRow       // Figure 3, at the store's own band size
	Compaction *CompactionProfile // Figure 10
	Amp        lsm.Amplification  // Figure 12
	// Fragments and Bands are the Figure 13 census; nil unless the
	// store runs on dynamic bands.
	Fragments *FragmentResult
	Bands     []LayoutPoint
}

// RunStore loads a store of the given mode in random order and takes
// every view of it. A micro run adds the paper's other micro-benchmarks:
// first a sequential load on a store of its own, and after the views
// are taken the reads on the randomly loaded one.
func (o Options) RunStore(mode lsm.Mode, micro bool) (*StoreRun, error) {
	run := &StoreRun{Store: mode.String()}
	if micro {
		seq, err := o.load(o.config(mode), o.ValueSize, true, nil)
		if err != nil {
			return nil, err
		}
		run.Micro.SeqWrite = throughput(seq.records, seq.time)
		seq.db.Close()
	}
	ld, err := o.load(o.config(mode), o.ValueSize, false, nil)
	if err != nil {
		return nil, err
	}
	defer ld.db.Close()
	run.Micro.RandWrite = throughput(ld.records, ld.time)
	run.Layout = layoutOf(ld.db)
	run.Sweep = bandSweepRow(ld.db)
	run.Compaction = compactionProfileOf(ld.db)
	run.Amp = ld.db.Amplification()
	if ld.db.Device().DBand != nil {
		run.Fragments, run.Bands = fragmentsOf(ld.db)
	}
	if micro {
		err = o.microReads(ld, &run.Micro)
	}
	return run, err
}

// Results holds the rows of every figure one Run produced.
type Results struct {
	figures []figure

	Table2 []DeviceRow
	// Stores holds the shared loads, one per mode some figure reads.
	Stores  map[lsm.Mode]*StoreRun
	Fig3    []BandSweepRow
	Fig9    []YCSBStoreReport
	Latency []LatencyRow
}

// runs returns the shared loads of the given modes, in order.
func (r *Results) runs(modes []lsm.Mode) []*StoreRun {
	out := make([]*StoreRun, len(modes))
	for i, m := range modes {
		out[i] = r.Stores[m]
	}
	return out
}

var (
	paperStores    = []lsm.Mode{lsm.ModeLevelDB, lsm.ModeSMRDB, lsm.ModeSEALDB}
	ablationStores = []lsm.Mode{lsm.ModeLevelDB, lsm.ModeLevelDBSets, lsm.ModeSEALDB}
)

// figure is one table or figure of the evaluation.
type figure struct {
	id     string
	stores []lsm.Mode // the shared loads it is a view of
	micro  bool       // whether those are micro runs
	// run, when set, is what the figure needs stores of its own for;
	// it executes after the shared loads.
	run   func(o Options, r *Results) error
	print func(w io.Writer, r *Results)
	csv   func(w io.Writer, r *Results) // series data for plotting, if any
}

// figures lists the evaluation in print order.
var figures = []figure{
	{id: "table2", run: runTable2, print: printTable2},
	{id: "2", stores: []lsm.Mode{lsm.ModeLevelDB},
		print: func(w io.Writer, r *Results) { PrintLayout(w, "Fig 2", r.Stores[lsm.ModeLevelDB]) },
		csv: func(w io.Writer, r *Results) {
			WritePointsCSV(w, "compaction", r.Stores[lsm.ModeLevelDB].Layout.Points)
		}},
	{id: "3", stores: []lsm.Mode{lsm.ModeLevelDB}, run: runFig3, print: printFig3},
	{id: "8", stores: paperStores, micro: true,
		print: func(w io.Writer, r *Results) { printMicroRows(w, "Fig 8", r.runs(paperStores)) }},
	{id: "9", run: runFig9, print: printFig9},
	{id: "10", stores: paperStores, print: printFig10, csv: writeFig10CSV},
	{id: "11", stores: []lsm.Mode{lsm.ModeSEALDB},
		print: func(w io.Writer, r *Results) { PrintLayout(w, "Fig 11", r.Stores[lsm.ModeSEALDB]) },
		csv: func(w io.Writer, r *Results) {
			WritePointsCSV(w, "compaction", r.Stores[lsm.ModeSEALDB].Layout.Points)
		}},
	{id: "12", stores: paperStores, print: printFig12},
	{id: "13", stores: []lsm.Mode{lsm.ModeSEALDB},
		print: func(w io.Writer, r *Results) { PrintFig13(w, r.Stores[lsm.ModeSEALDB].Fragments) },
		csv:   func(w io.Writer, r *Results) { WritePointsCSV(w, "band", r.Stores[lsm.ModeSEALDB].Bands) }},
	{id: "14", stores: ablationStores, micro: true,
		print: func(w io.Writer, r *Results) { printMicroRows(w, "Fig 14", r.runs(ablationStores)) }},
	{id: "latency", run: runLatencyProfile, print: printLatency},
}

// Run produces the named figures — "table2", the paper's figure
// numbers, "latency"; all of them when none is named — store by
// store, not figure by figure: each mode a requested figure reads is
// loaded once, one store open at a time, before the figures run what
// needs stores of their own.
func Run(o Options, ids ...string) (*Results, error) {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	r := &Results{Stores: map[lsm.Mode]*StoreRun{}}
	micro := map[lsm.Mode]bool{} // the modes to load, and which need the micro row
	for _, f := range figures {
		if len(ids) > 0 && !want[f.id] {
			continue
		}
		delete(want, f.id)
		r.figures = append(r.figures, f)
		for _, m := range f.stores {
			micro[m] = micro[m] || f.micro
		}
	}
	for id := range want {
		return nil, fmt.Errorf("bench: unknown figure %q", id)
	}
	for _, m := range []lsm.Mode{lsm.ModeLevelDB, lsm.ModeSMRDB, lsm.ModeLevelDBSets, lsm.ModeSEALDB} {
		if withMicro, load := micro[m]; load {
			var err error
			if r.Stores[m], err = o.RunStore(m, withMicro); err != nil {
				return nil, err
			}
		}
	}
	for _, f := range r.figures {
		if f.run != nil {
			if err := f.run(o, r); err != nil {
				return nil, fmt.Errorf("bench: figure %s: %w", f.id, err)
			}
		}
	}
	return r, nil
}

// Print renders every figure of the run, in evaluation order, each
// with its columns aligned and followed by a blank line.
func (r *Results) Print(w io.Writer) {
	for _, f := range r.figures {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		f.print(tw, r)
		tw.Flush()
		fmt.Fprintln(w)
	}
}

// WriteCSV dumps the series data of the figures that have any (2, 10,
// 11, 13), in evaluation order.
func (r *Results) WriteCSV(w io.Writer) {
	for _, f := range r.figures {
		if f.csv != nil {
			f.csv(w, r)
		}
	}
}
