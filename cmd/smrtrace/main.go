// Command smrtrace loads a store while tracing every device access
// attributed to a compaction, and dumps the placement data behind the
// paper's layout figures (2, 11, 13) on stdout — as CSV by default,
// or as JSON lines with -format json.
//
// Usage:
//
//	smrtrace -mode leveldb -mb 32 > fig2.csv    # Figure 2
//	smrtrace -mode sealdb  -mb 32 > fig11.csv   # Figure 11
//	smrtrace -mode sealdb  -mb 32 -bands > fig13.csv
//	smrtrace -mode sealdb  -mb 32 -format json > fig11.jsonl
//
// It is also the front end of the request-tracing analyzer:
//
//	smrtrace -mode sealdb -mb 8 -dump DIR   # traced run, write raw dump
//	smrtrace -analyze DIR                   # offline: heatmaps + WA/AWA report
//
// A dump directory holds meta.json (geometry and live counters),
// trace.jsonl (every physical access) and events.jsonl (the event
// journal, sampled span trees included). -dump closes the window with
// VerifyIntegrity and exits nonzero if the store fails it; -analyze
// recomputes the amplification from the raw records and fails loudly
// if it disagrees with the live counters by more than 1%.
package main

import (
	"flag"
	"fmt"
	"os"

	"sealdb/internal/bench"
	"sealdb/internal/lsm"
	"sealdb/internal/obs"
	"sealdb/internal/traceanalyze"
	"sealdb/internal/ycsb"
)

func main() {
	var (
		mode   = flag.String("mode", "sealdb", "engine mode: leveldb, leveldb+sets, smrdb, sealdb")
		mb     = flag.Int64("mb", 0, "load size in MiB")
		sst    = flag.Int64("sst", 0, "SSTable size in bytes")
		bands  = flag.Bool("bands", false, "dump the dynamic band census (Fig 13) instead of the write trace")
		format = flag.String("format", "csv", "output format: csv or json (JSON lines)")
		seed   = flag.Int64("seed", 1, "workload seed")

		analyze = flag.String("analyze", "", "offline mode: analyze an existing dump directory and exit")
		dump    = flag.String("dump", "", "run a traced YCSB workload and write a raw dump (meta.json, trace.jsonl, events.jsonl) to this directory")
		ops     = flag.Int("ops", 2000, "workload operations for -dump")
		vthresh = flag.Int("valuethreshold", 0, "key–value separation threshold in bytes for -dump (0 = off): values at or above it go to the value log")
	)
	flag.Parse()

	if *analyze != "" {
		runAnalyze(*analyze)
		return
	}
	if *format != "csv" && *format != "json" {
		fmt.Fprintf(os.Stderr, "smrtrace: unknown format %q (want csv or json)\n", *format)
		os.Exit(2)
	}

	o := bench.DefaultOptions()
	o.Seed = *seed
	if *sst > 0 {
		o.Geometry = lsm.ScaledGeometry(*sst, 2048**sst)
	}
	if *mb > 0 {
		o.LoadMB = *mb
	}

	var m lsm.Mode
	switch *mode {
	case "leveldb":
		m = lsm.ModeLevelDB
	case "leveldb+sets":
		m = lsm.ModeLevelDBSets
	case "smrdb":
		m = lsm.ModeSMRDB
	case "sealdb":
		m = lsm.ModeSEALDB
	default:
		fmt.Fprintf(os.Stderr, "smrtrace: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	if *dump != "" {
		runDump(*dump, m, o, *ops, *vthresh)
		return
	}

	if *bands && m != lsm.ModeSEALDB {
		fmt.Fprintln(os.Stderr, "smrtrace: -bands requires -mode sealdb")
		os.Exit(2)
	}
	run, err := o.RunStore(m, false)
	if err != nil {
		fatalf("%v", err)
	}
	index, points := "compaction", run.Layout.Points
	if *bands {
		bench.PrintFig13(os.Stderr, run.Fragments)
		index, points = "band", run.Bands
	} else {
		bench.PrintLayout(os.Stderr, "layout", run)
	}
	if *format == "json" {
		enc := obs.NewJSONLines(os.Stdout)
		for _, p := range points {
			if err := enc.Encode(p); err != nil {
				fatalf("%v", err)
			}
		}
		return
	}
	bench.WritePointsCSV(os.Stdout, index, points)
}

// runDump executes a traced load + YCSB-A window and writes the raw
// dump, then prints the analysis of what it just captured.
func runDump(dir string, m lsm.Mode, o bench.Options, ops, vthresh int) {
	cfg := lsm.Config{Mode: m, Geometry: o.Geometry, Seed: o.Seed}
	cfg.ValueThreshold = vthresh
	cfg.JournalCapacity = 1 << 16
	cfg.Trace = lsm.TraceConfig{Enabled: true, SampleEvery: 8}
	db, err := lsm.Open(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	defer db.Close()

	base := traceanalyze.Begin(db)
	runner := ycsb.NewRunner(bench.DBStore{DB: db}, o.ValueSize, o.Seed)
	if err := runner.LoadRandom(o.RecordsFor(o.ValueSize)); err != nil {
		fatalf("load: %v", err)
	}
	if _, err := runner.Run(ycsb.WorkloadA, ops); err != nil {
		fatalf("workload: %v", err)
	}
	d, err := traceanalyze.Collect(db, base)
	if err != nil {
		fatalf("%v", err)
	}
	if err := d.Write(dir); err != nil {
		fatalf("write dump: %v", err)
	}
	fmt.Fprintf(os.Stderr, "smrtrace: wrote %s (%d trace entries, %d events)\n",
		dir, len(d.Trace), len(d.Events))
	report(d)
}

// runAnalyze is the offline path: load a dump from disk and report.
func runAnalyze(dir string) {
	d, err := traceanalyze.ReadDump(dir)
	if err != nil {
		fatalf("%v", err)
	}
	report(d)
}

func report(d *traceanalyze.Dump) {
	rep := traceanalyze.Analyze(d)
	rep.WriteText(os.Stdout)
	if err := rep.Verify(0.01); err != nil {
		fatalf("%v", err)
	}
	fmt.Println("verify: live amplification matches recomputation within 1%")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "smrtrace: "+format+"\n", args...)
	os.Exit(1)
}
