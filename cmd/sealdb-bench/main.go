// Command sealdb-bench regenerates the tables and figures of the
// paper's evaluation section. Each figure prints a summary table to
// stdout; layout/latency series can additionally be dumped as CSV
// for plotting.
//
// Usage:
//
//	sealdb-bench -fig 8                 # one figure
//	sealdb-bench -fig 2,3,8,9,10,11,12,13,14 -table 2
//	sealdb-bench -all                   # everything
//	sealdb-bench -all -mb 192 -sst 262144   # bigger run
//	sealdb-bench -fig 2 -csv fig2.csv   # scatter data for plotting
//
// All timings are simulated device time (deterministic); see
// EXPERIMENTS.md for the mapping to the paper's results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sealdb/internal/bench"
	"sealdb/internal/kv"
	"sealdb/internal/lsm"
	"sealdb/internal/obs"
)

func main() {
	var (
		figs    = flag.String("fig", "", "comma-separated figure numbers to run (2,3,8,9,10,11,12,13,14)")
		table   = flag.Int("table", 0, "table number to run (2)")
		all     = flag.Bool("all", false, "run every table and figure")
		mb      = flag.Int64("mb", 0, "load size in MiB (default: harness default)")
		sst     = flag.Int64("sst", 0, "SSTable size in bytes (sets the geometry scale; default 256 KiB)")
		paper   = flag.Bool("paperscale", false, "use the paper's full-scale geometry (4 MiB SSTables; slow)")
		ops     = flag.Int("ops", 0, "read/YCSB operations per phase")
		seed    = flag.Int64("seed", 1, "workload seed")
		csvPath = flag.String("csv", "", "write figure series data (figs 2, 10, 11, 13) as CSV to this file")
		latency = flag.Bool("latency", false, "also run the per-operation latency profile")
		serve   = flag.String("serve", "", "serve /metrics and /debug for the store currently under test on this address (e.g. :8080)")

		ycsbjson = flag.String("ycsbjson", "", "run the load phase and YCSB A-F on every store and write machine-readable results (ops/s, p50/p99, WA/AWA per workload) to this JSON file")
		valsizes = flag.String("valuesizes", "", "comma-separated value sizes in bytes for -ycsbjson (e.g. 64,1024,65536,1048576); every store runs the full workload matrix per size")

		ycsbnet  = flag.String("ycsbnet", "", "run this YCSB workload (A-F) both in-process and through a sealdb server over TCP, comparing throughput")
		netrecs  = flag.Int64("netrecords", 20000, "records to load for -ycsbnet")
		netconns = flag.Int("netclients", 4, "client goroutines (and pooled connections) for -ycsbnet")

		churn     = flag.String("churn", "", "run the sustained-churn scenario (seeded overwrite+delete+scan on simulated device time, sampling the storage-surface observatory) and write the timeline to this JSON file")
		churnmins = flag.Float64("churnminutes", 2, "simulated device minutes of sustained churn for -churn")
		churnkeys = flag.Int("churnkeys", 4000, "working-set key count for -churn")
		churndump = flag.String("churndump", "", "also write a raw smrtrace dump of the churn run to this directory (for smrtrace -analyze)")
		churnsa   = flag.Float64("churnsa", 3, "steady-state space-amplification bound for -churn; exceeding it fails the run")
		churnp99  = flag.Duration("churnp99", 250*time.Millisecond, "steady-state per-op device-time p99 bound for -churn")
	)
	flag.Parse()
	if *seed == 0 {
		*seed = 1
	}

	if *churn != "" {
		runChurn(churnOptions{
			out: *churn, dumpDir: *churndump, minutes: *churnmins,
			keys: *churnkeys, seed: *seed,
			boundSA: *churnsa, boundP99: *churnp99,
		})
		return
	}
	if *ycsbnet != "" {
		netOps := *ops // the wall-clock comparison defaults to 10,000 operations
		if netOps <= 0 {
			netOps = 10000
		}
		runYCSBNet(*ycsbnet, *netrecs, netOps, 1024, *seed, *netconns)
		return
	}

	o := bench.DefaultOptions()
	o.Seed = *seed
	if *sst > 0 {
		// A disk with plenty of headroom over any load.
		o.Geometry = lsm.ScaledGeometry(*sst, max(2048**sst, 1*kv.GiB))
	}
	if *paper {
		o.Geometry = lsm.PaperGeometry()
	}
	if *mb > 0 {
		o.LoadMB = *mb
	}
	if *ops > 0 {
		o.Ops = *ops
	}

	// The harness opens a fresh store per experiment; -serve follows
	// whichever one is currently under test.
	var current atomic.Pointer[lsm.DB]
	if *serve != "" {
		o.Observe = func(db *lsm.DB) { current.Store(db) }
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			db := current.Load()
			if db == nil {
				http.Error(w, "no store under test yet", http.StatusServiceUnavailable)
				return
			}
			db.ObsHandler().ServeHTTP(w, r)
		})
		srv, err := obs.Serve(*serve, h)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("# serving http://%s/metrics for the store under test\n", srv.Addr)
	}

	if *ycsbjson != "" {
		sizes, err := parseValueSizes(*valsizes)
		if err != nil {
			fatal(err)
		}
		o.ValueSizes = sizes
		rep, err := bench.RunYCSBReport(o)
		if err != nil {
			fatal(err)
		}
		writeJSON(*ycsbjson, rep)
		fmt.Printf("# wrote %s (%d stores x %d phases)\n", *ycsbjson, len(rep.Stores), len(rep.Stores[0].Phases))
		return
	}

	if *all {
		*table, *figs = 2, "2,3,8,9,10,11,12,13,14"
	}
	var ids []string
	if *table == 2 {
		ids = append(ids, "table2")
	}
	for _, f := range strings.Split(*figs, ",") {
		if f = strings.TrimSpace(f); f != "" {
			ids = append(ids, f)
		}
	}
	if *latency {
		ids = append(ids, "latency")
	}
	if len(ids) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var csv *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		csv = f
	}

	fmt.Printf("# sealdb-bench: SSTable %s, band %s, load %d MiB, value %d B, seed %d\n\n",
		human(o.Geometry.SSTableSize), human(o.Geometry.BandSize), o.LoadMB, o.ValueSize, o.Seed)

	res, err := bench.Run(o, ids...)
	if err != nil {
		fatal(err)
	}
	res.Print(os.Stdout)
	if csv != nil {
		res.WriteCSV(csv)
	}
}

// writeJSON writes v to path as indented JSON, exiting on failure.
func writeJSON(path string, v any) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// parseValueSizes parses -valuesizes, a comma-separated list of
// positive integers.
func parseValueSizes(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -valuesizes entry %q (want a positive integer)", s)
		}
		out = append(out, n)
	}
	return out, nil
}

func human(n int64) string {
	switch {
	case n >= kv.GiB:
		return fmt.Sprintf("%.1f GiB", float64(n)/float64(kv.GiB))
	case n >= kv.MiB:
		return fmt.Sprintf("%.1f MiB", float64(n)/float64(kv.MiB))
	case n >= kv.KiB:
		return fmt.Sprintf("%.1f KiB", float64(n)/float64(kv.KiB))
	}
	return fmt.Sprintf("%d B", n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sealdb-bench:", err)
	os.Exit(1)
}
