package main

import (
	"fmt"
	"strings"
	"time"

	"sealdb/internal/bench"
	"sealdb/internal/obs"
	"sealdb/internal/ycsb"
)

// ScaleSchema identifies the BENCH_scaling.json layout so CI can
// validate artifacts across revisions.
const ScaleSchema = "sealdb-bench-scaling/v1"

// ScaleReport is the top-level -scale output: one sweep of client
// counts per workload against a fresh server each point.
type ScaleReport struct {
	Schema    string          `json:"schema"`
	Records   int64           `json:"records"`
	Ops       int             `json:"ops_per_point"`
	ValueSize int             `json:"value_size"`
	Seed      int64           `json:"seed"`
	Workloads []ScaleWorkload `json:"workloads"`
}

// ScaleWorkload is one workload's scaling curve.
type ScaleWorkload struct {
	Name   string       `json:"workload"`
	Points []ScalePoint `json:"points"`
}

// ScalePoint is one (workload, client count) measurement.
type ScalePoint struct {
	Clients        int     `json:"clients"`
	Ops            int     `json:"ops"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	OpsPerSec      float64 `json:"ops_per_sec"`
	P50NS          int64   `json:"p50_ns"`
	P99NS          int64   `json:"p99_ns"`
	// LockWaitNS is the total time all goroutines spent blocked on
	// profiled locks during the window, summed over sites.
	LockWaitNS int64 `json:"lock_wait_ns"`
	// LockWaitShare is LockWaitNS over the window's total client time
	// (clients x elapsed): the fraction of client capacity burned
	// waiting on locks. The number the big-mutex split must drive down.
	LockWaitShare float64 `json:"lock_wait_share"`
	TopLockSite   string  `json:"top_lock_site"`
}

// runScale sweeps client counts over TCP for each workload, writing
// the scaling report to outPath and a summary table to stdout. Every
// point gets a fresh store and server so the curve measures scaling,
// not accumulated compaction debt.
func runScale(outPath, workloads, clientList string, records int64, ops, valueSize int, seed int64) {
	counts, err := parseInts(clientList, "client count")
	if err == nil && len(counts) == 0 {
		err = fmt.Errorf("no client counts in %q (want e.g. 1,2,4,8)", clientList)
	}
	if err != nil {
		fatal(err)
	}
	rep := ScaleReport{
		Schema:    ScaleSchema,
		Records:   records,
		Ops:       ops,
		ValueSize: valueSize,
		Seed:      seed,
	}

	fmt.Printf("# scale: workloads %s, clients %v, %d records, %d ops/point\n\n",
		workloads, counts, records, ops)
	fmt.Printf("%-8s %8s %10s %12s %10s %10s %10s  %s\n",
		"workload", "clients", "ops/s", "p50", "p99", "lockwait", "share", "top site")

	for _, wlName := range strings.Split(workloads, ",") {
		w, err := findWorkload(strings.TrimSpace(wlName))
		if err != nil {
			fatal(err)
		}
		sw := ScaleWorkload{Name: w.Name}
		for _, n := range counts {
			p := runScalePoint(w, records, ops, valueSize, seed, n)
			sw.Points = append(sw.Points, p)
			fmt.Printf("%-8s %8d %10.0f %12v %10v %10v %9.1f%%  %s\n",
				w.Name, p.Clients, p.OpsPerSec,
				time.Duration(p.P50NS).Round(time.Microsecond),
				time.Duration(p.P99NS).Round(time.Microsecond),
				time.Duration(p.LockWaitNS).Round(time.Microsecond),
				p.LockWaitShare*100, p.TopLockSite)
		}
		rep.Workloads = append(rep.Workloads, sw)
		fmt.Println()
	}

	writeJSON(outPath, rep)
	fmt.Printf("# wrote %s (%d workloads x %d client counts)\n",
		outPath, len(rep.Workloads), len(counts))
}

// runScalePoint measures one (workload, clients) cell: fresh DB and
// server, N pooled connections, N runner goroutines, lock profiling
// bracketing the measured run.
func runScalePoint(w ycsb.Workload, records int64, ops, valueSize int, seed int64, clients int) ScalePoint {
	sv := openServed(clients)
	defer sv.Close()

	lat := obs.NewHistogram()
	before := map[string]obs.LockSiteSnapshot{}
	for _, s := range obs.ContentionProfile() {
		before[s.Name] = s
	}
	obs.SetLockProfiling(true)
	wallStart := time.Now()
	wall := func() int64 { return int64(time.Since(wallStart)) }
	n, elapsed, err := runYCSBParallel(w, records, ops, valueSize, seed, clients,
		bench.DBStore{DB: sv.db}, func() ycsb.Store {
			return &bench.TimedStore{Store: netStore{sv.cl}, Clock: wall, H: lat}
		})
	obs.SetLockProfiling(false)
	if err != nil {
		fatal(err)
	}

	// Rank sites by wait accrued in the window; when nothing waited
	// (e.g. GOMAXPROCS=1 serializes the clients), fall back to hold
	// time so the hottest lock is still named.
	var waitTotal, topWait, topHold int64
	var topSite string
	for _, s := range obs.ContentionProfile() {
		waitDelta := s.TotalWaitNS - before[s.Name].TotalWaitNS
		holdDelta := s.TotalHoldNS - before[s.Name].TotalHoldNS
		waitTotal += waitDelta
		if waitDelta > topWait || (topWait == 0 && holdDelta > topHold) {
			topWait, topHold, topSite = waitDelta, holdDelta, s.Name
		}
	}

	snap := lat.Snapshot()
	p := ScalePoint{
		Clients:        clients,
		Ops:            n,
		ElapsedSeconds: elapsed.Seconds(),
		OpsPerSec:      float64(n) / elapsed.Seconds(),
		P50NS:          snap.P50,
		P99NS:          snap.P99,
		LockWaitNS:     waitTotal,
		TopLockSite:    topSite,
	}
	if budget := int64(clients) * elapsed.Nanoseconds(); budget > 0 {
		p.LockWaitShare = float64(waitTotal) / float64(budget)
	}
	return p
}
