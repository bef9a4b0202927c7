// Command sealdb is a small interactive driver for the store: it
// loads a database on an emulated SMR drive, runs a batch of
// operations from the command line, and reports the engine and
// device statistics — a quick way to poke at the system without
// writing code.
//
// Usage:
//
//	sealdb -mode sealdb -load 100000 -get user000000000042
//	sealdb -mode leveldb -load 50000 -scan user000000000100:10 -stats
//	sealdb -mode sealdb -load 200000 -ycsb A -ops 10000
//
// The serve subcommand instead exposes the store over the wire
// protocol for sealclient consumers (see DESIGN.md, "Serving layer"):
//
//	sealdb serve -addr :7070 -mode sealdb -load 100000 -obs :8080
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sealdb"
	"sealdb/internal/kv"
	"sealdb/internal/obs"
	"sealdb/internal/smr"
	"sealdb/internal/ycsb"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	var (
		mode   = flag.String("mode", "sealdb", "engine mode: leveldb, leveldb+sets, smrdb, sealdb")
		load   = flag.Int64("load", 0, "records to load (random order) before running operations")
		vsize  = flag.Int("value", 1024, "value size in bytes")
		get    = flag.String("get", "", "key to read")
		put    = flag.String("put", "", "key=value to write")
		del    = flag.String("del", "", "key to delete")
		scan   = flag.String("scan", "", "start[:count] range scan")
		wl     = flag.String("ycsb", "", "YCSB workload to run (A-F)")
		ops    = flag.Int("ops", 10000, "operations for -ycsb")
		stats  = flag.Bool("stats", false, "print engine and device statistics")
		verify = flag.Bool("verify", false, "run the integrity check (fsck) before exiting")
		serve  = flag.String("serve", "", "serve /metrics and /debug endpoints on this address (e.g. :8080) after running the operations")
		seed   = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	m, err := parseMode(*mode)
	if err != nil {
		fatal(err)
	}
	db, err := sealdb.Open(sealdb.DefaultConfig(m))
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	runner := ycsb.NewRunner(adapter{db}, *vsize, *seed)
	if *load > 0 {
		start := db.Device().Disk.Stats().BusyTime
		if err := runner.LoadRandom(*load); err != nil {
			fatal(err)
		}
		d := db.Device().Disk.Stats().BusyTime - start
		fmt.Printf("loaded %d records in %v simulated (%.0f ops/s)\n",
			*load, d.Round(1e6), float64(*load)/d.Seconds())
	}

	if *put != "" {
		k, v, ok := strings.Cut(*put, "=")
		if !ok {
			fatal(fmt.Errorf("-put wants key=value"))
		}
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			fatal(err)
		}
		fmt.Printf("put %q\n", k)
	}
	if *get != "" {
		v, err := db.Get([]byte(*get))
		switch err {
		case nil:
			fmt.Printf("get %q -> %d bytes", *get, len(v))
			if len(v) <= 64 {
				fmt.Printf(" (%q)", v)
			}
			fmt.Println()
		case sealdb.ErrNotFound:
			fmt.Printf("get %q -> not found\n", *get)
		default:
			fatal(err)
		}
	}
	if *del != "" {
		if err := db.Delete([]byte(*del)); err != nil {
			fatal(err)
		}
		fmt.Printf("deleted %q\n", *del)
	}
	if *scan != "" {
		start, countS, ok := strings.Cut(*scan, ":")
		count := 10
		if ok {
			if n, err := strconv.Atoi(countS); err == nil {
				count = n
			}
		}
		kvs, err := db.Scan([]byte(start), count)
		if err != nil {
			fatal(err)
		}
		for _, e := range kvs {
			fmt.Printf("  %q (%d bytes)\n", e.Key, len(e.Value))
		}
		fmt.Printf("scan %q -> %d entries\n", start, len(kvs))
	}
	if *wl != "" {
		w, err := findWorkload(*wl)
		if err != nil {
			fatal(err)
		}
		start := db.Device().Disk.Stats().BusyTime
		res, err := runner.Run(w, *ops)
		if err != nil {
			fatal(err)
		}
		d := db.Device().Disk.Stats().BusyTime - start
		fmt.Printf("workload %s: %d ops in %v simulated (%.0f ops/s); reads %d, updates %d, inserts %d, scans %d, rmw %d\n",
			w.Name, res.Ops, d.Round(1e6), float64(res.Ops)/d.Seconds(),
			res.Reads, res.Updates, res.Inserts, res.Scans, res.RMWs)
	}

	if *verify {
		if err := db.VerifyIntegrity(); err != nil {
			fatal(fmt.Errorf("integrity check failed: %w", err))
		}
		fmt.Println("integrity: ok")
	}
	if *stats {
		printStats(db)
	}

	if *serve != "" {
		srv, err := obs.Serve(*serve, db.ObsHandler())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("serving http://%s/metrics (and /debug/levels, /debug/sets, /debug/events, /debug/faults, /debug/bands, /debug/space, /debug/contention, /debug/pprof/); ctrl-c to stop\n", srv.Addr)
		select {}
	}
}

// adapter wires the public DB to the ycsb.Store interface.
type adapter struct{ db *sealdb.DB }

func (a adapter) Put(k, v []byte) error        { return a.db.Put(k, v) }
func (a adapter) Get(k []byte) ([]byte, error) { return a.db.Get(k) }
func (a adapter) ScanN(start []byte, n int) (int, error) {
	kvs, err := a.db.Scan(start, n)
	return len(kvs), err
}

var _ ycsb.Store = adapter{}

func parseMode(s string) (sealdb.Mode, error) {
	switch strings.ToLower(s) {
	case "leveldb":
		return sealdb.ModeLevelDB, nil
	case "leveldb+sets", "sets":
		return sealdb.ModeLevelDBSets, nil
	case "smrdb":
		return sealdb.ModeSMRDB, nil
	case "sealdb":
		return sealdb.ModeSEALDB, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

func findWorkload(name string) (ycsb.Workload, error) {
	for _, w := range ycsb.CoreWorkloads() {
		if strings.EqualFold(w.Name, name) {
			return w, nil
		}
	}
	return ycsb.Workload{}, fmt.Errorf("unknown workload %q (want A-F)", name)
}

func printStats(db *sealdb.DB) {
	st := db.Stats()
	amp := db.Amplification()
	ds := db.Device().Disk.Stats()
	fmt.Println("--- engine ---")
	fmt.Printf("user writes: %d ops, %s\n", st.UserWrites, human(st.UserBytes))
	fmt.Printf("flushes: %d (%s); compactions: %d (read %s, wrote %s); trivial moves: %d\n",
		st.FlushCount, human(st.FlushBytes), st.CompactionCount,
		human(st.CompactionReadBytes), human(st.CompactionWriteBytes), st.TrivialMoves)
	fmt.Printf("gets: %d (%d hits)\n", st.Gets, st.GetHits)
	fmt.Println("--- amplification ---")
	fmt.Printf("WA %.2f  AWA %.3f  MWA %.2f\n", amp.WA, amp.AWA, amp.MWA)
	fmt.Println("--- device ---")
	fmt.Printf("read %s in %d ops, wrote %s in %d ops, %d seeks, busy %v (AWA %.3f)\n",
		human(ds.BytesRead), ds.ReadOps, human(ds.BytesWritten), ds.WriteOps,
		ds.Seeks, ds.BusyTime.Round(1e6), smr.AWA(db.Device().Drive))
}

func human(n int64) string {
	switch {
	case n >= kv.GiB:
		return fmt.Sprintf("%.2f GiB", float64(n)/float64(kv.GiB))
	case n >= kv.MiB:
		return fmt.Sprintf("%.2f MiB", float64(n)/float64(kv.MiB))
	case n >= kv.KiB:
		return fmt.Sprintf("%.2f KiB", float64(n)/float64(kv.KiB))
	}
	return fmt.Sprintf("%d B", n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sealdb:", err)
	os.Exit(1)
}
