package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"sealdb"
	"sealdb/internal/obs"
	"sealdb/internal/server"
	"sealdb/internal/ycsb"
)

// runServe is the `sealdb serve` subcommand: open a store, optionally
// preload it, and serve the wire protocol on a TCP address until
// SIGINT/SIGTERM. With -obs it also exposes the HTTP observability
// endpoints (now including the serving-layer series and /debug/conns).
//
//	sealdb serve -addr :7070 -mode sealdb -load 100000 -obs :8080
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr    = fs.String("addr", ":7070", "TCP listen address for the wire protocol")
		mode    = fs.String("mode", "sealdb", "engine mode: leveldb, leveldb+sets, smrdb, sealdb")
		load    = fs.Int64("load", 0, "records to load (random order) before serving")
		vsize   = fs.Int("value", 1024, "value size in bytes for -load")
		seed    = fs.Int64("seed", 1, "load seed")
		obsAddr = fs.String("obs", "", "also serve /metrics and /debug endpoints on this HTTP address")
		conns   = fs.Int("conns", 0, "max concurrent connections (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}

	m, err := parseMode(*mode)
	if err != nil {
		fatal(err)
	}
	db, err := sealdb.Open(sealdb.DefaultConfig(m))
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	if *load > 0 {
		runner := ycsb.NewRunner(adapter{db}, *vsize, *seed)
		if err := runner.LoadRandom(*load); err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %d records\n", *load)
	}

	srv, err := server.Serve(db, *addr, server.Config{MaxConns: *conns})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving sealdb wire protocol on %s (mode %s)\n", srv.Addr(), *mode)

	if *obsAddr != "" {
		osrv, err := obs.Serve(*obsAddr, srv.Handler())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("observability on http://%s/metrics (plus /debug/levels, /debug/sets, /debug/events, /debug/faults, /debug/bands, /debug/space, /debug/contention, /debug/pprof/, /debug/conns)\n", osrv.Addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("draining...")
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "sealdb: close:", err)
	}
	fmt.Println("stopped")
}
