// Command sealdb-chaos runs a seeded chaos campaign against a full
// SEALDB stack — TCP server, pipelined clients, per-worker network
// fault proxies, fault-injected device — and checks the recorded
// history for safety violations: lost acked writes, phantom or stale
// reads, session regressions, unsticky degraded mode.
//
// The whole campaign derives from -seed: two runs with the same flags
// produce byte-identical histories, so any reported violation replays
// exactly. Exit status is 1 when the checker finds violations (or the
// campaign itself fails), 0 on a clean run.
//
// Usage:
//
//	sealdb-chaos -seed 7 -rounds 10 -clients 4 -faults crash,net
//	sealdb-chaos -seed 7 -out history.json   # dump the canonical history
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"sealdb/internal/chaos"
	"sealdb/internal/chaos/history"
	"sealdb/internal/invariant"
)

func main() {
	fs := flag.NewFlagSet("sealdb-chaos", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "campaign seed; same seed, same flags => identical history")
	rounds := fs.Int("rounds", 6, "serve/fault/recover/check cycles")
	clients := fs.Int("clients", 4, "concurrent workers, one connection each")
	ticks := fs.Int("ticks", 10, "lockstep ticks per round")
	burst := fs.Int("burst", 6, "writes per writer tick")
	keys := fs.Int("keys", 8, "keys per worker shard")
	valueSize := fs.Int("value-size", 512, "padded value size in bytes")
	vlogMode := fs.Bool("vlog", false, "run the engine in value-separated mode (64 B threshold): faults land in value-log group writes, rotations and WAL commits")
	faults := fs.String("faults", "all", "fault classes: all, none, or comma list of crash,net,disk,flip")
	out := fs.String("out", "", "write the canonical history JSON to this file")
	lockEdges := fs.String("lock-edges", "", "write observed lock-order edges JSON to this file (populated in -tags sealdb_invariants builds)")
	quiet := fs.Bool("q", false, "suppress per-round progress")
	fs.Parse(os.Args[1:])

	fset, err := chaos.ParseFaults(*faults)
	if err != nil {
		fatal(err)
	}
	cfg := chaos.Config{
		Seed: *seed, Rounds: *rounds, Clients: *clients, Ticks: *ticks,
		Burst: *burst, KeysPerWorker: *keys, ValueSize: *valueSize,
		Vlog: *vlogMode, Faults: fset,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}

	h, runErr := chaos.Run(cfg)
	if *lockEdges != "" {
		// In invariant builds the obs wrappers feed the lock-order
		// watchdog; dump what actually nested so CI can cross-check
		// the static '// lockorder:' declarations. Default builds
		// write an empty list.
		edges := invariant.LockOrderEdges()
		if edges == nil {
			edges = [][2]string{}
		}
		b, err := json.MarshalIndent(edges, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*lockEdges, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if h != nil && *out != "" {
		b, err := h.Canonical()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fatal(err)
		}
	}
	if runErr != nil {
		fatal(runErr)
	}

	hash, err := h.Hash()
	if err != nil {
		fatal(err)
	}
	ops := 0
	for i := range h.Rounds {
		ops += len(h.Rounds[i].Ops)
	}
	violations := history.Check(h)
	fmt.Printf("seed=%d rounds=%d ops=%d faults=%s hash=%s violations=%d\n",
		h.Seed, len(h.Rounds), ops, h.Faults, hash, len(violations))
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "VIOLATION: %s\n", v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sealdb-chaos:", err)
	os.Exit(1)
}
