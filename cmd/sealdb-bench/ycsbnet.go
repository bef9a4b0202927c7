package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"sealdb/internal/bench"
	"sealdb/internal/lsm"
	"sealdb/internal/sealclient"
	"sealdb/internal/server"
	"sealdb/internal/ycsb"
)

// runYCSBNet compares the same YCSB workload run in-process against a
// *lsm.DB and over TCP through `sealdb serve` + sealclient: the cost
// of the serving layer in one table. Unlike the figure harnesses,
// which report simulated device time, both phases here are measured in
// wall-clock time — the network stack is real, so only real time makes
// the two comparable.
func runYCSBNet(wlName string, records int64, ops, valueSize int, seed int64, clients int) {
	w, err := findWorkload(wlName)
	if err != nil {
		fatal(err)
	}
	if clients <= 0 {
		clients = 4
	}

	fmt.Printf("# ycsbnet: workload %s, %d records, %d ops, %d client goroutines\n\n",
		w.Name, records, ops, clients)

	inOps, inElapsed := runYCSBInProcess(w, records, ops, valueSize, seed, clients)
	netOps, netElapsed, coal := runYCSBNetworked(w, records, ops, valueSize, seed, clients)

	inRate := float64(inOps) / inElapsed.Seconds()
	netRate := float64(netOps) / netElapsed.Seconds()
	fmt.Printf("%-12s %10s %12s %12s\n", "path", "ops", "wall time", "ops/s")
	fmt.Printf("%-12s %10d %12v %12.0f\n", "in-process", inOps, inElapsed.Round(time.Millisecond), inRate)
	fmt.Printf("%-12s %10d %12v %12.0f\n", "networked", netOps, netElapsed.Round(time.Millisecond), netRate)
	fmt.Printf("\nnetworked/in-process throughput: %.2fx\n", netRate/inRate)
	if coal.Groups > 0 {
		fmt.Printf("group commits: %d groups for %d write requests (%.2f writes/group)\n",
			coal.Groups, coal.Writes, float64(coal.Writes)/float64(coal.Groups))
	}
}

// runYCSBParallel loads a store and drives it with `clients` runner
// goroutines, each with its own seed, returning total operations and
// wall-clock elapsed. makeStore returns one ycsb.Store per goroutine
// (in-process they share the DB handle; networked they share the
// pooled client). The ops are split evenly, the remainder going to the
// last worker; the first worker error fails the run.
func runYCSBParallel(w ycsb.Workload, records int64, ops, valueSize int, seed int64, clients int,
	load ycsb.Store, makeStore func() ycsb.Store) (int, time.Duration, error) {
	loader := ycsb.NewRunner(load, valueSize, seed)
	if err := loader.Load(records); err != nil {
		return 0, 0, fmt.Errorf("load: %w", err)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	var firstErr error
	start := time.Now()
	for i := 0; i < clients; i++ {
		r := ycsb.NewRunner(makeStore(), valueSize, seed+int64(i)+1)
		// Seat the runner's record count so request keys hit the range
		// the shared loader populated.
		r.SetRecordCount(records)
		n := ops / clients
		if i == clients-1 {
			n += ops % clients
		}
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			res, err := r.Run(w, n)
			mu.Lock()
			defer mu.Unlock()
			total += res.Ops
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("worker %d: %w", worker, err)
			}
		}(i)
	}
	wg.Wait()
	return total, time.Since(start), firstErr
}

func runYCSBInProcess(w ycsb.Workload, records int64, ops, valueSize int, seed int64, clients int) (int, time.Duration) {
	db, err := lsm.Open(lsm.DefaultConfig(lsm.ModeSEALDB))
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	st := bench.DBStore{DB: db}
	n, d, err := runYCSBParallel(w, records, ops, valueSize, seed, clients, st, func() ycsb.Store { return st })
	if err != nil {
		fatal(err)
	}
	return n, d
}

// served is a fresh SEALDB store behind a loopback server, with a
// pooled client connected to it.
type served struct {
	db  *lsm.DB
	srv *server.Server
	cl  *sealclient.Client
}

func openServed(conns int) *served {
	db, err := lsm.Open(lsm.DefaultConfig(lsm.ModeSEALDB))
	if err != nil {
		fatal(err)
	}
	srv, err := server.Serve(db, "127.0.0.1:0", server.Config{})
	if err != nil {
		fatal(err)
	}
	cl, err := sealclient.Dial(srv.Addr().String(), sealclient.Options{Conns: conns})
	if err != nil {
		fatal(err)
	}
	return &served{db, srv, cl}
}

func (s *served) Close() {
	s.cl.Close()
	s.srv.Close()
	s.db.Close()
}

// coalesceStats is the slice of the STATS payload the summary needs.
type coalesceStats struct {
	Groups int64 `json:"coalesced_groups"`
	Writes int64 `json:"coalesced_writes"`
}

func runYCSBNetworked(w ycsb.Workload, records int64, ops, valueSize int, seed int64, clients int) (int, time.Duration, coalesceStats) {
	s := openServed(clients)
	defer s.Close()
	// Load in-process (store setup is not what's being measured), run
	// through the client.
	n, d, err := runYCSBParallel(w, records, ops, valueSize, seed, clients,
		bench.DBStore{DB: s.db}, func() ycsb.Store { return netStore{s.cl} })
	if err != nil {
		fatal(err)
	}
	var p struct {
		Server coalesceStats `json:"server"`
	}
	raw, err := s.cl.Stats()
	if err != nil || json.Unmarshal(raw, &p) != nil {
		return n, d, coalesceStats{} // the summary line is left out
	}
	return n, d, p.Server
}

// netStore adapts a sealclient.Client to ycsb.Store, so the same
// runner drives the store through the wire protocol.
type netStore struct{ cl *sealclient.Client }

func (s netStore) Put(k, v []byte) error        { return s.cl.Put(k, v) }
func (s netStore) Get(k []byte) ([]byte, error) { return s.cl.Get(k) }
func (s netStore) ScanN(start []byte, n int) (int, error) {
	kvs, err := s.cl.Scan(start, n)
	return len(kvs), err
}

func findWorkload(name string) (ycsb.Workload, error) {
	for _, w := range ycsb.CoreWorkloads() {
		if strings.EqualFold(w.Name, name) {
			return w, nil
		}
	}
	return ycsb.Workload{}, fmt.Errorf("unknown workload %q (want A-F)", name)
}
