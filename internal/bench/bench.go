// Package bench contains the experiment harness that regenerates
// every table and figure of the paper's evaluation (§IV). Each
// experiment returns structured rows (so tests can assert on shapes)
// and can print itself as a table or CSV.
//
// All durations are simulated device time from the platter's service
// model, so results are deterministic across runs and machines.
package bench

import (
	"fmt"
	"time"

	"sealdb/internal/kv"
	"sealdb/internal/lsm"
	"sealdb/internal/obs"
	"sealdb/internal/ycsb"
)

// Options sizes the experiments. The defaults (see DefaultOptions)
// follow the paper's setup at the repository's 1/16 geometry scale.
type Options struct {
	// Geometry of the stores under test.
	Geometry lsm.Geometry
	// LoadMB is the logical payload of the load phases.
	LoadMB int64
	// ValueSize is the value payload size (the paper uses 4 KiB with
	// 16-byte keys; the scaled default is 1 KiB).
	ValueSize int
	// ValueSizes is the value-size axis for the YCSB report: each size
	// runs the full workload matrix on every store. Empty means just
	// ValueSize.
	ValueSizes []int
	// Ops is the number of operations per read, YCSB or latency phase
	// (the paper uses 100 K).
	Ops int
	// Seed drives every generator.
	Seed int64
	// Observe, when set, is called with every store the harness opens,
	// before the experiment runs on it. The -serve flag uses it to point
	// the live /metrics endpoint at whichever store is currently under
	// test.
	Observe func(*lsm.DB)
}

// DefaultOptions returns the canonical experiment scale: the 1/16
// geometry (256 KiB SSTables, 2.5 MiB bands) with a 192 MiB load that
// spans ~75 bands and ~770 SSTables. At this scale every shape of the
// paper's evaluation appears — including SMRDB's few-but-huge
// seek-bound compactions, which vanish at smaller scales (see
// DESIGN.md). A full figure takes tens of seconds of wall time.
func DefaultOptions() Options {
	return Options{
		Geometry:  lsm.ScaledGeometry(256*kv.KiB, 8*kv.GiB),
		LoadMB:    192,
		ValueSize: 1024,
		Ops:       10000,
		Seed:      1,
	}
}

// QuickOptions returns a much smaller scale for smoke tests: the
// robust shapes (AWA elimination, layout contiguity, the ablation)
// hold here, but SMRDB's compaction penalty needs DefaultOptions.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Geometry = lsm.ScaledGeometry(32*kv.KiB, 1*kv.GiB)
	o.LoadMB = 10
	o.Ops = 800
	return o
}

// RecordsFor returns the number of records of the given value size
// that fit LoadMB, clamped so huge values still leave a workable
// keyspace.
func (o Options) RecordsFor(valueSize int) int64 {
	return max(o.LoadMB*kv.MiB/int64(valueSize+16), 16)
}

// OpsFor bounds a YCSB phase's op count for the given value size:
// above 4 KiB the count shrinks in proportion so a phase writes about
// as many bytes as it would at 4 KiB. Without the cap, the 1 MiB cell
// of the value-size axis pushes ~10 GiB of logical writes per store
// through an 8 GiB simulated disk. The cap depends only on the value
// size, so every store in a cell still runs identical work.
func (o Options) OpsFor(valueSize int) int {
	if valueSize > 4*1024 {
		return max(o.Ops*4*1024/valueSize, 64)
	}
	return o.Ops
}

func (o Options) config(mode lsm.Mode) lsm.Config {
	return lsm.Config{Mode: mode, Geometry: o.Geometry, Seed: o.Seed}
}

// DBStore adapts *lsm.DB to ycsb.Store.
type DBStore struct{ DB *lsm.DB }

func (s DBStore) Put(k, v []byte) error        { return s.DB.Put(k, v) }
func (s DBStore) Get(k []byte) ([]byte, error) { return s.DB.Get(k) }
func (s DBStore) ScanN(start []byte, n int) (int, error) {
	kvs, err := s.DB.Scan(start, n)
	return len(kvs), err
}

// TimedStore wraps a ycsb.Store, observing the duration of every call
// into H. Clock returns nanoseconds on whichever clock the experiment
// reports — the simulated device clock for the figures, wall time for
// the networked sweeps.
type TimedStore struct {
	ycsb.Store
	Clock func() int64
	H     *obs.Histogram
}

func (s *TimedStore) observeSince(start int64) { s.H.Observe(s.Clock() - start) }

func (s *TimedStore) Put(k, v []byte) error {
	defer s.observeSince(s.Clock())
	return s.Store.Put(k, v)
}

func (s *TimedStore) Get(k []byte) ([]byte, error) {
	defer s.observeSince(s.Clock())
	return s.Store.Get(k)
}

func (s *TimedStore) ScanN(from []byte, n int) (int, error) {
	defer s.observeSince(s.Clock())
	return s.Store.ScanN(from, n)
}

// loaded is a store after its load phase — the state every experiment
// of §IV starts from. The caller closes db.
type loaded struct {
	db      *lsm.DB
	runner  *ycsb.Runner
	records int64
	time    time.Duration // simulated device time the load consumed
}

// load opens a fresh store on cfg and loads it with as many records of
// valueSize as fit LoadMB, in random or (sequential) key order, timing
// each call into h when h is non-nil. The harness opens stores nowhere
// else, so Observe sees every one.
func (o Options) load(cfg lsm.Config, valueSize int, sequential bool, h *obs.Histogram) (*loaded, error) {
	db, err := lsm.Open(cfg)
	if err != nil {
		return nil, err
	}
	if o.Observe != nil {
		o.Observe(db)
	}
	var st ycsb.Store = DBStore{db}
	if h != nil {
		st = &TimedStore{Store: st, Clock: func() int64 { return int64(simTime(db)) }, H: h}
	}
	ld := &loaded{db: db, runner: ycsb.NewRunner(st, valueSize, o.Seed), records: o.RecordsFor(valueSize)}
	fill := ld.runner.LoadRandom
	if sequential {
		fill = ld.runner.Load
	}
	if ld.time, err = phase(db, func() error { return fill(ld.records) }); err != nil {
		db.Close()
		return nil, fmt.Errorf("bench: loading %v: %w", cfg.Mode, err)
	}
	return ld, nil
}

// simTime returns the accumulated simulated device time of a store.
func simTime(db *lsm.DB) time.Duration {
	return db.Device().Disk.Stats().BusyTime
}

// phase measures the simulated time consumed by fn on db.
func phase(db *lsm.DB, fn func() error) (time.Duration, error) {
	start := simTime(db)
	err := fn()
	return simTime(db) - start, err
}

// throughput converts an op count and simulated duration to ops/s.
func throughput(ops int64, d time.Duration) float64 {
	return ratio(float64(ops), d.Seconds())
}

// ratio returns a/b, or 0 when there is no b to divide by.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// seqRead iterates n entries from the smallest key; finding none at
// all is an error.
func seqRead(db *lsm.DB, n int) error {
	it := db.NewIterator()
	defer it.Close()
	count := 0
	for it.SeekToFirst(); it.Valid() && count < n; it.Next() {
		count++
	}
	if count == 0 && it.Error() == nil {
		return fmt.Errorf("bench: sequential read saw no data")
	}
	return it.Error()
}

// randRead performs n uniform point reads over [0, records).
func randRead(db *lsm.DB, records int64, n int, seed int64) error {
	rng := newRng(seed)
	for i := 0; i < n; i++ {
		if _, err := db.Get(ycsb.Key(rng.Int63n(records))); err != nil && err != lsm.ErrNotFound {
			return err
		}
	}
	return nil
}
