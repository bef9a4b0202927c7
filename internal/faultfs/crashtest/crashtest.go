// Package crashtest is the crash-replay harness: it runs a
// deterministic mixed workload against an engine whose device is
// wrapped in a faultfs injector, cuts power at chosen write
// boundaries, reopens the store from the surviving bytes, and checks
// the recovery contract:
//
//   - no acknowledged write is lost;
//   - the unacknowledged in-flight batch applies all-or-nothing (it
//     may survive if its log record landed whole — never partially,
//     never out of order);
//   - the recovered store passes VerifyIntegrity (manifest, sets,
//     table checksums, extent accounting: nothing leaked or
//     double-allocated);
//   - the store accepts new writes after recovery.
//
// The harness is deliberately re-execution based: each cut point
// replays the same seeded workload on a fresh device and tears it at
// a different write, so a failure reproduces from (seed, cut) alone.
package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sealdb/internal/faultfs"
	"sealdb/internal/lsm"
	"sealdb/internal/smr"
)

// OpKind enumerates workload operations.
type OpKind int

// Workload operation kinds.
const (
	OpPut OpKind = iota
	OpDelete
	OpBatch // multi-key atomic batch (exercises batch atomicity)
	OpFlush
	OpCompact
)

// Op is one step of the scripted workload.
type Op struct {
	Kind OpKind
	// Keys/Vals hold one entry for Put/Delete (Vals unused for
	// Delete) and several for Batch, where a nil value is a tombstone.
	Keys [][]byte
	Vals [][]byte
}

// Workload generates a deterministic op script: puts and deletes
// over a bounded keyspace with periodic explicit flushes, two manual
// compactions, and occasional multi-key batches. The same (seed, n,
// keyspace) always yields the same script.
func Workload(seed int64, n, keyspace int) []Op {
	rng := rand.New(rand.NewSource(seed))
	key := func() []byte {
		return []byte(fmt.Sprintf("key%06d", rng.Intn(keyspace)))
	}
	val := func() []byte {
		v := make([]byte, 60+rng.Intn(120))
		for i := range v {
			v[i] = 'a' + byte(rng.Intn(26))
		}
		return v
	}
	var ops []Op
	for i := 0; i < n; i++ {
		switch {
		case i > 0 && i%(n/5) == 0:
			ops = append(ops, Op{Kind: OpFlush})
		case i == n/3 || i == (4*n)/5:
			ops = append(ops, Op{Kind: OpCompact})
		case rng.Intn(10) == 0:
			ops = append(ops, Op{Kind: OpDelete, Keys: [][]byte{key()}})
		case rng.Intn(12) == 0:
			b := Op{Kind: OpBatch}
			for j := 0; j < 3; j++ {
				b.Keys = append(b.Keys, key())
				b.Vals = append(b.Vals, val())
			}
			ops = append(ops, b)
		default:
			ops = append(ops, Op{Kind: OpPut, Keys: [][]byte{key()}, Vals: [][]byte{val()}})
		}
	}
	return ops
}

// Config parameterizes a harness run.
type Config struct {
	// DB is the engine configuration. The harness splices its
	// injector in above DB.WrapDrive's layer, if one is set.
	DB lsm.Config
	// Seed drives both the workload script and the tear randomness.
	Seed int64
	// Ops is the workload script (see Workload).
	Ops []Op
	// Stride cuts power at every Stride-th write boundary (1 = every
	// boundary; 0 defaults to 1).
	Stride int64
}

// Result summarizes a harness run.
type Result struct {
	// Writes is the device write count of the failure-free pass.
	Writes int64
	// Cuts is the number of power cuts injected (= reopens checked).
	Cuts int
	// CreateCuts counts cuts that landed inside OpenDevice itself
	// (crash during first-time creation).
	CreateCuts int
	// Resurrected counts cuts whose unacknowledged in-flight batch
	// survived whole — legal, and evidence the all-or-nothing check
	// is exercising both sides.
	Resurrected int
	// Flushes, Compactions and VlogGCRuns (value-log GC passes after
	// commits) confirm the workload coverage.
	Flushes, Compactions, VlogGCRuns int64
}

func (r Result) String() string {
	return fmt.Sprintf("writes=%d cuts=%d create_cuts=%d resurrected=%d flushes=%d compactions=%d vlog_gc_runs=%d",
		r.Writes, r.Cuts, r.CreateCuts, r.Resurrected, r.Flushes, r.Compactions, r.VlogGCRuns)
}

// model applies an op to the reference state.
func applyModel(m map[string]string, op *Op) {
	switch op.Kind {
	case OpPut, OpBatch:
		for i, k := range op.Keys {
			if op.Vals[i] == nil {
				delete(m, string(k))
			} else {
				m[string(k)] = string(op.Vals[i])
			}
		}
	case OpDelete:
		for _, k := range op.Keys {
			delete(m, string(k))
		}
	}
}

func applyOp(db *lsm.DB, op *Op) error {
	switch op.Kind {
	case OpPut:
		return db.Put(op.Keys[0], op.Vals[0])
	case OpDelete:
		return db.Delete(op.Keys[0])
	case OpBatch:
		b := lsm.NewBatch()
		for i, k := range op.Keys {
			if op.Vals[i] == nil {
				b.Delete(k)
			} else {
				b.Put(k, op.Vals[i])
			}
		}
		return db.Apply(b)
	case OpFlush:
		return db.FlushMemtable()
	case OpCompact:
		return db.CompactRange(nil, nil)
	}
	return fmt.Errorf("crashtest: unknown op kind %d", op.Kind)
}

// Run executes the crash-replay sweep and returns its summary. It
// fails the test on any broken invariant, identifying the cut point
// so the failure replays deterministically.
func Run(t testing.TB, cfg Config) Result {
	t.Helper()
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	var res Result

	// Failure-free pass: count device writes and verify the script
	// itself runs clean, so sweep failures can only be crash bugs.
	fd, _, db, err := openInjected(cfg, 0)
	if err != nil {
		t.Fatalf("crashtest: clean open: %v", err)
	}
	final := map[string]string{}
	for i := range cfg.Ops {
		if err := applyOp(db, &cfg.Ops[i]); err != nil {
			t.Fatalf("crashtest: clean run op %d: %v", i, err)
		}
		applyModel(final, &cfg.Ops[i])
	}
	stats := db.Stats()
	res.Flushes, res.Compactions, res.VlogGCRuns = stats.FlushCount, stats.CompactionCount, stats.VlogGCRuns
	if res.Flushes == 0 || res.Compactions == 0 {
		t.Fatalf("crashtest: workload too small: %d flushes, %d compactions (need >= 1 of each)", res.Flushes, res.Compactions)
	}
	db.Close()
	res.Writes = fd.WriteCount()

	universe := map[string]bool{}
	for _, op := range cfg.Ops {
		for _, k := range op.Keys {
			universe[string(k)] = true
		}
	}

	// Sanity-check the reference model against a clean reopen before
	// trusting it to judge crash recoveries.
	db, err = lsm.OpenDevice(cfg.DB, db.Device())
	if err != nil {
		t.Fatalf("crashtest: clean reopen: %v", err)
	}
	for k := range universe {
		v, err := db.Get([]byte(k))
		want, ok := final[k]
		switch {
		case !ok && !errors.Is(err, lsm.ErrNotFound):
			t.Fatalf("crashtest: clean reopen Get(%q) = %v, want ErrNotFound", k, err)
		case ok && (err != nil || string(v) != want):
			t.Fatalf("crashtest: clean reopen Get(%q) = (%q, %v), want %q", k, v, err, want)
		}
	}
	db.Close()

	for cut := int64(1); cut <= res.Writes; cut += cfg.Stride {
		res.Cuts++
		resurrected, createCut := runCut(t, cfg, cut, universe)
		if resurrected {
			res.Resurrected++
		}
		if createCut {
			res.CreateCuts++
		}
	}
	return res
}

// openInjected builds a device with a faultfs injector spliced into
// the drive stack, over the caller's own wrapper, and opens a DB on it.
// The device is returned even when the open itself dies mid-write, so
// the caller can power the injector back on and recover from the
// surviving platter bytes.
func openInjected(cfg Config, cut int64) (*faultfs.Drive, *lsm.Device, *lsm.DB, error) {
	var fd *faultfs.Drive
	dbcfg := cfg.DB
	dbcfg.WrapDrive = func(inner smr.Drive) smr.Drive {
		if wrap := cfg.DB.WrapDrive; wrap != nil {
			inner = wrap(inner)
		}
		fd = faultfs.New(inner, cfg.Seed^cut)
		if cut > 0 {
			fd.CutAtWrite(cut)
		}
		return fd
	}
	dev := lsm.NewDevice(dbcfg)
	db, err := lsm.OpenDevice(dbcfg, dev)
	return fd, dev, db, err
}

// runCut replays the workload on a fresh device, cuts power at the
// given write, reopens, and checks every invariant.
func runCut(t testing.TB, cfg Config, cut int64, universe map[string]bool) (resurrected, createCut bool) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Fatalf("crashtest: cut %d (seed %d): %s", cut, cfg.Seed, fmt.Sprintf(format, args...))
	}

	fd, dev, db, err := openInjected(cfg, cut)
	acked := map[string]string{}
	var inFlight *Op
	if err != nil {
		// The cut landed inside creation. Nothing was acknowledged.
		if !errors.Is(err, faultfs.ErrPowerCut) {
			fail("create failed with a non-powercut error: %v", err)
		}
		createCut = true
	} else {
		for i := range cfg.Ops {
			op := &cfg.Ops[i]
			if err := applyOp(db, op); err != nil {
				if errors.Is(err, lsm.ErrDegraded) && errors.Is(db.Degraded(), faultfs.ErrPowerCut) {
					// The cut landed in the value-log GC pass after the
					// previous op's commit, which that op does not report;
					// this one was refused before it reached the device.
					break
				}
				if !errors.Is(err, faultfs.ErrPowerCut) {
					fail("op %d failed with a non-powercut error: %v", i, err)
				}
				if op.Kind == OpPut || op.Kind == OpDelete || op.Kind == OpBatch {
					inFlight = op
				}
				break
			}
			applyModel(acked, op)
		}
		// The doomed instance is dropped without Close: a dead host
		// cannot issue device commands, and everything durable must
		// already be on the platter.
	}

	// Power back on and reopen the same device: the injector stays in
	// the drive stack (passive now), so only the bytes that reached
	// the platter before the cut are visible to recovery.
	fd.PowerOn()
	db2, err := lsm.OpenDevice(cfg.DB, dev)
	if err != nil {
		fail("reopen after crash failed: %v", err)
	}
	defer db2.Close()

	if err := db2.VerifyIntegrity(); err != nil {
		fail("integrity after reopen: %v", err)
	}

	// Acknowledged state must be fully present; any deviation must be
	// explained by the whole in-flight batch having applied.
	read := func(k string) (string, bool) {
		v, err := db2.Get([]byte(k))
		if errors.Is(err, lsm.ErrNotFound) {
			return "", false
		}
		if err != nil {
			fail("Get(%q) after reopen: %v", k, err)
		}
		return string(v), true
	}
	var mismatched []string
	for k := range universe {
		got, ok := read(k)
		want, wantOK := acked[k]
		if ok != wantOK || (ok && got != want) {
			mismatched = append(mismatched, k)
		}
	}
	if len(mismatched) > 0 {
		if inFlight == nil {
			fail("acknowledged state diverged at keys %v with no write in flight", mismatched)
		}
		after := map[string]string{}
		for k, v := range acked {
			after[k] = v
		}
		applyModel(after, inFlight)
		touched := map[string]bool{}
		for _, k := range inFlight.Keys {
			touched[string(k)] = true
		}
		for _, k := range mismatched {
			if !touched[k] {
				fail("key %q diverged but the in-flight op never touched it (acked write lost or stale data resurrected)", k)
			}
		}
		// All-or-nothing: since part of the batch is visible, all of
		// it must be.
		for k := range touched {
			got, ok := read(k)
			want, wantOK := after[k]
			if ok != wantOK || (ok && got != want) {
				fail("in-flight batch applied partially: key %q", k)
			}
		}
		resurrected = true
	}

	// The recovered store must accept and serve new writes.
	sentinel := []byte(fmt.Sprintf("crashtest-sentinel-%d", cut))
	if err := db2.Put(sentinel, sentinel); err != nil {
		fail("post-recovery write: %v", err)
	}
	if v, err := db2.Get(sentinel); err != nil || string(v) != string(sentinel) {
		fail("post-recovery read: %q, %v", v, err)
	}
	if err := db2.VerifyIntegrity(); err != nil {
		fail("integrity after post-recovery write: %v", err)
	}
	return resurrected, createCut
}
