package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sealdb/internal/chaos/history"
	"sealdb/internal/chaos/netfault"
	"sealdb/internal/faultfs"
	"sealdb/internal/kv"
	"sealdb/internal/lsm"
	"sealdb/internal/sealclient"
	"sealdb/internal/server"
	"sealdb/internal/smr"
)

// runner is one campaign in progress.
type runner struct {
	cfg    Config
	lsmCfg lsm.Config
	dev    *lsm.Device
	fd     *faultfs.Drive

	proxies []*netfault.Proxy
	clients []*sealclient.Client

	// nextVer allocates per-key write versions across the whole
	// campaign; every write attempt consumes one whatever its outcome.
	nextVer map[string]int64
}

// Run executes one full campaign and returns its history; the
// history is complete for the rounds that ran even when err is
// non-nil. Two runs with the same Config produce byte-identical
// canonical histories: every schedule choice, fault point, and value
// derives from Config.Seed; the engine runs no background threads
// (flush and compaction are synchronous on the writer's apply path,
// so device write counts follow the op schedule exactly); fault
// windows only ever overlap a single sequential worker; and all
// timestamps are logical.
func Run(cfg Config) (*history.History, error) {
	cfg.applyDefaults()
	r := &runner{cfg: cfg, nextVer: map[string]int64{}}

	lsmCfg := lsm.DefaultConfig(lsm.ModeSEALDB)
	lsmCfg.Geometry = lsm.ScaledGeometry(32*kv.KiB, 256*kv.MiB)
	// A block cache big enough that nothing is ever evicted: cache
	// residency then depends only on the set of blocks ever read, not
	// on the order concurrent readers touched them, which run-to-run
	// goroutine scheduling does not control.
	lsmCfg.BlockCacheSize = 8 * kv.MiB
	lsmCfg.Seed = cfg.Seed
	if cfg.Vlog {
		lsmCfg.ValueThreshold = 64
	}
	lsmCfg.WrapDrive = func(inner smr.Drive) smr.Drive {
		r.fd = faultfs.New(inner, cfg.Seed)
		return r.fd
	}
	r.lsmCfg = lsmCfg
	r.dev = lsm.NewDevice(lsmCfg)

	h := &history.History{Seed: cfg.Seed, Clients: cfg.Clients, Ticks: cfg.Ticks, Faults: cfg.Faults.String()}
	for round := 0; round < cfg.Rounds; round++ {
		plan := buildPlan(&cfg, round)
		rd, err := r.runRound(round, plan)
		h.Rounds = append(h.Rounds, rd)
		if err != nil {
			return h, fmt.Errorf("chaos: round %d (%s): %w", round, plan.kind, err)
		}
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "round %d/%d kind=%-8s ops=%d\n", round+1, cfg.Rounds, plan.kind, len(rd.Ops))
		}
	}
	return h, nil
}

// execOp is a plannedOp resolved to its key and (for writes) version.
type execOp struct {
	kind    history.OpKind
	key     string
	version int64
}

// materialize resolves the plan's shard coordinates to keys and
// assigns write versions in issue order.
func (r *runner) materialize(plan *roundPlan) [][][]execOp {
	out := make([][][]execOp, len(plan.ticks))
	for t := range plan.ticks {
		tp := &plan.ticks[t]
		out[t] = make([][]execOp, len(tp.ops))
		for w, ops := range tp.ops {
			eops := make([]execOp, len(ops))
			for i, op := range ops {
				e := execOp{kind: op.kind, key: campaignKey(op.owner, op.keyIdx)}
				if op.kind != history.KindGet {
					r.nextVer[e.key]++
					e.version = r.nextVer[e.key]
				}
				eops[i] = e
			}
			out[t][w] = eops
		}
	}
	return out
}

// runRound serves one round: open (recovering the previous round's
// state), run the ticks with their faults, tear down — gracefully or
// by crash — then recover, fsck, and capture the recovered state for
// the checker.
func (r *runner) runRound(round int, plan *roundPlan) (history.Round, error) {
	rd := history.Round{Round: round, Kind: plan.kind, Crashed: plan.crash}
	db, err := lsm.OpenDevice(r.lsmCfg, r.dev)
	if err != nil {
		return rd, fmt.Errorf("open: %w", err)
	}
	var flip *flipState
	if plan.flip {
		flip = r.applyFlip(db, plan)
	}
	// A tick has one sequential writer, so every engine group commit has
	// one member: the device write sequence follows its op order exactly.
	srv, err := server.Serve(db, "127.0.0.1:0", server.Config{DrainTimeout: 2 * time.Second})
	if err != nil {
		db.Close()
		return rd, fmt.Errorf("serve: %w", err)
	}
	if err := r.dialWorkers(round, srv.Addr().String()); err != nil {
		srv.Close()
		db.Close()
		return rd, err
	}

	exec := r.materialize(plan)
	for t := range plan.ticks {
		rd.Ops = append(rd.Ops, r.runTick(t, &plan.ticks[t], exec[t])...)
	}

	r.teardownWorkers()
	srv.Close() // nothing is in flight at a tick barrier; the drain is trivial

	if plan.crash {
		// The doomed DB is dropped without Close, as a dead host's
		// would be; recovery must work from the media alone.
		r.fd.PowerOn()
	} else {
		r.revertFlip(db, flip)
		if cerr := db.Close(); cerr != nil && r.cfg.Log != nil {
			// A store degraded by an injected permanent fault may
			// fail its final flush; recovery below replays the WAL.
			fmt.Fprintf(r.cfg.Log, "round %d: close: %v\n", round, cerr)
		}
	}

	db2, err := lsm.OpenDevice(r.lsmCfg, r.dev)
	if err != nil {
		return rd, fmt.Errorf("recover: %w", err)
	}
	defer db2.Close()
	if err := db2.VerifyIntegrity(); err != nil {
		return rd, fmt.Errorf("fsck after recovery: %w", err)
	}
	rd.Recovered, err = r.captureRecovered(db2)
	if err != nil {
		return rd, fmt.Errorf("recovered capture: %w", err)
	}
	return rd, nil
}

// dialWorkers stands up one fault proxy and one single-connection
// client per worker, each with an injected no-op sleeper and a seeded
// rand so retry backoff adds no wall-clock or nondeterminism.
func (r *runner) dialWorkers(round int, target string) error {
	r.proxies = make([]*netfault.Proxy, r.cfg.Clients)
	r.clients = make([]*sealclient.Client, r.cfg.Clients)
	for w := 0; w < r.cfg.Clients; w++ {
		p, err := netfault.Listen(target)
		if err != nil {
			r.teardownWorkers()
			return fmt.Errorf("proxy %d: %w", w, err)
		}
		r.proxies[w] = p
		src := rand.New(rand.NewSource(r.cfg.Seed + int64(round)*7919 + int64(w)*31))
		var mu sync.Mutex
		c, err := sealclient.Dial(p.Addr(), sealclient.Options{
			Conns:   1,
			Timeout: 10 * time.Second,
			Sleep:   func(time.Duration) {},
			Rand: func(n int64) int64 {
				mu.Lock()
				defer mu.Unlock()
				return src.Int63n(n)
			},
		})
		if err != nil {
			p.Close()
			r.teardownWorkers()
			return fmt.Errorf("dial %d: %w", w, err)
		}
		r.clients[w] = c
	}
	return nil
}

func (r *runner) teardownWorkers() {
	for _, c := range r.clients {
		if c != nil {
			c.Close()
		}
	}
	for _, p := range r.proxies {
		if p != nil {
			p.Close()
		}
	}
	r.clients, r.proxies = nil, nil
}

// runTick arms the tick's faults at the barrier, releases every
// worker's ops concurrently (each worker issues its own sequence
// serially), waits for all to finish, clears one-shot fault state,
// and merges the records in worker order.
func (r *runner) runTick(tick int, tp *tickPlan, exec [][]execOp) []history.Op {
	if tp.cutAfter > 0 {
		r.fd.CutAtWrite(tp.cutAfter)
	}
	if tp.disk != nil {
		r.fd.Inject(*tp.disk)
	}
	if tp.net != nil {
		r.proxies[tp.net.worker].Arm(tp.net.dir, tp.net.fault)
	}

	results := make([][]history.Op, len(exec))
	var wg sync.WaitGroup
	for w := range exec {
		if len(exec[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = r.execOps(tick, w, exec[w])
		}(w)
	}
	wg.Wait()

	if tp.disk != nil {
		r.fd.ClearRules()
	}
	if tp.net != nil {
		// An armed fault its target never consumed (e.g. a ToClient
		// fault whose request already died upstream) must not leak
		// into a later tick.
		r.proxies[tp.net.worker].ClearArmed()
	}
	var out []history.Op
	for _, ops := range results {
		out = append(out, ops...)
	}
	return out
}

// execOps issues one worker's ops for a tick, sequentially, recording
// every invocation whatever its outcome.
func (r *runner) execOps(tick, w int, ops []execOp) []history.Op {
	c := r.clients[w]
	out := make([]history.Op, 0, len(ops))
	for seq, op := range ops {
		rec := history.Op{Tick: tick, Worker: w, Seq: seq, Kind: op.kind, Key: op.key, Version: op.version}
		var err error
		switch op.kind {
		case history.KindPut:
			err = c.Put([]byte(op.key), campaignValue(op.key, op.version, r.cfg.ValueSize))
		case history.KindDelete:
			err = c.Delete([]byte(op.key))
		case history.KindGet:
			var v []byte
			v, err = c.Get([]byte(op.key))
			if err == nil {
				if ver, ok := parseValue(op.key, v); ok {
					rec.Version = ver
				} else {
					rec.Version = -1
					rec.Note = fmt.Sprintf("unparseable value (%d bytes)", len(v))
				}
			}
		}
		outcome, note := classify(err)
		rec.Outcome = outcome
		if rec.Note == "" {
			rec.Note = note
		}
		out = append(out, rec)
	}
	return out
}

// classify maps a client error to its history outcome. Transport
// errors carry OS-level detail (RST vs EOF) that can differ run to
// run, so only the class is recorded for them; engine-surfaced error
// strings are deterministic and kept as the note.
func classify(err error) (history.Outcome, string) {
	switch {
	case err == nil:
		return history.OutcomeOK, ""
	case errors.Is(err, sealclient.ErrNotFound):
		return history.OutcomeNotFound, ""
	case errors.Is(err, sealclient.ErrDegraded):
		return history.OutcomeDegraded, ""
	case errors.Is(err, sealclient.ErrCorrupt):
		return history.OutcomeCorrupt, ""
	case errors.Is(err, sealclient.ErrUnavailable):
		return history.OutcomeUnavailable, ""
	case errors.Is(err, sealclient.ErrStoreClosed), errors.Is(err, sealclient.ErrClosed):
		return history.OutcomeClosed, ""
	case errors.Is(err, sealclient.ErrTimeout):
		return history.OutcomeTimeout, ""
	case errors.Is(err, sealclient.ErrConn):
		return history.OutcomeConn, ""
	default:
		return history.OutcomeError, err.Error()
	}
}

// flipState remembers an applied bit flip so the round can restore it
// before handing the device to the next round.
type flipState struct {
	num uint64
	off int64
	bit uint
}

// applyFlip flips one bit inside a live SSTable chosen by the plan's
// rng draws: a table of the deepest populated level, at a
// deterministic offset within its extent. Returns nil (no flip) when
// no tables exist yet — early rounds before the first flush.
func (r *runner) applyFlip(db *lsm.DB, plan *roundPlan) *flipState {
	tables := db.TableLocations()
	if len(tables) == 0 {
		return nil
	}
	deepest := tables[len(tables)-1].Level
	var cand []lsm.TableLocation
	for _, t := range tables {
		if t.Level == deepest {
			cand = append(cand, t)
		}
	}
	t := cand[int(plan.flipSel%int64(len(cand)))]
	off := t.Off + plan.flipDelta%t.Len
	if err := r.fd.FlipBit(off, plan.flipBit); err != nil {
		return nil
	}
	return &flipState{num: t.Num, off: off, bit: plan.flipBit}
}

// revertFlip restores the flipped bit iff the table is still live at
// the same extent, keeping the on-media state fsck-clean for the next
// round. A freed extent is left alone: its next writer overwrites it
// wholesale.
func (r *runner) revertFlip(db *lsm.DB, fs *flipState) {
	if fs == nil {
		return
	}
	for _, t := range db.TableLocations() {
		if t.Num == fs.num && t.Off <= fs.off && fs.off < t.Off+t.Len {
			r.fd.FlipBit(fs.off, fs.bit)
			return
		}
	}
}

// captureRecovered reads every key of the campaign universe straight
// from the recovered engine — no server, no network — so the checker
// sees exactly what the media holds.
func (r *runner) captureRecovered(db *lsm.DB) (map[string]history.RecoveredState, error) {
	out := make(map[string]history.RecoveredState, r.cfg.Clients*r.cfg.KeysPerWorker)
	for w := 0; w < r.cfg.Clients; w++ {
		for i := 0; i < r.cfg.KeysPerWorker; i++ {
			k := campaignKey(w, i)
			v, err := db.Get([]byte(k))
			switch {
			case err == nil:
				st := history.RecoveredState{Present: true, Version: -1}
				if ver, ok := parseValue(k, v); ok {
					st.Version = ver
				}
				out[k] = st
			case errors.Is(err, lsm.ErrNotFound):
				out[k] = history.RecoveredState{Present: false}
			default:
				return nil, fmt.Errorf("get %s: %w", k, err)
			}
		}
	}
	return out, nil
}
