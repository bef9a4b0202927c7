package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"sealdb/internal/lsm"
	"sealdb/internal/obs"
	"sealdb/internal/platter"
	"sealdb/internal/sealclient"
	"sealdb/internal/server"
	"sealdb/internal/smr"
)

// params sizes one run of one workload.
type params struct {
	sp      *spec
	seed    int64
	records int
	ops     int // per client
	warmup  int
}

func newParams(sp *spec, seed int64, seconds int) params {
	return params{sp: sp, seed: seed, records: records,
		ops: sp.opsPerSecond * seconds, warmup: sp.warmupPerSecond * seconds}
}

func (p *params) keySpace() int { return p.records * p.sp.keySpaceHalves / 2 }

// env is a store that has been set up: opened, preloaded and warmed.
type env struct {
	cfg     lsm.Config
	db      *lsm.DB
	srv     *server.Server
	clients []*sealclient.Client
	stores  []kvStore // one per client
	led     *ledger
	probe   *memProbe
}

// setup opens a fresh store on a fresh emulated drive, preloads it in
// process and, for a TCP workload, puts the server and the clients in
// front of it. Its wall time is the workload's set-up cost.
func setup(p *params, in *inputs, probe *memProbe, tr *tracer, wrap func(kvStore) kvStore) (*env, error) {
	cfg := lsm.DefaultConfig(lsm.ModeSEALDB)
	cfg.ValueThreshold = p.sp.valueThreshold
	if tr != nil {
		cfg.WrapDrive = func(d smr.Drive) smr.Drive { return &tracedDrive{Drive: d, t: tr} }
	}
	db, err := lsm.Open(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, db: db, led: newLedger(p.keySpace()), probe: probe}
	var kbuf [keySize]byte
	vbuf := make([]byte, valueSize)
	for i, idx := range in.preload {
		if err := db.Put(putKey(kbuf[:], idx), putValue(vbuf, idx, e.led.issue(idx, true))); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		e.led.ack(idx)
		if crosses(i, len(in.preload), setupProbes) {
			probe.sample()
		}
	}
	if p.sp.tcp {
		if e.srv, err = server.Serve(db, "127.0.0.1:0", server.Config{}); err != nil {
			return nil, err
		}
		for c := 0; c < p.sp.clients; c++ {
			cl, err := sealclient.Dial(e.srv.Addr().String(), sealclient.Options{Conns: 1})
			if err != nil {
				e.close()
				return nil, err
			}
			e.clients = append(e.clients, cl)
			e.stores = append(e.stores, tcpStore{cl})
		}
	} else {
		e.stores = []kvStore{db}
	}
	if wrap != nil {
		for i, st := range e.stores {
			e.stores[i] = wrap(st)
		}
	}
	for _, idx := range in.warmup {
		st := e.led.acked[idx].Load()
		v, err := e.stores[0].Get(putKey(kbuf[:], idx))
		if !checkGet(v, err, idx, st, st) {
			e.close()
			return nil, fmt.Errorf("warm-up read of key %d failed: %v", idx, err)
		}
	}
	return e, nil
}

// closeServing stops the clients and the server, if any.
func (e *env) closeServing() error {
	for _, cl := range e.clients {
		cl.Close()
	}
	srv := e.srv
	e.clients, e.srv = nil, nil
	if srv != nil {
		return srv.Close()
	}
	return nil
}

// close stops the serving layer and closes the store; the emulated
// drive survives in e.db.Device().
func (e *env) close() error {
	if err := e.closeServing(); err != nil {
		return err
	}
	return e.db.Close()
}

// snap is every counter the benchmark reads, at one instant.
type snap struct {
	disk  platter.Stats
	stats lsm.Stats
	m     *obs.Snapshot
	mem   runtime.MemStats
	gcCPU float64 // seconds
	locks map[string]obs.LockSiteSnapshot
}

// snapshot reads every counter but mem, which measure reads right at the
// edges of the phase so that the snapshots' own allocations stay out.
func (e *env) snapshot() snap {
	s := snap{disk: e.db.Device().Disk.Stats(), stats: e.db.Stats(), m: e.db.MetricsSnapshot(),
		locks: map[string]obs.LockSiteSnapshot{}}
	for _, l := range obs.ContentionProfile() {
		s.locks[l.Name] = l
	}
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = sample[0].Value.Float64()
	}
	return s
}

// A measured phase is cut into segments of equal op count. At every
// segment boundary client 0 times the memory probe, and at every fourth
// it samples the space amplification.
const (
	segments    = 200
	setupProbes = 50
)

// crosses reports whether finishing item i of n completes one of k equal
// parts.
func crosses(i, n, k int) bool { return (i+1)*k/n != i*k/n }

// phase is the raw record of one measured phase.
type phase struct {
	ops           int
	wall          time.Duration // excluding the memory probe's own time
	contention    float64       // the probe's index g over the phase
	lat           [][]uint32    // per client, wall ns per op
	failed        int
	spaceAmp      []float64
	before, after snap
}

// rawOpsPerSecond is the phase's throughput on the host's own clock.
func (ph *phase) rawOpsPerSecond() float64 { return ratio(float64(ph.ops), ph.wall.Seconds()) }

// measure runs the measured phase: every client executes its
// materialised op stream, closed-loop, and checks each result.
func (e *env) measure(in *inputs, tr *tracer) *phase {
	ph := &phase{lat: make([][]uint32, len(in.streams))}
	for c, s := range in.streams {
		ph.lat[c] = make([]uint32, s.len())
		ph.ops += s.len()
	}
	ph.spaceAmp = make([]float64, 0, spaceSamples)
	atSegment := func(k int) {
		if k%(segments/spaceSamples) == 0 {
			ph.spaceAmp = append(ph.spaceAmp, e.db.SpaceProfile().SpaceAmplification)
		}
		e.probe.sample()
	}
	failed := make([]int, len(in.streams))

	runtime.GC()
	ph.before = e.snapshot()
	if tr != nil {
		obs.ResetLockProfile()
		obs.SetLockProfiling(true)
		tr.begin()
	}
	runtime.ReadMemStats(&ph.before.mem)
	start := time.Now()
	if len(in.streams) == 1 {
		failed[0] = e.client(0, in.streams[0], ph.lat[0], tr, atSegment)
	} else {
		var wg sync.WaitGroup
		for c := range in.streams {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var seg func(int)
				if c == 0 {
					seg = atSegment
				}
				failed[c] = e.client(c, in.streams[c], ph.lat[c], tr, seg)
			}(c)
		}
		wg.Wait()
	}
	ph.wall = time.Since(start)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	var probing time.Duration
	ph.contention, probing = e.probe.take()
	ph.wall -= probing
	if tr != nil {
		tr.end()
		obs.SetLockProfiling(false)
	}
	ph.after = e.snapshot()
	ph.after.mem = mem
	for _, f := range failed {
		ph.failed += f
	}
	return ph
}

// client is one closed-loop client. Everything it needs was made before
// the clock started; inside the loop it builds a key and a value (one
// memcpy), times the call, and checks the answer against the ledger.
func (e *env) client(c int, s opStream, lat []uint32, tr *tracer, atSegment func(k int)) (failed int) {
	st, led, n := e.stores[c], e.led, s.len()
	var kbuf [keySize]byte
	vbuf := make([]byte, valueSize)
	for i := 0; i < n; i++ {
		kind, idx := s.kind[i], s.key[i]
		key := putKey(kbuf[:], idx)
		if tr != nil {
			tr.opBegin(i)
		}
		var ok bool
		var t0, t1 time.Time
		switch kind {
		case opGet:
			before := led.acked[idx].Load()
			t0 = time.Now()
			v, err := st.Get(key)
			t1 = time.Now()
			ok = checkGet(v, err, idx, before, led.issued[idx].Load())
		case opPut:
			val := putValue(vbuf, idx, led.issue(idx, true))
			t0 = time.Now()
			err := st.Put(key, val)
			t1 = time.Now()
			ok = err == nil
		case opDelete:
			led.issue(idx, false)
			t0 = time.Now()
			err := st.Delete(key)
			t1 = time.Now()
			ok = err == nil
		case opScan:
			limit := int(s.arg[i])
			t0 = time.Now()
			kvs, err := st.Scan(key, limit)
			t1 = time.Now()
			ok = led.checkScan(kvs, err, key, limit)
		}
		if tr != nil {
			tr.opEnd(c, i, kind, t0, t1)
		}
		lat[i] = uint32(min(t1.Sub(t0), math.MaxUint32))
		if !ok {
			failed++
		} else if kind != opGet && kind != opScan {
			led.ack(idx)
		}
		if atSegment != nil && crosses(i, n, segments) {
			atSegment((i + 1) * segments / n)
		}
	}
	return failed
}

// reopenAndVerify closes the store, reopens it on the same emulated
// drive (MANIFEST and WAL recovery), and re-reads the sampled keys,
// checking every byte. It returns the reopen time and the failed reads.
func (e *env) reopenAndVerify(in *inputs) (reopen time.Duration, failed int, awa float64, err error) {
	dev := e.db.Device()
	if err := e.close(); err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	db, err := lsm.OpenDevice(e.cfg, dev)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("reopen: %w", err)
	}
	reopen = time.Since(start)
	var kbuf [keySize]byte
	for _, idx := range in.verify {
		v, err := db.Get(putKey(kbuf[:], idx))
		if !checkGet(v, err, idx, e.led.acked[idx].Load(), e.led.issued[idx].Load()) || (err == nil && !valueIntact(v, idx)) {
			failed++
		}
	}
	awa = db.Amplification().AWA
	return reopen, failed, awa, db.Close()
}

// pass is one complete execution of a workload: set-up (possibly
// several times, for the median), the measured phase, reopen and
// verification.
type pass struct {
	p        params
	setups   []float64 // seconds on the reference clock, one per set-up
	ph       *phase
	tr       *tracer
	reopen   time.Duration
	failed   int
	awa      float64
	liveHeap float64 // MiB, engine only
	lat      latencies
}

func (ps *pass) attempted() int { return ps.ph.ops + verifyKeys }

// runPass executes the workload once. setups > 1 repeats the set-up on
// fresh drives first, for a steadier setup_s; only the last store is
// measured. A traced pass installs the drive wrapper and records spans.
func runPass(p params, setups int, traced bool, wrap func(kvStore) kvStore) (*pass, error) {
	in := makeInputs(p.sp, p.seed, p.records, p.ops, p.warmup)
	ps := &pass{p: p}
	if traced {
		ps.tr = newTracer(&in)
	}
	probe, err := sharedProbe()
	if err != nil {
		return nil, fmt.Errorf("memory probe: %w", err)
	}
	var e *env
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil
		}
		runtime.GC()
		start := time.Now()
		if e, err = setup(&p, &in, probe, ps.tr, wrap); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		elapsed := time.Since(start)
		g, probing := probe.take()
		ps.setups = append(ps.setups, normalise((elapsed-probing).Seconds(), g, gammaMean))
	}
	ps.ph = e.measure(&in, ps.tr)
	ps.lat = summarize(ps.ph.lat, in.streams)

	// Live heap: what the engine still holds once the serving layer is
	// closed and the benchmark's own arrays are gone. Three things are
	// taken out: the emulated media, which lives on the heap, and the
	// contents of the block cache and the memtable, two size-bounded
	// buffers whose fill at this instant depends on timing under two
	// clients (it moved the total by 15% there, and the rest by 1%).
	if err := e.closeServing(); err != nil {
		return nil, err
	}
	ps.ph.lat, in.streams, in.preload, in.warmup = nil, nil, nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauges := e.db.MetricsSnapshot().Gauges
	ps.liveHeap = (float64(ms.HeapAlloc) - float64(e.db.Device().Disk.MemoryFootprint()) -
		gauges["sealdb_cache_used_bytes"] - gauges["sealdb_memtable_bytes"]) / mib

	var vfailed int
	if ps.reopen, vfailed, ps.awa, err = e.reopenAndVerify(&in); err != nil {
		return nil, err
	}
	ps.failed = ps.ph.failed + vfailed
	return ps, nil
}

// latencies summarises per-op wall latency, overall and per op kind.
type latencies struct {
	n        int
	p50, p99 float64 // µs, all ops
	kind     [numOpKinds]struct {
		n        int
		p50, p99 float64 // µs
		mean     float64 // µs
	}
	meanUS float64
}

func summarize(lat [][]uint32, streams []opStream) latencies {
	var all []uint32
	var byKind [numOpKinds][]uint32
	for c, l := range lat {
		all = append(all, l...)
		for i, v := range l {
			k := streams[c].kind[i]
			byKind[k] = append(byKind[k], v)
		}
	}
	var out latencies
	out.n = len(all)
	out.p50, out.p99, out.meanUS = quantiles(all)
	for k := range byKind {
		out.kind[k].n = len(byKind[k])
		out.kind[k].p50, out.kind[k].p99, out.kind[k].mean = quantiles(byKind[k])
	}
	return out
}

// quantiles sorts v in place and returns its median, 99th percentile
// and mean in microseconds (nearest rank).
func quantiles[T uint32 | int64](v []T) (p50, p99, mean float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	slices.Sort(v)
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return float64(rank(v, 0.50)) / 1e3, float64(rank(v, 0.99)) / 1e3, sum / float64(len(v)) / 1e3
}

// rank returns the q-quantile of sorted v by nearest rank.
func rank[T uint32 | int64](v []T, q float64) T {
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(0, min(i, len(v)-1))]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
