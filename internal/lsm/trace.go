package lsm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sealdb/internal/platter"
	"sealdb/internal/smr"
)

// OpContext carries request-scoped identity into an engine operation.
// The serving layer fills ReqID with the wire request id so a sampled
// operation's span tree links the network request to the physical
// I/Os it caused. The zero value is a valid anonymous context.
type OpContext struct {
	// ReqID is the originating wire request id (0 when the operation
	// did not arrive over the network).
	ReqID uint64
	// Group, if set, receives the facts of the batch's group commit
	// (ApplyCtx); only then does the engine read the wall clock.
	Group *GroupCommit
}

// TraceConfig configures the request tracer. The tracer is cheap
// enough to leave on for experiments, and free when disabled: the
// read hot path takes one atomic load and allocates nothing.
type TraceConfig struct {
	// Enabled starts the DB with tracing on. It can be toggled at
	// runtime with DB.SetTracing (the server does, when a client
	// negotiates wire.FeatureTrace).
	Enabled bool
	// SampleEvery journals every Nth traced operation's full span
	// tree (0 means the default of 128; 1 journals every operation).
	// Slow operations are always journaled regardless of sampling.
	SampleEvery int64
}

const (
	// traceSlowOpNS is the slow-op log threshold: any traced operation
	// consuming at least this much simulated device time (10ms) has
	// its span tree journaled regardless of sampling.
	traceSlowOpNS = 10_000_000
	// traceMaxIOsPerOp bounds the attributed I/O records kept per
	// operation; accesses beyond the bound are still counted in the
	// operation totals but drop their per-access detail.
	traceMaxIOsPerOp = 32
)

func (t *TraceConfig) sampleEvery() int64 {
	if t.SampleEvery <= 0 {
		return 128
	}
	return t.SampleEvery
}

// Traced-op stage names. Stage spans are journaled as
// "stage_<name>" children of the operation's root span.
const (
	stageWALAppend       = "wal_append"
	stageMemtable        = "memtable"
	stageCompactionStall = "compaction_stall"
	stageReadMemtable    = "read_memtable"
)

// ioRecord is one attributed physical access inside a traced op.
type ioRecord struct {
	write        bool
	offset       int64
	length       int
	seekDistance int64
	seek         bool
	cacheHit     bool
	// startNS/endNS are reconstructed device timestamps: traced ops
	// serialize on d.mu, so accesses tile the op's interval.
	startNS, endNS int64
}

// stageRecord is one completed stage inside a traced op.
type stageRecord struct {
	name           string
	startNS, endNS int64
}

// opTrace accumulates one traced operation. The tracer owns a single
// reusable record, since traced operations serialize on d.mu.
type opTrace struct {
	op      string
	reqID   uint64
	startNS int64
	cursor  int64 // reconstructed device clock (see ioRecord)

	ios       []ioRecord // bounded by traceMaxIOsPerOp
	truncated int64      // accesses beyond the ios bound

	reads, writes         int64
	readBytes, writeBytes int64
	seeks, seekDistance   int64
	cacheHits             int64
	serviceNS             int64

	stages []stageRecord
}

func (c *opTrace) reset(op string, reqID uint64, nowNS int64) {
	c.op = op
	c.reqID = reqID
	c.startNS = nowNS
	c.cursor = nowNS
	c.ios = c.ios[:0]
	c.truncated = 0
	c.reads, c.writes = 0, 0
	c.readBytes, c.writeBytes = 0, 0
	c.seeks, c.seekDistance = 0, 0
	c.cacheHits = 0
	c.serviceNS = 0
	c.stages = c.stages[:0]
}

// stageStart opens a stage and returns its index. Safe on a nil
// receiver (returns -1), so call sites need no tracing guard.
func (c *opTrace) stageStart(name string, nowNS int64) int {
	if c == nil {
		return -1
	}
	c.stages = append(c.stages, stageRecord{name: name, startNS: nowNS})
	return len(c.stages) - 1
}

// stageEnd closes the stage.
func (c *opTrace) stageEnd(idx int, nowNS int64) {
	if c == nil || idx < 0 {
		return
	}
	c.stages[idx].endNS = nowNS
}

// tracer is the DB's request tracer: a platter.Sink attributing every
// physical access to the engine operation in flight, and a
// sampled/slow-op span-tree journal.
type tracer struct {
	db      *DB
	enabled atomic.Bool

	sampleEvery int64
	// cacheStart is the raw-disk offset of the fixed-band drive's
	// media cache (-1 when the mode's drive has none): accesses at or
	// beyond it are classified as media-cache hits.
	cacheStart int64

	// readStages holds the per-level read stage names, precomputed so
	// the read path never formats strings.
	readStages []string

	// cur is the operation being traced, nil between operations, set
	// under d.mu. A lock-free reader's accesses reach the sink too (and
	// count in the op they overlap), so cur is atomic and the record is
	// updated under sinkMu, which traceEnd takes to detach it.
	cur    atomic.Pointer[opTrace]
	sinkMu sync.Mutex
	buf    opTrace // the single reusable record; guarded by mu
	nops   int64   // traced-op count, drives sampling; guarded by mu
}

// init wires the tracer. Called once from initObs, before the DB is
// shared; it takes d.mu anyway so the buf/nops writes obey the same
// discipline as the trace paths.
func (t *tracer) init(d *DB) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t.db = d
	tc := d.cfg.Trace
	t.sampleEvery = tc.sampleEvery()
	t.buf.ios = make([]ioRecord, 0, traceMaxIOsPerOp)
	t.buf.stages = make([]stageRecord, 0, 8)
	t.cacheStart = -1
	if fbd, ok := smr.Base(d.drive).(*smr.FixedBandDrive); ok {
		t.cacheStart = fbd.CacheStart()
	}
	t.readStages = make([]string, d.cfg.NumLevels)
	for l := range t.readStages {
		t.readStages[l] = fmt.Sprintf("read_level_%d", l)
	}
	t.enabled.Store(tc.Enabled)
	d.disk.SetSink("lsm", t)
}

// ObserveAccess implements platter.Sink, under the disk lock (it must
// not call back into the disk); with nothing traced, one atomic load.
func (t *tracer) ObserveAccess(ai platter.AccessInfo) {
	if t.cur.Load() == nil {
		return
	}
	t.sinkMu.Lock()
	defer t.sinkMu.Unlock()
	c := t.cur.Load()
	if c == nil {
		return
	}
	if ai.Write {
		c.writes++
		c.writeBytes += int64(ai.Length)
	} else {
		c.reads++
		c.readBytes += int64(ai.Length)
	}
	if ai.Seek {
		c.seeks++
		c.seekDistance += ai.SeekDistance
	}
	hit := t.cacheStart >= 0 && ai.Offset >= t.cacheStart
	if hit {
		c.cacheHits++
	}
	c.serviceNS += ai.ServiceNS
	start := c.cursor
	c.cursor += ai.ServiceNS
	if len(c.ios) < cap(c.ios) {
		c.ios = append(c.ios, ioRecord{
			write: ai.Write, offset: ai.Offset, length: ai.Length,
			seekDistance: ai.SeekDistance, seek: ai.Seek, cacheHit: hit,
			startNS: start, endNS: c.cursor,
		})
	} else {
		c.truncated++
	}
}

// deviceNow returns the simulated device clock (the journal's clock).
func (d *DB) deviceNow() int64 { return d.disk.BusyNS() }

// traceBegin opens a traced operation record, or returns nil when
// tracing is disabled — the only cost then is one atomic load, and
// nothing allocates on either path. Caller holds d.mu.
func (d *DB) traceBegin(op string, reqID uint64) *opTrace {
	t := &d.tracer
	if !t.enabled.Load() {
		return nil
	}
	c := &t.buf
	c.reset(op, reqID, d.deviceNow())
	t.cur.Store(c)
	return c
}

// traceEnd closes a traced operation and journals its span tree when
// the op is sampled or slow. Caller holds d.mu; ot may be nil
// (untraced operation).
func (d *DB) traceEnd(ot *opTrace, err error) {
	if ot == nil {
		return
	}
	t := &d.tracer
	t.sinkMu.Lock()
	t.cur.Store(nil)
	t.sinkMu.Unlock()
	endNS := d.deviceNow()
	t.nops++
	sampled := (t.nops-1)%t.sampleEvery == 0
	slow := endNS-ot.startNS >= traceSlowOpNS
	if sampled || slow {
		t.emit(ot, endNS, err, slow)
	}
}

// emit journals a traced operation's span tree: a root "op_<name>"
// span carrying the totals, one "stage_<name>" child per stage, and
// one "io" child per retained attributed access.
func (t *tracer) emit(ot *opTrace, endNS int64, err error, slow bool) {
	j := t.db.journal
	fields := map[string]int64{
		"req_id":        int64(ot.reqID),
		"reads":         ot.reads,
		"writes":        ot.writes,
		"read_bytes":    ot.readBytes,
		"write_bytes":   ot.writeBytes,
		"seeks":         ot.seeks,
		"seek_distance": ot.seekDistance,
		"service_ns":    ot.serviceNS,
	}
	if ot.cacheHits > 0 {
		fields["cache_hits"] = ot.cacheHits
	}
	if ot.truncated > 0 {
		fields["dropped_ios"] = ot.truncated
	}
	if err != nil {
		fields["err"] = 1
	}
	if slow {
		fields["slow"] = 1
	}
	root := j.RecordSpan("op_"+ot.op, 0, ot.startNS, endNS, fields)
	for i := range ot.stages {
		st := &ot.stages[i]
		j.RecordSpan("stage_"+st.name, root, st.startNS, st.endNS, nil)
	}
	for i := range ot.ios {
		io := &ot.ios[i]
		f := map[string]int64{
			"offset": io.offset,
			"length": int64(io.length),
		}
		if io.write {
			f["write"] = 1
		}
		if io.seek {
			f["seek"] = 1
			f["seek_distance"] = io.seekDistance
		}
		if io.cacheHit {
			f["cache_hit"] = 1
		}
		j.RecordSpan("io", root, io.startNS, io.endNS, f)
	}
}

// SetTracing enables or disables the request tracer at runtime. The
// serving layer turns tracing on when a client negotiates
// wire.FeatureTrace.
func (d *DB) SetTracing(on bool) { d.tracer.enabled.Store(on) }
