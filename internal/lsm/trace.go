package lsm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sealdb/internal/platter"
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

// traceSlowOpNS is the slow-op log threshold: any traced operation
// consuming at least this much simulated device time (10ms) has its
// span tree journaled regardless of sampling.
const traceSlowOpNS = 10_000_000

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

// stageRecord is one completed stage inside a traced op.
type stageRecord struct {
	name           string
	startNS, endNS int64
}

// opTrace is one traced operation: the device counters when it began
// and the stages it has passed through. Each operation owns its
// record, so traced operations share nothing but the journal.
type opTrace struct {
	op     string
	reqID  uint64
	disk   *platter.Disk
	start  platter.Stats
	stages []stageRecord
}

// opTracePool recycles records, so tracing on allocates only for the
// operations it journals.
var opTracePool = sync.Pool{New: func() any { return new(opTrace) }}

// stageStart opens a stage at the device clock and returns its index.
// Safe on a nil receiver (returns -1), so call sites need no tracing
// guard.
func (c *opTrace) stageStart(name string) int {
	if c == nil {
		return -1
	}
	c.stages = append(c.stages, stageRecord{name: name, startNS: c.disk.BusyNS()})
	return len(c.stages) - 1
}

// stageEnd closes the stage.
func (c *opTrace) stageEnd(idx int) {
	if c == nil || idx < 0 {
		return
	}
	c.stages[idx].endNS = c.disk.BusyNS()
}

// tracer is the DB's request tracer: an enable flag, the per-level read
// stage names and the sampling counter. A traced operation's device
// work is the delta of the platter's own counters across it.
type tracer struct {
	enabled     atomic.Bool
	sampleEvery int64
	// readStages holds the per-level read stage names, precomputed so
	// the read path never formats strings.
	readStages []string
	nops       atomic.Int64 // traced-op count, drives sampling
}

// init wires the tracer. Called once from initObs, before the DB is
// shared.
func (t *tracer) init(d *DB) {
	tc := d.cfg.Trace
	t.sampleEvery = tc.sampleEvery()
	t.readStages = make([]string, d.cfg.NumLevels())
	for l := range t.readStages {
		t.readStages[l] = fmt.Sprintf("read_level_%d", l)
	}
	t.enabled.Store(tc.Enabled)
}

// deviceNow returns the simulated device clock (the journal's clock).
func (d *DB) deviceNow() int64 { return d.disk.BusyNS() }

// traceBegin opens a traced operation record, or returns nil when
// tracing is disabled — the only cost then is one atomic load, and
// nothing allocates.
func (d *DB) traceBegin(op string, reqID uint64) *opTrace {
	if !d.tracer.enabled.Load() {
		return nil
	}
	ot := opTracePool.Get().(*opTrace)
	*ot = opTrace{op: op, reqID: reqID, disk: d.disk, start: d.disk.Stats(), stages: ot.stages[:0]}
	return ot
}

// traceEnd closes a traced operation and, when it is sampled or slow,
// journals its span tree: a root "op_<name>" span whose totals are the
// device counters' deltas across the operation, and one
// "stage_<name>" child per stage. Operations that overlap share the
// device work done while both ran. ot may be nil (untraced operation).
func (d *DB) traceEnd(ot *opTrace, err error) {
	if ot == nil {
		return
	}
	defer opTracePool.Put(ot)
	s, e := ot.start, d.disk.Stats()
	startNS, endNS := int64(s.BusyTime), int64(e.BusyTime)
	slow := endNS-startNS >= traceSlowOpNS
	if (d.tracer.nops.Add(1)-1)%d.tracer.sampleEvery != 0 && !slow {
		return
	}
	fields := map[string]int64{
		"req_id":      int64(ot.reqID),
		"reads":       e.ReadOps - s.ReadOps,
		"writes":      e.WriteOps - s.WriteOps,
		"read_bytes":  e.BytesRead - s.BytesRead,
		"write_bytes": e.BytesWritten - s.BytesWritten,
		"seeks":       e.Seeks - s.Seeks,
	}
	if err != nil {
		fields["err"] = 1
	}
	if slow {
		fields["slow"] = 1
	}
	root := d.journal.RecordSpan("op_"+ot.op, 0, startNS, endNS, fields)
	for _, st := range ot.stages {
		d.journal.RecordSpan("stage_"+st.name, root, st.startNS, st.endNS, nil)
	}
}

// SetTracing enables or disables the request tracer at runtime. The
// serving layer turns tracing on when a client negotiates
// wire.FeatureTrace.
func (d *DB) SetTracing(on bool) { d.tracer.enabled.Store(on) }
