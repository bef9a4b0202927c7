package traceanalyze

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"sealdb/internal/obs"
)

// BandStat is one band's share of the physical traffic — the per-band
// heatmap row. Band -1 aggregates the media-cache region.
type BandStat struct {
	Band       int64 `json:"band"`
	Reads      int64 `json:"reads"`
	Writes     int64 `json:"writes"`
	ReadBytes  int64 `json:"read_bytes"`
	WriteBytes int64 `json:"write_bytes"`
}

// SetStat is one set's write traffic, from the journal's compaction
// events — the per-set heatmap row.
type SetStat struct {
	Set         int64 `json:"set"`
	Compactions int64 `json:"compactions"`
	WriteBytes  int64 `json:"write_bytes"`
}

// OpStat aggregates the sampled span trees of one operation type.
type OpStat struct {
	Op        string `json:"op"`
	Spans     int64  `json:"spans"`
	Slow      int64  `json:"slow"`
	IOs       int64  `json:"ios"`
	IOBytes   int64  `json:"io_bytes"`
	ServiceNS int64  `json:"service_ns"` // device time the spans lasted
}

// LevelStat is one level's write traffic, from the journal's flush
// and compaction spans; WA is the level's share of WA (write bytes /
// user bytes).
type LevelStat struct {
	Level      int     `json:"level"`
	WriteBytes int64   `json:"write_bytes"`
	WA         float64 `json:"wa"`
}

// Report is the analyzer's output over one dump window.
type Report struct {
	Meta Meta `json:"meta"`

	// Live window amplification, from the counter deltas in Meta.
	UserBytes   int64   `json:"user_bytes"`
	StoreBytes  int64   `json:"store_bytes"`
	HostBytes   int64   `json:"host_bytes"`
	DeviceBytes int64   `json:"device_bytes"`
	WA          float64 `json:"wa"`
	AWA         float64 `json:"awa"`

	// Recomputed from the raw platter trace.
	TraceReads       int64   `json:"trace_reads"`
	TraceWrites      int64   `json:"trace_writes"`
	TraceWriteBytes  int64   `json:"trace_write_bytes"`
	CacheWriteBytes  int64   `json:"cache_write_bytes"`
	RecomputedAWA    float64 `json:"recomputed_awa"`
	RecomputedWA     float64 `json:"recomputed_wa"`
	RecomputedStore  int64   `json:"recomputed_store_bytes"`
	VlogAppendBytes  int64   `json:"vlog_append_bytes"`
	VlogGCBytes      int64   `json:"vlog_gc_bytes"`
	WindowEvents     int64   `json:"window_events"`
	EventsComplete   bool    `json:"events_complete"`
	SampledSpanTrees int64   `json:"sampled_span_trees"`
	OrphanSpans      int64   `json:"orphan_spans"`

	Levels []LevelStat `json:"levels"`
	Bands  []BandStat  `json:"bands"`
	Sets   []SetStat   `json:"sets"`
	Ops    []OpStat    `json:"ops"`
}

// Analyze recomputes the window's amplification and heatmaps from the
// dump's raw records.
func Analyze(d *Dump) *Report {
	m := &d.Meta
	r := &Report{
		Meta:           *m,
		UserBytes:      m.End.UserBytes - m.Start.UserBytes,
		StoreBytes:     m.End.StoreBytes - m.Start.StoreBytes,
		HostBytes:      m.End.HostBytes - m.Start.HostBytes,
		DeviceBytes:    m.End.DeviceBytes - m.Start.DeviceBytes,
		EventsComplete: m.JournalDropped == 0,
	}
	if r.UserBytes > 0 {
		r.WA = float64(r.StoreBytes) / float64(r.UserBytes)
	}
	if r.HostBytes > 0 {
		r.AWA = float64(r.DeviceBytes) / float64(r.HostBytes)
	}

	r.analyzeTrace(d)
	r.analyzeEvents(d)
	return r
}

// analyzeTrace recomputes the device side from the raw platter trace:
// physical read/write totals, the media-cache split, the per-band
// heatmap, and AWA as (physical write bytes) / (host write bytes).
func (r *Report) analyzeTrace(d *Dump) {
	bands := map[int64]*BandStat{}
	bandOf := func(off int64) int64 {
		if r.Meta.CacheStart >= 0 && off >= r.Meta.CacheStart {
			return -1 // media-cache region
		}
		if r.Meta.BandSize <= 0 {
			return 0
		}
		return off / r.Meta.BandSize
	}
	for i := range d.Trace {
		e := &d.Trace[i]
		b := bands[bandOf(e.Offset)]
		if b == nil {
			b = &BandStat{Band: bandOf(e.Offset)}
			bands[b.Band] = b
		}
		n := int64(e.Length)
		inCache := b.Band == -1
		if e.Write {
			r.TraceWrites++
			r.TraceWriteBytes += n
			b.Writes++
			b.WriteBytes += n
			if inCache {
				r.CacheWriteBytes += n
			}
		} else {
			r.TraceReads++
			b.Reads++
			b.ReadBytes += n
		}
	}
	if r.HostBytes > 0 {
		r.RecomputedAWA = float64(r.TraceWriteBytes) / float64(r.HostBytes)
	}
	for _, b := range bands {
		r.Bands = append(r.Bands, *b)
	}
	sort.Slice(r.Bands, func(i, j int) bool { return r.Bands[i].Band < r.Bands[j].Band })
}

// analyzeEvents recomputes the logical side from the event journal:
// per-level write bytes from flush/compaction spans inside the
// window, value-log appends and GC rewrites (store traffic that never
// enters a level, so they feed RecomputedStore only), the per-set
// write heatmap, and the sampled span-tree statistics.
func (r *Report) analyzeEvents(d *Dump) {
	levelWrite := make([]int64, r.Meta.NumLevels)
	sets := map[int64]*SetStat{}
	ops := map[string]*OpStat{}

	inWindow := func(e *obs.Event) bool {
		return e.StartNS >= r.Meta.StartNS && e.EndNS <= r.Meta.EndNS
	}
	for i := range d.Events {
		e := &d.Events[i]
		switch {
		case e.Type == "flush" && inWindow(e):
			r.WindowEvents++
			levelWrite[0] += e.Fields["bytes"]
			r.RecomputedStore += e.Fields["bytes"]
		case e.Type == "compaction" && inWindow(e):
			r.WindowEvents++
			if e.Fields["trivial"] != 0 {
				continue
			}
			to := e.Fields["to"]
			if to >= 0 && to < int64(len(levelWrite)) {
				levelWrite[to] += e.Fields["output_bytes"]
			}
			r.RecomputedStore += e.Fields["output_bytes"]
			if set, ok := e.Fields["set"]; ok {
				s := sets[set]
				if s == nil {
					s = &SetStat{Set: set}
					sets[set] = s
				}
				s.Compactions++
				s.WriteBytes += e.Fields["output_bytes"]
			}
		case e.Type == "vlog_append" && inWindow(e):
			r.WindowEvents++
			r.RecomputedStore += e.Fields["bytes"]
			r.VlogAppendBytes += e.Fields["bytes"]
		case e.Type == "vlog_gc" && inWindow(e):
			r.WindowEvents++
			r.RecomputedStore += e.Fields["relocated_bytes"]
			r.VlogGCBytes += e.Fields["relocated_bytes"]
		case strings.HasPrefix(e.Type, "op_"):
			op := ops[e.Type[len("op_"):]]
			if op == nil {
				op = &OpStat{Op: e.Type[len("op_"):]}
				ops[op.Op] = op
			}
			op.Spans++
			op.Slow += e.Fields["slow"]
			op.IOs += e.Fields["reads"] + e.Fields["writes"]
			op.IOBytes += e.Fields["read_bytes"] + e.Fields["write_bytes"]
			op.ServiceNS += e.EndNS - e.StartNS
			r.SampledSpanTrees++
		}
	}
	if r.UserBytes > 0 {
		r.RecomputedWA = float64(r.RecomputedStore) / float64(r.UserBytes)
	}

	for l, n := range levelWrite {
		ls := LevelStat{Level: l, WriteBytes: n}
		if r.UserBytes > 0 {
			ls.WA = float64(n) / float64(r.UserBytes)
		}
		r.Levels = append(r.Levels, ls)
	}

	for _, s := range sets {
		r.Sets = append(r.Sets, *s)
	}
	sort.Slice(r.Sets, func(i, j int) bool { return r.Sets[i].WriteBytes > r.Sets[j].WriteBytes })
	for _, o := range ops {
		r.Ops = append(r.Ops, *o)
	}
	sort.Slice(r.Ops, func(i, j int) bool { return r.Ops[i].Op < r.Ops[j].Op })

	for _, n := range obs.SpanTrees(d.Events) {
		if n.ParentDropped {
			r.OrphanSpans++
		}
	}
}

// Verify cross-checks the live counters against the recomputations,
// within a relative tolerance (0.01 = 1%). It returns the first
// mismatch found, or nil when everything agrees. Event-derived checks
// are skipped when the journal ring dropped events.
func (r *Report) Verify(tol float64) error {
	if err := relCheck("device write bytes", float64(r.DeviceBytes), float64(r.TraceWriteBytes), tol); err != nil {
		return err
	}
	if r.HostBytes > 0 {
		if err := relCheck("AWA", r.AWA, r.RecomputedAWA, tol); err != nil {
			return err
		}
	}
	if !r.EventsComplete {
		return nil
	}
	if r.UserBytes > 0 {
		if err := relCheck("WA", r.WA, r.RecomputedWA, tol); err != nil {
			return err
		}
	}
	return nil
}

func relCheck(what string, live, recomputed, tol float64) error {
	diff := live - recomputed
	if diff < 0 {
		diff = -diff
	}
	base := live
	if base < 0 {
		base = -base
	}
	if base == 0 {
		if recomputed == 0 {
			return nil
		}
		return fmt.Errorf("traceanalyze: %s: live 0, recomputed %g", what, recomputed)
	}
	if diff/base > tol {
		return fmt.Errorf("traceanalyze: %s mismatch: live %g, recomputed %g (%.2f%% off, tolerance %.2f%%)",
			what, live, recomputed, 100*diff/base, 100*tol)
	}
	return nil
}

// WriteText renders the report for humans: the amplification
// cross-check, the hottest bands, the hottest sets, and the sampled
// span-tree statistics.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "trace window: mode %s, %.3fs of device time, %d physical accesses\n",
		r.Meta.Mode, float64(r.Meta.EndNS-r.Meta.StartNS)/1e9, r.TraceReads+r.TraceWrites)
	fmt.Fprintf(w, "amplification: user %s  store %s  host %s  device %s\n",
		mb(r.UserBytes), mb(r.StoreBytes), mb(r.HostBytes), mb(r.DeviceBytes))
	fmt.Fprintf(w, "  WA  live %.3f  recomputed %.3f (from %d journal flush/compaction events)\n",
		r.WA, r.RecomputedWA, r.WindowEvents)
	fmt.Fprintf(w, "  AWA live %.3f  recomputed %.3f (trace writes %s, of which media cache %s)\n",
		r.AWA, r.RecomputedAWA, mb(r.TraceWriteBytes), mb(r.CacheWriteBytes))
	if !r.EventsComplete {
		fmt.Fprintf(w, "  note: journal dropped %d events; event-derived numbers are lower bounds\n",
			r.Meta.JournalDropped)
	}
	if r.VlogAppendBytes > 0 || r.VlogGCBytes > 0 {
		fmt.Fprintf(w, "  vlog: appends %s  gc rewrites %s\n", mb(r.VlogAppendBytes), mb(r.VlogGCBytes))
	}
	fmt.Fprintf(w, "per-level write bytes (from flush/compaction spans):\n")
	for _, ls := range r.Levels {
		if ls.WriteBytes == 0 {
			continue
		}
		fmt.Fprintf(w, "  L%d  %10s  WA %.3f\n", ls.Level, mb(ls.WriteBytes), ls.WA)
	}

	hot := append([]BandStat(nil), r.Bands...)
	sort.Slice(hot, func(i, j int) bool {
		return hot[i].ReadBytes+hot[i].WriteBytes > hot[j].ReadBytes+hot[j].WriteBytes
	})
	n := len(hot)
	if n > 10 {
		n = 10
	}
	fmt.Fprintf(w, "hottest bands (of %d touched):\n", len(r.Bands))
	for _, b := range hot[:n] {
		name := fmt.Sprintf("band %4d", b.Band)
		if b.Band == -1 {
			name = "mediacache"
		}
		fmt.Fprintf(w, "  %s  read %10s (%6d ops)  write %10s (%6d ops)\n",
			name, mb(b.ReadBytes), b.Reads, mb(b.WriteBytes), b.Writes)
	}

	if len(r.Sets) > 0 {
		n = len(r.Sets)
		if n > 10 {
			n = 10
		}
		fmt.Fprintf(w, "hottest sets (of %d written):\n", len(r.Sets))
		for _, s := range r.Sets[:n] {
			fmt.Fprintf(w, "  set %6d  %10s in %d compactions\n", s.Set, mb(s.WriteBytes), s.Compactions)
		}
	}

	if len(r.Ops) > 0 {
		fmt.Fprintf(w, "sampled span trees (%d, %d orphaned by the ring bound):\n",
			r.SampledSpanTrees, r.OrphanSpans)
		for _, o := range r.Ops {
			fmt.Fprintf(w, "  %-8s %6d spans  %6d slow  %8d ios  %10s  %8.3fms device\n",
				o.Op, o.Spans, o.Slow, o.IOs, mb(o.IOBytes), float64(o.ServiceNS)/1e6)
		}
	}
}

func mb(n int64) string {
	return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
}
