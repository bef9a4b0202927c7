package obs

import (
	"sync"
	"testing"
)

// TestSpanEndIdempotent pins the single-End contract: the first End
// journals the span, every later End is a no-op, so a deferred End can
// back up an explicit early one without double-counting.
func TestSpanEndIdempotent(t *testing.T) {
	clock := int64(0)
	j := NewJournal(16, func() int64 { clock += 5; return clock })

	sp := j.Begin("op")
	sp.Set("n", 7)
	sp.End()
	first := j.Events()
	sp.End()
	sp.End()

	evs := j.Events()
	if len(evs) != 1 {
		t.Fatalf("span journaled %d times, want 1", len(evs))
	}
	if evs[0].EndNS != first[0].EndNS {
		t.Errorf("later End moved EndNS: %d -> %d", first[0].EndNS, evs[0].EndNS)
	}
	if evs[0].Fields["n"] != 7 {
		t.Errorf("fields = %v", evs[0].Fields)
	}

	// A nil span (nil-journal Begin) tolerates the whole lifecycle.
	var nilSpan *Span
	nilSpan.Set("x", 1)
	nilSpan.End()
	nilSpan.End()
}

// TestJournalWraparoundSpanTrees drives deep span trees from many
// goroutines through a ring far smaller than the event volume, then
// checks the reassembly invariant: every surviving event lands in
// exactly one tree, either under its real parent or as a root
// explicitly marked ParentDropped — never silently orphaned.
func TestJournalWraparoundSpanTrees(t *testing.T) {
	const (
		capacity = 64
		workers  = 8
		trees    = 40
		depth    = 6
	)
	j := NewJournal(capacity, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < trees; i++ {
				// A chain root -> d1 -> ... -> d(depth-1), emitted
				// leaf-last like the tracer does.
				parent := j.RecordSpan("root", 0, 0, 1, map[string]int64{"w": int64(w)})
				for d := 1; d < depth; d++ {
					parent = j.RecordSpan("step", parent, 0, 1, map[string]int64{"d": int64(d)})
				}
			}
		}(w)
	}
	wg.Wait()

	evs := j.Events()
	if len(evs) != capacity {
		t.Fatalf("ring kept %d events, want %d", len(evs), capacity)
	}
	want := int64(workers*trees*depth - capacity)
	if j.Dropped() != want {
		t.Errorf("dropped = %d, want %d", j.Dropped(), want)
	}

	present := map[uint64]bool{}
	for _, e := range evs {
		present[e.ID] = true
	}
	roots := SpanTrees(evs)
	seen := 0
	var walk func(n *SpanNode, parent uint64)
	walk = func(n *SpanNode, parent uint64) {
		seen++
		switch {
		case n.Parent == 0:
			if n.ParentDropped {
				t.Errorf("top-level span %d marked ParentDropped", n.ID)
			}
		case n.ParentDropped:
			if present[n.Parent] {
				t.Errorf("span %d marked ParentDropped but parent %d survives", n.ID, n.Parent)
			}
		default:
			if n.Parent != parent {
				t.Errorf("span %d filed under %d, parent is %d", n.ID, parent, n.Parent)
			}
		}
		for _, c := range n.Children {
			walk(c, n.ID)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	if seen != len(evs) {
		t.Fatalf("trees cover %d events, want %d", seen, len(evs))
	}
}

// TestRecordSpanAfterTheFact checks the tracer's emission primitive:
// caller-supplied stamps are stored verbatim and the returned id links
// children recorded afterwards.
func TestRecordSpanAfterTheFact(t *testing.T) {
	j := NewJournal(8, func() int64 { return 999 })
	root := j.RecordSpan("op_get", 0, 100, 250, map[string]int64{"reads": 2})
	j.RecordSpan("io", root, 120, 180, nil)

	evs := j.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].StartNS != 100 || evs[0].EndNS != 250 {
		t.Errorf("root stamps = %d..%d, want 100..250", evs[0].StartNS, evs[0].EndNS)
	}
	if evs[1].Parent != root {
		t.Errorf("child parent = %d, want %d", evs[1].Parent, root)
	}
	trees := SpanTrees(evs)
	if len(trees) != 1 || len(trees[0].Children) != 1 {
		t.Fatalf("trees = %+v", trees)
	}
}

// TestHistogramQuantileEdges pins quantile behavior at the degenerate
// sample counts the per-stage histograms actually hit early in a run:
// zero observations (everything zero) and one observation (every
// quantile is that value, not a bucket upper bound past it).
func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	if s.Min != 0 || s.Max != 0 || s.P50 != 0 || s.P99 != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}

	// One mid-bucket sample: clamping to the observed max keeps every
	// quantile exact instead of reporting the bucket bound.
	h.Observe(1000003)
	s = h.Snapshot()
	if s.Count != 1 || s.Min != 1000003 || s.Max != 1000003 {
		t.Fatalf("one-sample snapshot = %+v", s)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 1000003 {
			t.Errorf("one-sample Quantile(%v) = %d, want 1000003", q, got)
		}
	}

	// A single zero observation must be distinguishable from empty.
	hz := NewHistogram()
	hz.Observe(0)
	sz := hz.Snapshot()
	if sz.Count != 1 || sz.Quantile(0.99) != 0 {
		t.Errorf("zero-sample snapshot = %+v", sz)
	}
}
