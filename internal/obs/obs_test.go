package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter not zero")
	}
	var h *Histogram
	h.Observe(3)
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram not empty")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Histogram("x") != nil {
		t.Error("nil registry returned live metrics")
	}
	r.GaugeFunc("x", func() float64 { return 1 })
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var j *Journal
	j.Record("x", nil)
	sp := j.Begin("y")
	sp.Set("k", 1)
	sp.End()
	if len(j.Events()) != 0 || j.Dropped() != 0 {
		t.Error("nil journal not inert")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same name returned different counters")
	}
	r.Counter("a").Add(3)
	r.GaugeFunc("c", func() float64 { return 1.5 })
	r.Histogram("d").Observe(10)
	s := r.Snapshot()
	if s.Counters["a"] != 3 {
		t.Errorf("counter a = %d", s.Counters["a"])
	}
	if s.Gauges["c"] != 1.5 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	if s.Histograms["d"].Count != 1 || s.Histograms["d"].Sum != 10 {
		t.Errorf("hist d = %+v", s.Histograms["d"])
	}
}

// TestRegistryConcurrent hammers every metric kind from writer
// goroutines while readers snapshot and export; run under -race this
// is the registry's main correctness test.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("fn", func() float64 { return 42 })
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("c%d", w%4) // contended get-or-create
			for i := 0; i < perWriter; i++ {
				r.Counter(name).Inc()
				r.Histogram("h").Observe(int64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s := r.Snapshot()
			var sb strings.Builder
			if err := WritePrometheus(&sb, s); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	s := r.Snapshot()
	var total int64
	for i := 0; i < 4; i++ {
		total += s.Counters[fmt.Sprintf("c%d", i)]
	}
	if want := int64(writers * perWriter); total != want {
		t.Errorf("counter total = %d, want %d", total, want)
	}
	if s.Histograms["h"].Count != writers*perWriter {
		t.Errorf("hist count = %d", s.Histograms["h"].Count)
	}
	if s.Gauges["fn"] != 42 {
		t.Errorf("gauge fn = %v", s.Gauges["fn"])
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	// 0..15 occupy one exact bucket each: quantiles are exact.
	for v := int64(0); v < 16; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 16 || s.Min != 0 || s.Max != 15 || s.Sum != 120 {
		t.Fatalf("snapshot = %+v", s)
	}
	if got := s.Quantile(0.5); got != 7 {
		t.Errorf("p50 = %d, want 7", got)
	}
	if got := s.Quantile(1.0); got != 15 {
		t.Errorf("p100 = %d, want 15", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// Every bucket's upper bound must map back to the same bucket, and
	// the next value must map to the next bucket. Buckets past the
	// first whose bound clamps to MaxInt64 are unreachable for int64
	// observations and are skipped.
	for idx := 0; idx < histNumBuckets; idx++ {
		ub := bucketUpperBound(idx)
		if ub == math.MaxInt64 {
			break
		}
		if got := bucketIndex(ub); got != idx {
			t.Fatalf("bucketIndex(upper %d) = %d, want %d", ub, got, idx)
		}
		if got := bucketIndex(ub + 1); got != idx+1 {
			t.Fatalf("bucketIndex(%d) = %d, want %d", ub+1, got, idx+1)
		}
	}
	// The largest observable value lands in a bucket whose bound
	// covers it.
	if ub := bucketUpperBound(bucketIndex(math.MaxInt64)); ub != math.MaxInt64 {
		t.Errorf("MaxInt64 bucket bound = %d", ub)
	}
}

func TestHistogramQuantileError(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 100000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := int64(math.Ceil(q * 100000))
		got := s.Quantile(q)
		if got < exact {
			t.Errorf("q%.3f = %d below exact %d", q, got, exact)
		}
		if err := float64(got-exact) / float64(exact); err > 1.0/16 {
			t.Errorf("q%.3f = %d, exact %d: relative error %.4f > 1/16", q, got, exact, err)
		}
	}
	// Max and the top quantile are exact.
	if s.Max != 100000 || s.Quantile(1.0) != 100000 {
		t.Errorf("max = %d, p100 = %d", s.Max, s.Quantile(1.0))
	}
}

func TestHistogramNegativeClamp(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Min != 0 || s.Max != 0 || s.Sum != 0 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestJournalRingAndSpans(t *testing.T) {
	clock := int64(0)
	j := NewJournal(4, func() int64 { clock += 10; return clock })

	sp := j.Begin("pass")
	sp.Set("n", 1)
	sp.End()

	evs := j.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Type != "pass" || evs[0].Parent != 0 || evs[0].Fields["n"] != 1 {
		t.Errorf("span event = %+v", evs[0])
	}
	if evs[0].StartNS >= evs[0].EndNS {
		t.Errorf("span times = %d..%d", evs[0].StartNS, evs[0].EndNS)
	}

	// Overflow the ring: oldest events drop, newest survive.
	for i := 0; i < 10; i++ {
		j.Record("tick", map[string]int64{"i": int64(i)})
	}
	evs = j.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	if j.Dropped() != 7 {
		t.Errorf("dropped = %d, want 7", j.Dropped())
	}
	if last := evs[len(evs)-1]; last.Fields["i"] != 9 {
		t.Errorf("newest event = %+v", last)
	}
}

func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(64, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := j.Begin("op")
				sp.Set("i", int64(i))
				sp.End()
				j.Events()
			}
		}()
	}
	wg.Wait()
	ids := map[uint64]bool{}
	for _, e := range j.Events() {
		if ids[e.ID] {
			t.Fatalf("duplicate event id %d", e.ID)
		}
		ids[e.ID] = true
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Add(7)
	r.GaugeFunc("y", func() float64 { return 3 })
	h := r.Histogram("lat")
	h.Observe(1)
	h.Observe(1)
	h.Observe(100)
	var sb strings.Builder
	if err := WritePrometheus(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE x_total counter\nx_total 7\n",
		"# TYPE y gauge\ny 3\n",
		"# TYPE lat histogram\n",
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="+Inf"} 3`,
		"lat_sum 102",
		"lat_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Buckets are cumulative: the 100-bucket line must count all 3.
	if !strings.Contains(out, `} 3`) {
		t.Errorf("no cumulative bucket reached 3:\n%s", out)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Histogram("h").Observe(50)
	var sb strings.Builder
	if err := WriteJSON(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c"] != 2 || back.Histograms["h"].Count != 1 {
		t.Errorf("round trip = %+v", back)
	}

	var lines strings.Builder
	enc := NewJSONLines(&lines)
	for i := 0; i < 3; i++ {
		if err := enc.Encode(map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Count(lines.String(), "\n"); got != 3 {
		t.Errorf("JSON lines = %d, want 3", got)
	}
}
