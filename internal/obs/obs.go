// Package obs is the store's observability substrate: a concurrent
// metrics registry (atomic counters, pull gauges, and bounded
// log-scaled histograms), a structured event journal with spans,
// profiled lock wrappers, and exporters (Prometheus text, JSON, JSON
// lines) plus a small net/http server serving live /metrics and /debug
// endpoints.
//
// The package has no dependencies outside the standard library and no
// knowledge of the engine; subsystems are wired to it by the lsm
// layer. Every type is safe for concurrent use, and methods on nil
// receivers are no-ops so instrumentation sites never need guarding.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry holds named metrics. Metrics are created on first use and
// live for the registry's lifetime; Snapshot captures every value at
// one point in time (gauge functions are evaluated then).
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter       // guarded by mu
	gaugeFuncs map[string]func() float64 // guarded by mu
	hists      map[string]*Histogram     // guarded by mu
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gaugeFuncs: map[string]func() float64{},
		hists:      map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// GaugeFunc registers a pull gauge: fn is evaluated at every
// Snapshot. fn must not call back into the registry. Registering the
// same name again replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every metric's current value. Gauge functions
// are evaluated during the call; counter and histogram reads are
// atomic per metric (the snapshot is not one global atomic cut).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot returns the current state of every metric. It returns an
// empty snapshot on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	// Copy the metric sets under the lock, then read values outside it
	// so gauge functions may take subsystem locks freely.
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	funcs := make(map[string]func() float64, len(r.gaugeFuncs))
	for n, f := range r.gaugeFuncs {
		funcs[n] = f
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.RUnlock()

	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, f := range funcs {
		s.Gauges[n] = f()
	}
	for n, h := range hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// sortedKeys returns map keys in lexical order, for deterministic
// export output.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
