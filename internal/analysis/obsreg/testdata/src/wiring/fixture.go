// Package wiring is the obsreg fixture: a registry shaped like
// internal/obs's, with one clean wiring block and the violation
// forms.
package wiring

import "fmt"

type Counter struct{}
type Histogram struct{}

// Registry mirrors obs.Registry; the analyzer keys on the type name.
type Registry struct{}

func (r *Registry) Counter(name string) *Counter            { return nil }
func (r *Registry) Histogram(name string) *Histogram        { return nil }
func (r *Registry) GaugeFunc(name string, fn func() float64) {}

type metrics struct {
	writes *Counter
}

// Good: each name has exactly one call site.
func wire(r *Registry, m *metrics) {
	m.writes = r.Counter("sealdb_writes_total")
	r.GaugeFunc("sealdb_free_bytes", func() float64 { return 0 })
	_ = r.Histogram("sealdb_write_latency_ns")
}

// Good: a collection pass binds a gauge by writing its literal name
// into the snapshot's gauge set; other maps, and float maps keyed
// outside the metric namespace, are out of scope.
func collect(g map[string]float64, fields map[string]int64) {
	g["sealdb_queue_depth"] = 3
	fields["sealdb_queue_depth"] = 3
	g["lsm.flushes"] = 3
}

// Bad: re-registering a name aliases two call sites onto one metric.
func rewire(r *Registry) {
	_ = r.Counter("sealdb_writes_total") // want `metric "sealdb_writes_total" already registered`
	_ = r.Histogram("sealdb_write_latency_ns") // want `metric "sealdb_write_latency_ns" already registered`
}

// Bad: a second pass writing a gauge another site already binds.
func recollect(g map[string]float64) {
	g["sealdb_queue_depth"] = 4 // want `metric "sealdb_queue_depth" already registered`
	g["sealdb_free_bytes"] = 5  // want `metric "sealdb_free_bytes" already registered`
}

// Bad: name format violations.
func badNames(r *Registry) {
	_ = r.Counter("SealDB-Writes") // want `metric name "SealDB-Writes" does not match`
	r.GaugeFunc("9starts_with_digit", nil) // want `metric name "9starts_with_digit" does not match`
}

func badGaugeName(g map[string]float64) {
	g["sealdb_cache.hits"] = 1 // want `metric name "sealdb_cache.hits" does not match`
}

// Bad: counters without the prometheus _total suffix; gauges and
// histograms carry no suffix requirement.
func badCounterSuffix(r *Registry) {
	_ = r.Counter("sealdb_trace_ops") // want `counter name "sealdb_trace_ops" must end in _total`
	r.GaugeFunc("sealdb_trace_ops", nil)
	_ = r.Histogram("sealdb_stage_wal_append_ns")
}

// R aliases the registry: a call through the alias is still a
// registration.
type R = Registry

func aliasWire(r *R) {
	_ = r.Counter("sealdb_alias_ops") // want `counter name "sealdb_alias_ops" must end in _total`
}

// Bad: a computed name cannot be found with grep.
func computed(r *Registry) {
	for l := 0; l < 7; l++ {
		_ = r.Counter(fmt.Sprintf("sealdb_level_%d_write_bytes_total", l)) // want "metric name is not a string literal"
	}
}

// Good: a non-Registry receiver with the same method name is out of
// scope.
type other struct{}

func (o *other) Counter(name string) int { return 0 }

func unrelated(o *other) {
	_ = o.Counter("sealdb_writes_total")
}
