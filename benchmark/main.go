// Command benchmark is sealdb's benchmark: five long closed-loop
// workloads measured on two clocks (simulated device time, which
// repeats exactly for a seed, and host wall time, which does not), with
// a per-layer ledger taken from outside the engine. See README.md.
//
// One invocation runs one workload once in a fresh process:
//
//	benchmark --workload get_zipf --seed 1 --seconds 6 --trace 0
//
// and prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
// -suite runs every workload both ways; -aa N compares two interleaved
// sets of N passes of the same binary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// procs is the GOMAXPROCS every run uses: two, the reference box's core
// count, which the two-client workload needs and the others do not
// exceed.
const procs = 2

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 6

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run once: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed every input of the run is derived from")
		seconds  = flag.Int("seconds", defaultSeconds, "nominal length of the measured phase; op counts are fixed multiples of it")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: adds a traced run, per-layer metrics")
		spans    = flag.String("spans", "", "span file the traced run writes (default .bench_build/spans_<workload>.bin)")
		suite    = flag.Bool("suite", false, "run every workload, untraced and traced, each in a fresh process; print every metric")
		aa       = flag.Int("aa", 0, "run two interleaved sets of N passes of this binary and compare their medians to the bounds")
		decode   = flag.String("decode-spans", "", "print a span file as JSON lines and exit")
		limit    = flag.Int("limit", 1000, "with -decode-spans: how many spans to print")
		manifest = flag.Bool("print-benchmark-json", false, "print the BENCHMARK.json that matches this binary's metric tables")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	var err error
	switch {
	case *manifest:
		err = printManifest(os.Stdout)
	case *decode != "":
		err = decodeSpans(*decode, *limit, os.Stdout)
	case *suite:
		err = runSuite(*seed, *seconds)
	case *aa > 0:
		err = runAA(*aa, *seconds)
	default:
		err = runOnce(*workload, *seed, *seconds, *trace, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	return names
}

// runOnce is the contract with the driver: one workload, one seed, one
// fresh process, one result line.
func runOnce(workload string, seed int64, seconds, trace int, spanPath string) error {
	sp := findSpec(workload)
	if sp == nil {
		return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	p := newParams(sp, seed, seconds)
	load := loadavg()
	var res result
	var extra map[string]any
	var err error
	if trace == 0 {
		res, extra, err = runUntraced(p)
	} else {
		if spanPath == "" {
			spanPath = ".bench_build/spans_" + sp.name + ".bin"
		}
		res, extra, err = runTraced(p, spanPath)
	}
	if err != nil {
		return err
	}
	meta := runMeta(&p, seconds, load)
	for k, v := range extra {
		meta[k] = v
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// setupRepeats is how many times an untraced run sets the store up:
// setup_s is the median, since one 3-second timing is too noisy for its
// bound.
const setupRepeats = 3

// runUntraced measures the end-to-end metrics.
func runUntraced(p params) (result, map[string]any, error) {
	ps, err := runPass(p, setupRepeats, false, nil)
	if err != nil {
		return result{}, nil, err
	}
	res := newResult(ps, endToEndDefs, endToEnd(ps))
	return res, map[string]any{"wall_p50_samples": ps.lat.n, "setup_samples": ps.setups, "space_amp_samples": len(ps.ph.spaceAmp),
		"mem_contention": ps.ph.contention, "wall_ops_per_s_raw": ps.ph.rawOpsPerSecond(), "wall_p50_us_raw": ps.lat.p50}, nil
}

// runTraced measures the per-layer ledger: an untraced pass for the
// counter deltas and the baseline speed, a traced pass for the spans,
// and the isolated micro-measurements. With one client the traced pass
// must reproduce the untraced pass's device-clock numbers and platter
// counts exactly: tracing may change host time only.
func runTraced(p params, spanPath string) (result, map[string]any, error) {
	untraced, err := runPass(p, 1, false, nil)
	if err != nil {
		return result{}, nil, err
	}
	traced, err := runPass(p, 1, true, nil)
	if err != nil {
		return result{}, nil, err
	}
	values := map[string]float64{}
	counterLayer(untraced, values)
	spanLayer(untraced, traced, values)
	if err := microLayer(values); err != nil {
		return result{}, nil, fmt.Errorf("micro-measurements: %w", err)
	}
	if err := traced.tr.writeSpans(spanPath, p.sp.name, p.seed); err != nil {
		return result{}, nil, fmt.Errorf("writing spans: %w", err)
	}
	res := newResult(untraced, perLayerDefs, values)
	res.Attempted += traced.attempted()
	res.Failed += traced.failed
	res.Correct = res.Correct && traced.failed == 0 && traced.awa == 1
	extra := map[string]any{"span_file": spanPath, "spans": traced.tr.count(), "sample_counts": sampleCounts(traced)}
	if p.sp.clients == 1 {
		if diff := tracingChanged(untraced, traced); diff != "" {
			res.Correct = false
			extra["tracing_changed"] = diff
		}
	}
	return res, extra, nil
}

// tracingChanged names the first device-clock metric or platter count
// that differs between an untraced and a traced pass of one seed.
func tracingChanged(untraced, traced *pass) string {
	u, t := endToEnd(untraced), endToEnd(traced)
	for _, name := range deterministic {
		if u[name] != t[name] {
			return fmt.Sprintf("%s: untraced %v, traced %v", name, u[name], t[name])
		}
	}
	du, dt := untraced.ph.after.disk, traced.ph.after.disk
	if du != dt {
		return fmt.Sprintf("platter counts: untraced %+v, traced %+v", du, dt)
	}
	return ""
}

// newResult builds the result line: every metric of defs, in order of
// definition, and the run's verdict. A run is correct when no operation
// failed and the drive's auxiliary write amplification is exactly 1,
// the paper's safety claim for dynamic bands.
func newResult(ps *pass, defs []metricDef, values map[string]float64) result {
	res := result{Attempted: ps.attempted(), Failed: ps.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	res.Correct = ps.failed == 0 && ps.awa == 1
	return res
}

func sampleCounts(ps *pass) map[string]int {
	out := map[string]int{}
	for k, name := range opNames {
		if n := ps.lat.kind[k].n; n > 0 {
			out[name] = n
		}
	}
	return out
}

// runMeta describes the run: what was executed, on what, by which
// build. load is /proc/loadavg as read before the run started.
func runMeta(p *params, seconds int, load string) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload": p.sp.name, "seed": p.seed, "seconds": seconds, "commit": commit,
		"go_version": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"loadavg_at_start": load, "records": p.records, "ops_per_client": p.ops, "warmup_ops": p.warmup,
		"clients": p.sp.clients, "tcp": p.sp.tcp, "value_threshold": p.sp.valueThreshold,
		"flush_policy": "engine default: every commit appends to the WAL synchronously on the emulated drive; memtable flush and compaction run inline on the writer",
	}
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}
