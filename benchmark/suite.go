package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"text/tabwriter"
)

// spawn runs one workload once in a fresh process of this binary and
// parses the result line.
func spawn(sp *spec, seed int64, seconds, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "--workload", sp.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d trace %d: %w", sp.name, seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d trace %d: bad result line: %w", sp.name, seed, trace, err)
	}
	return res, nil
}

// runSuite runs every workload untraced and traced and prints every
// metric by name and unit. It fails if any run was incorrect: an
// operation failed, or smr.awa was not exactly 1.
func runSuite(seed int64, seconds int) error {
	w := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	incorrect := 0
	for i := range specs {
		sp := &specs[i]
		for trace, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
			res, err := spawn(sp, seed, seconds, trace)
			if err != nil {
				return err
			}
			if !res.Correct {
				incorrect++
			}
			fmt.Fprintf(w, "%s\ttrace %d\tcorrect %v\tattempted %d\tfailed %d\n", sp.name, trace, res.Correct, res.Attempted, res.Failed)
			for _, d := range defs {
				fmt.Fprintf(w, "%s\t%s\t%v\t%s\t%s\n", sp.name, d.name, res.Metrics[d.name].Value, d.unit, d.source)
			}
			w.Flush()
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs were incorrect", incorrect)
	}
	return nil
}

// runAA is the A/A test behind the bounds: two interleaved sets of n
// passes of the same binary, seeds 1..n in both. Per workload and
// end-to-end metric it prints both medians, the relative gap between
// them, each set's spread (interquartile range over median, as the
// driver computes it) and the bound, and fails if a gap exceeds its
// bound.
func runAA(n, seconds int) error {
	type cell struct{ a, b []float64 }
	cells := map[string]*cell{}
	key := func(sp *spec, d metricDef) string { return sp.name + "/" + d.name }
	for pass := 1; pass <= n; pass++ {
		for i := range specs {
			sp := &specs[i]
			for set := 0; set < 2; set++ {
				res, err := spawn(sp, int64(pass), seconds, 0)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: incorrect run (%d of %d failed)", sp.name, pass, res.Failed, res.Attempted)
				}
				for _, d := range endToEndDefs {
					c := cells[key(sp, d)]
					if c == nil {
						c = &cell{}
						cells[key(sp, d)] = c
					}
					if v := res.Metrics[d.name].Value; set == 0 {
						c.a = append(c.a, v)
					} else {
						c.b = append(c.b, v)
					}
				}
			}
		}
		fmt.Fprintf(os.Stderr, "aa: pass %d of %d done\n", pass, n)
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "workload\tmetric\tmedian A\tmedian B\tgap\tspread A\tspread B\tbound\t\t")
	over := 0
	for i := range specs {
		sp := &specs[i]
		for _, d := range endToEndDefs {
			c := cells[key(sp, d)]
			ma, mb := median(c.a), median(c.b)
			gap := math.Abs(mb-ma) / ma
			bound := d.boundOn(sp)
			verdict := "ok"
			switch {
			case gap > bound:
				verdict = "OVER"
				over++
			case gap > bound/2:
				verdict = "above half the bound"
			}
			fmt.Fprintf(w, "%s\t%s\t%.6g\t%.6g\t%.4f\t%.4f\t%.4f\t%.2f\t%s\t\n",
				sp.name, d.name, ma, mb, gap, spread(c.a), spread(c.b), bound, verdict)
		}
	}
	w.Flush()
	if over > 0 {
		return fmt.Errorf("%d (workload, metric) cells differ between the two sets by more than their bound", over)
	}
	return nil
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4), which the driver uses.
func spread(values []float64) float64 {
	d := slices.Clone(values)
	slices.Sort(d)
	if len(d) < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		m := len(d) + 1
		j := max(1, min(i*m/4, len(d)-1))
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(d)
}

// printManifest writes the BENCHMARK.json that matches the metric and
// workload tables of this binary; a test keeps the checked-in file equal
// to it.
func printManifest(out io.Writer) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds}
	for _, sp := range specs {
		m.Workloads = append(m.Workloads, workload{sp.name, sp.why})
	}
	for _, d := range endToEndDefs {
		m.EndToEnd = append(m.EndToEnd, metric{d.name, d.unit, d.better, &d.driver})
	}
	for _, d := range perLayerDefs {
		m.PerLayer = append(m.PerLayer, metric{d.name, d.unit, d.better, nil})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
