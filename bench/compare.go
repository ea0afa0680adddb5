package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// noiseRow is one end-to-end metric on one workload over the sets of a
// `bench noise` run: what the bounds in BENCHMARK.json were calibrated on.
type noiseRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	// Spread is the distance between the quartiles as a share of the median.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	// Demote marks a metric whose spread exceeds its bound or 10 %: it is
	// kept as a diagnostic, not given a wider bound.
	Demote bool `json:"demote"`
}

type noiseFile struct {
	Env     envInfo    `json:"env"`
	Sets    int        `json:"sets"`
	Seeds   []int64    `json:"seeds"`
	Seconds float64    `json:"seconds"`
	Rows    []noiseRow `json:"rows"`
	Demoted []string   `json:"demoted"`
}

// noiseMain runs N full sets, each on another seed, and writes the median
// and spread of every end-to-end metric to bench/NOISE.json.
func noiseMain(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("noise", flag.ContinueOnError)
	sets := fs.Int("sets", 10, "full sets to run: set i runs every workload on seed i")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var seconds float64 // run_seconds of BENCHMARK.json
	d, spec, err := prepare(&seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(d.run)
	out := noiseFile{Env: fingerprint(d.root), Sets: *sets, Seconds: seconds}
	values := map[[2]string][]float64{}
	for i := 0; i < *sets; i++ {
		s := int64(i) + 1
		out.Seeds = append(out.Seeds, s)
		for _, w := range workloads {
			res, err := run(ctx, d, runOpts{w: w, seed: s, seconds: seconds, setups: defaultSetups})
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.Name, s, err)
				return 1
			}
			if !res.Correct || !res.Valid {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: failed %d, valid %v %s %v\n", w.Name, s, res.Failed, res.Valid, res.InvalidWhy, res.Failures)
			}
			for name, v := range res.Metrics {
				k := [2]string{w.Name, name}
				values[k] = append(values[k], v)
			}
			fmt.Fprintf(os.Stderr, "noise: set %d/%d %s done\n", i+1, *sets, w.Name)
		}
	}
	// End-to-end metrics first, in BENCHMARK.json's order; then every other
	// number the runs produced, with no bound, as a record of how steady the
	// diagnostics are.
	specs := append([]metricSpec(nil), spec.EndToEnd...)
	declared := map[string]bool{}
	for _, m := range specs {
		declared[m.Name] = true
	}
	var rest []string
	for k := range values {
		if !declared[k[1]] {
			declared[k[1]] = true
			rest = append(rest, k[1])
		}
	}
	sort.Strings(rest)
	for _, n := range rest {
		specs = append(specs, metricSpec{Name: n})
	}
	demoted := map[string]bool{}
	for _, w := range workloads {
		for _, m := range specs {
			vs := values[[2]string{w.Name, m.Name}]
			if len(vs) == 0 {
				continue
			}
			row := noiseRow{Workload: w.Name, Metric: m.Name, Values: vs, Median: median(vs), Spread: iqrShare(vs), Bound: m.Bound}
			row.Demote = m.Bound > 0 && (row.Spread > m.Bound || row.Spread > 0.10)
			if row.Demote {
				demoted[m.Name] = true
			}
			out.Rows = append(out.Rows, row)
			fmt.Printf("%-14s %-24s median %-12.6g spread %5.1f%%  bound %4.0f%%  %s\n", w.Name, m.Name, row.Median,
				row.Spread*100, m.Bound*100, map[bool]string{true: "DEMOTE", false: ""}[row.Demote])
		}
	}
	out.Demoted = []string{} // none is a result too
	for n := range demoted {
		out.Demoted = append(out.Demoted, n)
	}
	sort.Strings(out.Demoted)
	if err := writeJSON(filepath.Join(d.root, "bench", "NOISE.json"), out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// compareMain prints one row per workload × end-to-end metric with both
// values and the verdict under the bound BENCHMARK.json fixes. Where the
// spread NOISE.json recorded for the pair exceeds the bound the verdict is
// "unresolved", never "unchanged".
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare old.json new.json   (two bench/out/all.json files)")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var sets [2]resultSet
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 1
		}
	}
	spread := map[[2]string]float64{}
	if b, err := os.ReadFile(filepath.Join(root, "bench", "NOISE.json")); err == nil {
		var nf noiseFile
		if json.Unmarshal(b, &nf) == nil {
			for _, r := range nf.Rows {
				spread[[2]string{r.Workload, r.Metric}] = r.Spread
			}
		}
	}
	regressed := compareSets(os.Stdout, spec, sets[0], sets[1], spread)
	if regressed > 0 {
		return 1
	}
	return 0
}

// verdict judges one pair of values. worse is how much worse the new value
// is than the old as a share of the old, by the metric's direction.
func verdict(m metricSpec, old, new, spread float64) (worse float64, word string) {
	if old == 0 {
		return 0, "n/a"
	}
	worse = (new - old) / old
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread > m.Bound:
		word = "unresolved"
	case worse > m.Bound:
		word = "REGRESSION"
	case worse < -m.Bound:
		word = "improved"
	default:
		word = "unchanged"
	}
	return worse, word
}

func compareSets(w *os.File, spec *benchSpec, old, new resultSet, spread map[[2]string]float64) (regressed int) {
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %8s %6s %7s  %s\n", "workload", "metric", "old", "new", "worse", "bound", "spread", "verdict")
	for _, wl := range workloads {
		o, n := old.Workloads[wl.Name], new.Workloads[wl.Name]
		if o == nil || n == nil {
			continue
		}
		if n.Failed > o.Failed {
			fmt.Fprintf(w, "%-14s %-24s %14d %14d %43s\n", wl.Name, "failed", o.Failed, n.Failed, "REGRESSION")
			regressed++
		}
		for _, m := range spec.EndToEnd {
			ov, ok1 := o.Metrics[m.Name]
			nv, ok2 := n.Metrics[m.Name]
			if !ok1 || !ok2 {
				fmt.Fprintf(w, "%-14s %-24s %14s %14s\n", wl.Name, m.Name, "n/a", "n/a")
				continue
			}
			sp := spread[[2]string{wl.Name, m.Name}]
			worse, word := verdict(m, ov, nv, sp)
			if word == "REGRESSION" {
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-24s %14.6g %14.6g %+7.1f%% %5.0f%% %6.1f%%  %s\n", wl.Name, m.Name, ov, nv, worse*100, m.Bound*100, sp*100, word)
		}
	}
	return regressed
}
