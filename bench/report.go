package main

import (
	"fmt"
	"io"
	"strings"
)

// printResult prints every metric by name with its unit, direction, sample
// count and bound; n/a where the workload has no such traffic.
func printResult(w io.Writer, res *runResult, spec *benchSpec, layers bool) {
	fmt.Fprintf(w, "\n== %s  seed %d  %gs window  %d triples  plan %s\n", res.Workload, res.Seed, res.Seconds, res.Triples, res.PlanHash[:12])
	for _, wl := range spec.Workloads {
		if wl.Name == res.Workload {
			fmt.Fprintf(w, "   %s\n", wl.Why)
		}
	}
	e := res.Env
	fmt.Fprintf(w, "   nproc %d, server GOMAXPROCS %d, %s, %s, commit %s, load %.2f\n",
		e.NProc, e.ServerGOMAXPROCS, e.GoVersion, e.CPUModel, e.GitCommit, e.LoadAvg1)
	fmt.Fprintf(w, "   attempted %d, failed %d, ground truth %.2fs", res.Attempted, res.Failed, res.TruthS)
	if lag, ok := res.Metrics["sched_lag_ms_p95"]; ok {
		fmt.Fprintf(w, ", sched_lag_ms_p95 %.2f", lag)
	}
	fmt.Fprintln(w)
	if !res.Valid {
		fmt.Fprintf(w, "   INVALID RUN (not slow): %s\n", res.InvalidWhy)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	printed := map[string]bool{}
	table := func(title string, specs []metricSpec) {
		fmt.Fprintf(w, "   %-34s %14s %-8s %-7s %7s %s\n", title, "value", "unit", "better", "n", "bound")
		for _, m := range specs {
			printed[m.Name] = true
			val, bound := "n/a", ""
			if v, ok := res.Metrics[m.Name]; ok {
				val = fmt.Sprintf("%.6g", v)
			}
			if m.Bound > 0 {
				bound = fmt.Sprintf("%g%%", m.Bound*100)
			}
			fmt.Fprintf(w, "   %-34s %14s %-8s %-7s %7d %s\n", m.Name, val, m.Unit, m.Better, res.Samples[m.Name], bound)
		}
	}
	table("end-to-end", spec.EndToEnd)
	if !layers {
		return
	}
	table("per-layer", spec.PerLayer)
	var extra []string
	for _, n := range sortedNames(res.Metrics) {
		if !printed[n] {
			extra = append(extra, fmt.Sprintf("%s=%.6g", n, res.Metrics[n]))
		}
	}
	if len(extra) > 0 {
		fmt.Fprintf(w, "   undeclared diagnostics: %s\n", strings.Join(extra, " "))
	}
}
