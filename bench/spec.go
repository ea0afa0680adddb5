package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric as BENCHMARK.json declares it. That file is the
// single list of metric names, units, directions and bounds; the harness
// reads it instead of repeating it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output. An end-to-end metric that was not measured — too short a
// window for its percentile, or so many failed requests that it is infinite —
// is an error, never a 0 that would read as the best possible value. The
// driver wants every per-layer metric on every workload, so one whose layer
// the workload does not exercise (live.* off live-mixed, say) reads 0.
func driverLine(res *runResult, specs []metricSpec, required bool) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, m := range specs {
		v, ok := res.Metrics[m.Name]
		if !ok && required {
			return nil, fmt.Errorf("end-to-end metric %s was not measured on %s (failed %d of %d: %v)",
				m.Name, res.Workload, res.Failed, res.Attempted, res.Failures)
		}
		metrics[m.Name] = mv{Value: v, Unit: m.Unit}
	}
	return json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
}
