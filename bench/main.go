// Command bench is the repository's one benchmark: it builds kgserver and
// kgsnap from the checkout, serves a generated fixture with a real kgserver,
// drives it open-loop over HTTP, checks every answer against CTJ ground
// truth and prints each metric BENCHMARK.json names. See README.md.
//
//	bash bench/run.sh                               # all four workloads
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash bench/run.sh trace -workload W             # per-layer ladder + span file
//	bash bench/run.sh compare old.json new.json
//	bash bench/run.sh noise -sets N
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:])
	stop()
	killChildren()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string) int {
	traceCmd := false
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "noise":
			return noiseMain(ctx, args[1:])
		case "trace":
			traceCmd, args = true, args[1:]
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload and end with the driver's JSON line (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: also replay in-process with spans and print the per-layer metrics")
	smoke := fs.Bool("smoke", false, "2 s windows on the 22K-triple fixture everywhere: proves the harness runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	d, spec, err := prepare(seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(d.run)
	o := runOpts{seed: *seed, seconds: *seconds, setups: defaultSetups, trace: traceCmd || *trace == 1}
	if o.trace {
		o.setups = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	if *smoke {
		o.seconds, o.setups = 2, 1
	}
	todo := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []*workload{w}
	}
	set := resultSet{Workloads: map[string]*runResult{}}
	code := 0
	for _, w := range todo {
		o.w = w
		if *smoke {
			o.w = w.smoke()
		}
		res, err := run(ctx, d, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		summary := *res
		summary.Requests = nil // the per-request rows stay in the workload's own file
		set.Workloads[w.Name] = &summary
		printResult(os.Stdout, res, spec, o.trace)
		if err := writeJSON(filepath.Join(d.out, w.Name+".json"), res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	if *name == "" {
		file := "all.json"
		if o.trace {
			file = "all-layers.json"
		}
		if err := writeJSON(filepath.Join(d.out, file), set); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return code
	}
	// Driver mode: one workload, and the last line of standard output is
	// the result object.
	specs, required := spec.EndToEnd, true
	if o.trace {
		specs, required = spec.PerLayer, false
	}
	line, err := driverLine(set.Workloads[*name], specs, required)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}

// prepare locates the checkout, reads BENCHMARK.json (whose run_seconds is
// the default window), and builds the programs under test.
func prepare(seconds *float64) (*dirs, *benchSpec, error) {
	d, err := newDirs()
	if err != nil {
		return nil, nil, err
	}
	spec, err := loadSpec(d.root)
	if err == nil {
		err = d.buildBinaries()
	}
	if err != nil {
		os.RemoveAll(d.run)
		return nil, nil, err
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	return d, spec, nil
}

// resultSet is one full set of runs: what `compare` and `noise` read.
type resultSet struct {
	Workloads map[string]*runResult `json:"workloads"`
}
