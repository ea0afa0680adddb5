package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	oexec "os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"kgexplore"
	"kgexplore/internal/dist"
	"kgexplore/internal/exec"
	"kgexplore/internal/index"
	"kgexplore/internal/kggen"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/shard"
	"kgexplore/internal/wj"
)

// distBenchRow is one fleet-width measurement: a fixed-budget scatter run's
// walk throughput over N kgworker processes, the walks needed to shrink the
// mean relative CI to the target, the estimate's error against the exact
// answer, and the wire traffic the run cost.
type distBenchRow struct {
	Workers         int     `json:"workers"`
	Walks           int64   `json:"walks"`
	ElapsedNs       int64   `json:"elapsed_ns"`
	WalksPerSec     float64 `json:"walks_per_sec"`
	WalksToTargetCI int64   `json:"walks_to_target_ci"`
	MeanRelErr      float64 `json:"mean_rel_err"`
	WireInBytes     int64   `json:"wire_in_bytes"`
	WireOutBytes    int64   `json:"wire_out_bytes"`
	Retries         int     `json:"retries,omitempty"`
}

// distBenchReport is the BENCH_dist.json schema: the fixture, the in-process
// scatter baseline, the per-fleet-width grid, and the headline ratios.
type distBenchReport struct {
	Dataset      string  `json:"dataset"`
	Scale        float64 `json:"scale"`
	Triples      int     `json:"triples"`
	Shards       int     `json:"shards"`
	Walks        int64   `json:"walks"`
	Seed         int64   `json:"seed"`
	TargetCI     float64 `json:"target_ci"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"numcpu"`
	GoVersion    string  `json:"go_version"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`
	// Baseline is the same run executed by in-process shard.RunScatter —
	// identical seeds and allocation math, so its walk counts match the
	// distributed rows and the delta is pure wire overhead.
	Baseline distBenchRow   `json:"baseline"`
	Rows     []distBenchRow `json:"rows"`
	// ThroughputRatio2v1 = walks/sec with 2 workers over 1 worker: >1 means
	// the fleet turned processes into parallel walk throughput.
	ThroughputRatio2v1 float64 `json:"throughput_ratio_2_vs_1"`
	// DistVsLocal = walks/sec of the widest fleet over the in-process
	// baseline: the price (or win) of going over the wire.
	DistVsLocal float64 `json:"dist_vs_local_ratio"`
	// CPULimited flags runs where the machine cannot actually run a
	// 2-worker fleet plus the coordinator in parallel: the processes
	// time-slice, so the 1→2 ratio measures scheduling overhead, not
	// scaling.
	CPULimited bool `json:"cpu_limited,omitempty"`
}

// workerProc is one spawned kgworker process and its scraped listen address.
type workerProc struct {
	cmd  *oexec.Cmd
	addr string
}

func (p *workerProc) stop() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
	p.cmd.Wait()
}

// spawnWorker starts one kgworker on a free port and scrapes the
// machine-readable "kgworker: listening on ADDR" line from its stdout.
func spawnWorker(bin, manifest string, shardN int) (*workerProc, error) {
	cmd := oexec.Command(bin,
		"-manifest", manifest,
		"-shard", strconv.Itoa(shardN),
		"-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &workerProc{cmd: cmd}
	lines := bufio.NewScanner(out)
	for lines.Scan() {
		if addr, ok := strings.CutPrefix(lines.Text(), "kgworker: listening on "); ok {
			p.addr = strings.TrimSpace(addr)
			break
		}
	}
	if p.addr == "" {
		p.stop()
		return nil, fmt.Errorf("distbench: kgworker exited without announcing its address")
	}
	go io.Copy(io.Discard, out) // keep draining so the worker never blocks on stdout
	return p, nil
}

// buildWorkerBin compiles cmd/kgworker into dir and returns the binary path.
// The package path form works from any working directory inside the module.
func buildWorkerBin(dir string) (string, error) {
	bin := filepath.Join(dir, "kgworker")
	cmd := oexec.Command("go", "build", "-o", bin, "kgexplore/cmd/kgworker")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("distbench: building kgworker (pass a prebuilt binary with -distworker): %w", err)
	}
	return bin, nil
}

// meanRelCI returns the mean CI half-width relative to the estimate across
// groups, or +Inf before any group has a usable estimate.
func meanRelCI(res wj.Result) float64 {
	var sum float64
	var n int
	for a, est := range res.Estimates {
		if est <= 0 {
			continue
		}
		sum += res.CI[a] / est
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

// walksToTargetCI drives run with progressive snapshots until the mean
// relative CI half-width reaches target, and returns the walk count at that
// snapshot (or the final walk count if the budget expires first).
func walksToTargetCI(run func(exec.Options) (wj.Result, error), target float64) (int64, error) {
	at := int64(-1)
	res, err := run(exec.Options{
		Budget:   8 * time.Second,
		Interval: 20 * time.Millisecond,
		Batch:    128,
		OnSnapshot: func(p exec.Progress) bool {
			if at < 0 && p.Snapshot.Walks > 0 && meanRelCI(p.Snapshot) <= target {
				at = p.Snapshot.Walks
				return false
			}
			return true
		},
	})
	if at >= 0 {
		return at, nil // the early stop may surface as a suppressed cancel; the target was reached
	}
	if err != nil {
		return 0, err
	}
	return res.Walks, nil
}

func meanRelErr(est map[rdf.ID]float64, exact map[rdf.ID]int64) float64 {
	var sum float64
	var n int
	for a, ex := range exact {
		if ex == 0 {
			continue
		}
		sum += math.Abs(est[a]-float64(ex)) / float64(ex)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// runDistBench measures distributed scatter-gather Audit Join over fleets of
// 1, 2 and 4 kgworker processes against the in-process scatter baseline on
// the same 4-shard DBpedia-sim set: fixed-budget walk throughput,
// walks-to-target-CI, estimate error, and wire bytes. Seeds and allocation
// match shard.RunScatter, so the distributed estimates are the baseline's
// estimates and the throughput delta isolates the wire.
func runDistBench(w io.Writer, outPath string, scale float64, seed, walks int64, workerBin string) error {
	const shards = 4
	const targetCI = 0.5

	cfg := kggen.DBpediaSim(scale)
	g, _, err := kggen.Generate(cfg)
	if err != nil {
		return err
	}
	st := index.Build(g)
	pl, exact := shardChainPlan(g, st)
	if pl == nil {
		return fmt.Errorf("distbench: no chain plan with a non-empty answer at scale %g", scale)
	}
	ds, err := kgexplore.FromStore(st, kgexplore.RootThing)
	if err != nil {
		return err
	}
	sds, err := ds.BuildSharded(shards, "")
	if err != nil {
		return err
	}
	// One walk order for both sides, chosen from the set-level statistics:
	// the fleet's coordinator would otherwise plan from its copy of shard 0,
	// and the comparison below is only the wire if both run the same plan.
	pl = sds.PlanWalk(pl)
	dir, err := os.MkdirTemp("", "kgdistbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	manifest := filepath.Join(dir, "set.kgm")
	if _, err := sds.WriteShardedSnapshots(manifest, cfg.Name); err != nil {
		return err
	}

	report := distBenchReport{
		Dataset:    cfg.Name,
		Scale:      scale,
		Triples:    g.Len(),
		Shards:     shards,
		Walks:      walks,
		Seed:       seed,
		TargetCI:   targetCI,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	fmt.Fprintf(w, "distbench: %s scale %g, %d triples in %d shards, %d walks, %d groups exact\n",
		cfg.Name, scale, g.Len(), shards, walks, len(exact))

	// In-process baseline: same set, same plan, same seed.
	start := time.Now()
	res, _, err := sds.RunScatter(context.Background(), pl,
		shard.ScatterOptions{Seed: seed}, exec.Options{MaxWalks: walks, Batch: 256})
	if err != nil {
		return err
	}
	base := distBenchRow{
		Workers:    0,
		Walks:      res.Walks,
		ElapsedNs:  time.Since(start).Nanoseconds(),
		MeanRelErr: meanRelErr(res.Estimates, exact),
	}
	base.WalksPerSec = float64(base.Walks) / (float64(base.ElapsedNs) / 1e9)
	base.WalksToTargetCI, err = walksToTargetCI(func(xopts exec.Options) (wj.Result, error) {
		r, _, err := sds.RunScatter(context.Background(), pl,
			shard.ScatterOptions{Seed: seed}, xopts)
		return r, err
	}, targetCI)
	if err != nil {
		return err
	}
	report.Baseline = base
	fmt.Fprintf(w, "  in-process %10.0f walks/s  %7d walks to CI<=%.2f  mean rel err %.4f\n",
		base.WalksPerSec, base.WalksToTargetCI, targetCI, base.MeanRelErr)

	if workerBin == "" {
		if workerBin, err = buildWorkerBin(dir); err != nil {
			return err
		}
	}

	for _, n := range []int{1, 2, 4} {
		row, err := runDistFleet(workerBin, manifest, shards, n, pl, exact, seed, walks, targetCI)
		if err != nil {
			return err
		}
		report.Rows = append(report.Rows, row)
		fmt.Fprintf(w, "  N=%d workers %10.0f walks/s  %7d walks to CI<=%.2f  mean rel err %.4f  wire %d/%d B in/out\n",
			n, row.WalksPerSec, row.WalksToTargetCI, targetCI, row.MeanRelErr, row.WireInBytes, row.WireOutBytes)
	}

	if r1 := report.Rows[0].WalksPerSec; r1 > 0 {
		report.ThroughputRatio2v1 = report.Rows[1].WalksPerSec / r1
	}
	if report.Baseline.WalksPerSec > 0 {
		report.DistVsLocal = report.Rows[len(report.Rows)-1].WalksPerSec / report.Baseline.WalksPerSec
	}
	report.CPULimited = report.NumCPU < 3 // 2 workers + coordinator need 3 runnable threads
	fmt.Fprintf(w, "  2 workers vs 1: throughput ratio %.2fx; widest fleet vs in-process: %.2fx\n",
		report.ThroughputRatio2v1, report.DistVsLocal)
	if report.CPULimited {
		fmt.Fprintf(w, "  note: %d CPUs < 3, worker processes time-slice; ratios are not parallel speedups\n",
			report.NumCPU)
	}

	report.PeakRSSBytes = peakRSSBytes()
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", outPath)
	return nil
}

// runDistFleet spawns n kgworker processes over the manifest, runs the
// fixed-budget scatter and the walks-to-target-CI run through a fresh
// coordinator, and tears the fleet down.
func runDistFleet(bin, manifest string, shards, n int, pl *query.Plan, exact map[rdf.ID]int64, seed, walks int64, targetCI float64) (distBenchRow, error) {
	row := distBenchRow{Workers: n}
	procs := make([]*workerProc, 0, n)
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		p, err := spawnWorker(bin, manifest, i%shards)
		if err != nil {
			return row, err
		}
		procs = append(procs, p)
		addrs = append(addrs, p.addr)
	}
	dds, err := kgexplore.DialDistDataset(context.Background(), manifest, addrs)
	if err != nil {
		return row, err
	}
	defer dds.Close()

	start := time.Now()
	res, rstats, err := dds.RunDist(context.Background(), pl,
		dist.RunOptions{Seed: seed}, exec.Options{MaxWalks: walks, Batch: 256})
	if err != nil {
		return row, err
	}
	row.ElapsedNs = time.Since(start).Nanoseconds()
	row.Walks = res.Walks
	row.WalksPerSec = float64(res.Walks) / (float64(row.ElapsedNs) / 1e9)
	row.MeanRelErr = meanRelErr(res.Estimates, exact)
	row.WireInBytes = rstats.WireInBytes
	row.WireOutBytes = rstats.WireOutBytes
	row.Retries = rstats.Retries

	row.WalksToTargetCI, err = walksToTargetCI(func(xopts exec.Options) (wj.Result, error) {
		r, _, err := dds.RunDist(context.Background(), pl, dist.RunOptions{Seed: seed}, xopts)
		return r, err
	}, targetCI)
	return row, err
}
