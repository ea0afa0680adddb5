// Command kgserver serves the exploration system of the paper's Fig. 1 over
// HTTP: a JSON API plus a minimal built-in web UI for interactive bar-chart
// exploration backed by Audit Join.
//
// Usage:
//
//	kgserver -gen dbpedia -scale 0.1 -addr :8080
//	kgserver -load data.nt -addr :8080
//	kgserver -snapshot data.kgs -addr :8080      # mmap'ed store snapshot
//	kgserver -snapshot data.kgm -addr :8080      # sharded store set (kgsnap shard)
//	kgserver -gen dbpedia -shards 4 -addr :8080  # shard in-process, scatter-gather aj
//	kgserver -snapshot data.kgm -workers a:7070,b:7070 -addr :8080
//	                                             # distributed: scatter over a kgworker fleet
//	kgserver -snapshot data.kgm -workers manifest -addr :8080
//	                                             # fleet addresses from the manifest (kgsnap shard -workers)
//	kgserver -snapshot data.kgs -live -walpath ingest.wal -addr :8080
//	                                             # live ingestion: POST /ingest, background compaction
//
// With -live the served store is an updatable overlay: POST /ingest applies
// batches of N-Triples adds and deletes (WAL-acknowledged when -walpath is
// set), charts run merged-view Audit Join over base+delta, and a background
// compactor folds the overlay into fresh snapshots without blocking either
// side:
//
//	curl -X POST localhost:8080/ingest \
//	     -d '{"add":["<s> <p> <o> ."],"delete":["<x> <p> <y> ."]}'
//
// Then open http://localhost:8080/ for the UI, or use the API:
//
//	curl -X POST localhost:8080/api/session
//	curl -X POST localhost:8080/api/session/1/chart -d '{"op":"subclass"}'
//	curl -X POST localhost:8080/api/sparql \
//	     -d '{"query":"SELECT ?c COUNT(DISTINCT ?o) WHERE { ?s <p> ?o . ?o a ?c } GROUP BY ?c"}'
//
// With -admin, the served store can be hot-swapped without a restart:
//
//	curl -X POST localhost:8080/admin/swap -d '{"path":"new.kgs"}'
//
// GET /healthz reports liveness plus store provenance (source, load mode,
// triple count, swap count).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"kgexplore"

	"kgexplore/internal/server"
)

func main() {
	gen := flag.String("gen", "dbpedia", "generate a synthetic dataset: dbpedia or lgd")
	scale := flag.Float64("scale", 0.05, "scale for -gen")
	load := flag.String("load", "", "load an N-Triples/Turtle/.kgx file instead of generating")
	snapshot := flag.String("snapshot", "", "serve a store snapshot (.kgs, see kgsnap) instead of generating")
	snapMode := flag.String("snapmode", "mmap", "how to load -snapshot: mmap (zero-copy) or copy (verified); -live always copies")
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 0, "shard the dataset in-process into N shards and serve scatter-gather Audit Join")
	partitioner := flag.String("partitioner", "", "partitioner for -shards (default "+kgexplore.DefaultPartitioner+")")
	adminOn := flag.Bool("admin", false, "expose POST /admin/swap for hot-swapping the served store")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	estimator := flag.String("estimator", "", "cardinality estimator: "+
		kgexplore.EstimatorSpan+" (default) or "+kgexplore.EstimatorSummary)
	strategy := flag.String("strategy", "", "online sampling strategy: uniform (default) or stratified "+
		"(semantic-aware stratified walk roots with Neyman allocation)")
	workers := flag.String("workers", "", "comma-separated kgworker addresses (requires -snapshot FILE.kgm); "+
		`"manifest" uses the addresses recorded in the manifest`)
	liveOn := flag.Bool("live", false, "serve an updatable overlay store: POST /ingest accepts triple batches, "+
		"background compaction folds the overlay into fresh snapshots")
	walPath := flag.String("walpath", "", "write-ahead log for -live: ingest batches are fsynced here before "+
		"they are acknowledged and replayed on restart (empty disables durability)")
	walNoSync := flag.Bool("walnosync", false, "skip the per-batch fsync on the -live WAL (durability extends "+
		"only to the OS page cache)")
	liveDir := flag.String("livedir", "", "directory for -live compaction snapshots (default: a temp directory)")
	compactEvery := flag.Duration("compactevery", 30*time.Second, "how often -live checks whether to compact")
	compactMin := flag.Int("compactmin", 10_000, "overlay size (delta adds + tombstones) that triggers a "+
		"-live background compaction")
	flag.Parse()

	switch *strategy {
	case "", "uniform", "stratified":
	default:
		fatal(fmt.Errorf("unknown -strategy %q (want uniform or stratified)", *strategy))
	}

	if *liveOn && (*workers != "" || *shards > 0 || strings.HasSuffix(*snapshot, ".kgm")) {
		fatal(fmt.Errorf("-live serves a single overlay store; it does not combine with -shards or -workers"))
	}
	if *workers != "" {
		if *snapshot == "" || !strings.HasSuffix(*snapshot, ".kgm") {
			fatal(fmt.Errorf("-workers requires -snapshot pointing at a .kgm shard manifest"))
		}
		serveDist(*snapshot, *workers, *addr, *estimator, *strategy, *adminOn, *pprofOn)
		return
	}
	if *snapshot != "" && strings.HasSuffix(*snapshot, ".kgm") {
		serveSharded(*snapshot, *snapMode, *addr, *estimator, *strategy, *adminOn, *pprofOn)
		return
	}

	var (
		ds     *kgexplore.Dataset
		prov   server.Provenance
		closer interface{ Close() error }
		err    error
	)
	start := time.Now()
	switch {
	case *snapshot != "":
		mmap, note := snapshotMmap(*snapMode, *liveOn)
		if note != "" {
			fmt.Fprintf(os.Stderr, "kgserver: %s\n", note)
		}
		ds, prov, closer, err = server.LoadDataset(*snapshot, mmap)
	case *load != "":
		ds, prov, closer, err = server.LoadDataset(*load, false)
	case *gen == "lgd":
		ds, err = kgexplore.GenerateLGDSim(*scale)
		prov = server.Provenance{Source: fmt.Sprintf("lgd-sim@%g", *scale), Kind: "generated"}
	default:
		ds, err = kgexplore.GenerateDBpediaSim(*scale)
		prov = server.Provenance{Source: fmt.Sprintf("dbpedia-sim@%g", *scale), Kind: "generated"}
	}
	if err != nil {
		fatal(err)
	}
	if prov.Triples == 0 {
		prov.Triples = ds.NumTriples()
		prov.LoadMillis = time.Since(start).Milliseconds()
	}

	var srv *server.Server
	if *liveOn {
		lds, err := ds.Live(kgexplore.LiveOptions{Closer: closer, WALPath: *walPath, NoSync: *walNoSync})
		if err != nil {
			fatal(err)
		}
		dir, err := liveCompactDir(*liveDir)
		if err != nil {
			fatal(err)
		}
		prov.Kind = "live"
		prov.Triples = lds.NumTriples() // WAL replay may have grown it
		prov.LoadMillis = time.Since(start).Milliseconds()
		srv = server.NewLive(lds, prov)
		go compactLoop(srv, lds, dir, *compactEvery, *compactMin)
	} else if *shards > 0 {
		sds, err := ds.BuildSharded(*shards, *partitioner)
		if err != nil {
			fatal(err)
		}
		if *estimator != "" {
			if err := sds.UseEstimator(*estimator); err != nil {
				fatal(err)
			}
		}
		prov.Kind = "sharded"
		prov.Shards = sds.NumShards()
		prov.LoadMillis = time.Since(start).Milliseconds()
		srv = server.NewSharded(sds, prov)
	} else {
		if *estimator != "" {
			if err := ds.UseEstimator(*estimator); err != nil {
				fatal(err)
			}
		}
		srv = server.NewWithProvenance(ds, prov, closer)
	}
	srv.Estimator = *estimator
	srv.Strategy = *strategy
	srv.EnablePprof = *pprofOn
	srv.EnableAdmin = *adminOn
	if *pprofOn {
		fmt.Fprintf(os.Stderr, "kgserver: pprof enabled at /debug/pprof/\n")
	}
	if *adminOn {
		fmt.Fprintf(os.Stderr, "kgserver: admin hot-swap enabled at POST /admin/swap\n")
	}
	mode := prov.Kind
	if prov.Mmap {
		mode += "/mmap"
	}
	if prov.Shards > 0 {
		mode += fmt.Sprintf("/%d-shards", prov.Shards)
	}
	fmt.Fprintf(os.Stderr, "kgserver: %d triples ready in %dms (%s from %s); listening on %s\n",
		prov.Triples, prov.LoadMillis, mode, prov.Source, *addr)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		fatal(err)
	}
}

// serveSharded serves a shard set from its .kgm manifest (kgsnap shard):
// per-shard .kgs snapshots are mmap'ed unless -snapmode=copy, and charts run
// scatter-gather Audit Join.
func serveSharded(path, snapMode, addr, estimator, strategy string, adminOn, pprofOn bool) {
	sds, prov, err := server.LoadShardedDataset(path, snapMode != "copy")
	if err != nil {
		fatal(err)
	}
	if estimator != "" {
		if err := sds.UseEstimator(estimator); err != nil {
			fatal(err)
		}
	}
	srv := server.NewSharded(sds, prov)
	srv.Estimator = estimator
	srv.Strategy = strategy
	srv.EnablePprof = pprofOn
	srv.EnableAdmin = adminOn
	fmt.Fprintf(os.Stderr, "kgserver: %d triples in %d shards ready in %dms (sharded from %s); listening on %s\n",
		prov.Triples, prov.Shards, prov.LoadMillis, prov.Source, addr)
	if err := http.ListenAndServe(addr, srv.Handler()); err != nil {
		fatal(err)
	}
}

// serveDist serves a shard set through a kgworker fleet: the coordinator
// scatters chart runs across the workers, /healthz polls their stats, and
// with -admin POST /admin/swap performs the epoch-coordinated fleet-wide
// hot swap.
func serveDist(manifest, workers, addr, estimator, strategy string, adminOn, pprofOn bool) {
	var addrs []string // nil = the manifest's recorded placement
	if workers != "manifest" {
		addrs = strings.Split(workers, ",")
	}
	start := time.Now()
	dds, err := kgexplore.DialDistDataset(context.Background(), manifest, addrs)
	if err != nil {
		fatal(err)
	}
	if estimator != "" {
		if err := dds.UseEstimator(estimator); err != nil {
			fatal(err)
		}
	}
	prov := server.Provenance{
		Source:     manifest,
		Kind:       "distributed",
		Triples:    dds.NumTriples(),
		Shards:     dds.NumShards(),
		Workers:    len(dds.Workers()),
		LoadMillis: time.Since(start).Milliseconds(),
	}
	srv := server.NewDist(dds, prov)
	srv.Estimator = estimator
	srv.Strategy = strategy
	srv.EnablePprof = pprofOn
	srv.EnableAdmin = adminOn
	fmt.Fprintf(os.Stderr, "kgserver: %d triples in %d shards across %d workers ready in %dms (distributed from %s); listening on %s\n",
		prov.Triples, prov.Shards, prov.Workers, prov.LoadMillis, manifest, addr)
	if err := http.ListenAndServe(addr, srv.Handler()); err != nil {
		fatal(err)
	}
}

// compactLoop is the -live background compactor: every interval it checks
// the overlay size and, past the threshold, folds base+delta into a fresh
// .kgs in dir via the external builder, adopts it, rotates the server's
// epoch so in-flight readers drain before the retired base unmaps, and
// removes the previous compaction's file. Ingest and serving never block on
// it. Errors are logged and surfaced in /healthz (lastError).
func compactLoop(srv *server.Server, lds *kgexplore.LiveDataset, dir string, every time.Duration, minOverlay int) {
	if every <= 0 {
		every = 30 * time.Second
	}
	if minOverlay < 1 {
		minOverlay = 1
	}
	var prevPath string
	for range time.Tick(every) {
		st := lds.Stats()
		if st.DeltaAdds+st.Tombstones < minOverlay {
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("base-gen%d.kgs", st.Gen))
		res, err := lds.Compact(path)
		if err != nil {
			if err != kgexplore.ErrLiveCompacting {
				fmt.Fprintf(os.Stderr, "kgserver: live compaction: %v\n", err)
			}
			continue
		}
		srv.RotateLiveEpoch(res.Retired)
		if prevPath != "" {
			os.Remove(prevPath)
		}
		prevPath = path
		fmt.Fprintf(os.Stderr, "kgserver: compacted to %s in %dms (%d residual adds, %d residual tombstones)\n",
			path, res.Millis, res.ResidualAdds, res.ResidualTombs)
	}
}

// snapshotMmap resolves how -snapshot FILE.kgs is loaded: mmap'ed unless
// -snapmode copy — or -live, whatever the mode says. A live store keeps its
// base's dictionary for good, and an mmap'ed dictionary's strings alias the
// mapping that the first compaction's epoch rotation unmaps: the next
// query to intern a term would fault. note, when non-empty, tells the
// operator the mode was overridden.
func snapshotMmap(snapMode string, live bool) (mmap bool, note string) {
	if snapMode == "copy" {
		return false, ""
	}
	if live {
		return false, "-live loads the base snapshot in copy mode (-snapmode " + snapMode +
			" ignored): the live store's dictionary must outlive the base a compaction retires"
	}
	return true, ""
}

// liveCompactDir resolves the directory compaction snapshots are written to,
// creating it at start-up: a missing -livedir would otherwise fail every
// compaction on its final rename, with nothing but a log line to say so while
// the overlay grows without bound. An empty dir selects a fresh temp
// directory.
func liveCompactDir(dir string) (string, error) {
	if dir == "" {
		d, err := os.MkdirTemp("", "kgserver-live-")
		if err != nil {
			return "", fmt.Errorf("creating a temp directory for live compaction snapshots: %w", err)
		}
		return d, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating -livedir: %w", err)
	}
	return dir, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "kgserver: %v\n", err)
	os.Exit(1)
}
