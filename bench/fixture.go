package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"kgexplore/internal/explore"
	"kgexplore/internal/index"
	"kgexplore/internal/rdf"
	"kgexplore/internal/snap"
)

// dirs locates everything the harness reads or writes. All of it sits inside
// the checkout: binaries and per-run scratch under .bench_build, results
// under bench/out, ground truth under bench/.cache.
type dirs struct {
	root  string // checkout root (holds go.mod of module kgexplore)
	bin   string // built kgserver / kgsnap
	run   string // this run's scratch (.kgs, WAL, livedir); removed on exit
	out   string
	cache string
}

// findRoot is the checkout root: run.sh names it, and under `go test` or a
// bare `go run` it is the directory above the working directory that holds
// module kgexplore's go.mod.
func findRoot() (string, error) {
	if root := os.Getenv("KGBENCH_ROOT"); root != "" {
		return root, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module kgexplore\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module kgexplore above the working directory")
		}
		dir = parent
	}
}

func newDirs() (*dirs, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	d := &dirs{
		root:  root,
		bin:   filepath.Join(root, ".bench_build", "bin"),
		out:   filepath.Join(root, "bench", "out"),
		cache: filepath.Join(root, "bench", ".cache"),
	}
	for _, p := range []string{d.bin, d.out, d.cache} {
		if err := os.MkdirAll(p, 0o755); err != nil {
			return nil, err
		}
	}
	d.run, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	return d, err
}

// buildBinaries compiles the programs under test from the checkout's source.
func (d *dirs) buildBinaries() error {
	cmd := exec.Command("go", "build", "-o", d.bin+string(os.PathSeparator), "./cmd/kgserver", "./cmd/kgsnap")
	cmd.Dir = d.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build kgserver kgsnap: %w", err)
	}
	return nil
}

// children tracks every server the harness started, so a failure or an
// interrupt can stop them all and wait for each.
var children struct {
	sync.Mutex
	live map[*server]struct{}
}

func killChildren() {
	children.Lock()
	live := children.live
	children.live = nil
	children.Unlock()
	for s := range live {
		s.kill()
	}
}

// server is one spawned kgserver child.
type server struct {
	cmd     *exec.Cmd
	exited  chan struct{} // closed once Wait has returned
	base    string        // http://127.0.0.1:port
	logPath string
	args    []string // as given to startServer, without -addr
	dir     string   // the set-up's own directory: snapshot, WAL, livedir
	kgs     string   // the snapshot the set-up built
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns kgserver with args (plus a free -addr) and waits for the
// first 200 on /healthz.
func (d *dirs) startServer(client *http.Client, args []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logPath := filepath.Join(d.run, fmt.Sprintf("kgserver-%d.log", port))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(d.bin, "kgserver"), append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, exited: make(chan struct{}), base: "http://" + addr, logPath: logPath, args: args}
	go func() {
		_ = cmd.Wait() // "signal: killed" is how every child of ours ends
		close(s.exited)
	}()
	children.Lock()
	if children.live == nil {
		children.live = map[*server]struct{}{}
	}
	children.live[s] = struct{}{}
	children.Unlock()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			deadline = time.Time{} // died during start-up; report its log
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.kill()
	logs, _ := os.ReadFile(logPath)
	return nil, fmt.Errorf("kgserver %v never became healthy:\n%s", args, logs)
}

// procUsage is what the kernel accounted to an exited child.
type procUsage struct {
	maxRSSMiB float64
	cpuS      float64
}

// kill stops the child (SIGKILL — also the crash the durability check
// needs), waits for it and returns its resource usage. Peak memory is the
// child's VmHWM read just before the kill: ru_maxrss would start from the
// harness's own size at fork time, which is larger than a small server.
func (s *server) kill() procUsage {
	var u procUsage
	if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid)); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kib, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				u.maxRSSMiB = kib / 1024
			}
		}
	}
	_ = s.cmd.Process.Kill() // fails only when the child has already exited
	<-s.exited
	children.Lock()
	delete(children.live, s)
	children.Unlock()
	if ps := s.cmd.ProcessState; ps != nil {
		u.cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
	}
	return u
}

func (s *server) healthz(client *http.Client) (map[string]any, error) {
	resp, err := client.Get(s.base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return h, nil
}

// runKgsnap runs one kgsnap sub-command to completion.
func (d *dirs) runKgsnap(args ...string) error {
	cmd := exec.Command(filepath.Join(d.bin, "kgsnap"), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("kgsnap %v: %w\n%s", args, err, out)
	}
	return nil
}

// fixture is the harness's own in-process view of the snapshot the server
// serves: requests and ground truth are derived from it.
type fixture struct {
	path   string
	loaded *snap.Loaded
	store  *index.Store
	schema explore.Schema
	crc    uint32 // CRC-32C of the SPO triples and the dictionary size
}

func loadFixture(path string) (*fixture, error) {
	l, err := snap.LoadFile(path, snap.Options{Mode: snap.ModeAuto})
	if err != nil {
		return nil, fmt.Errorf("load fixture %s: %w", path, err)
	}
	schema, err := explore.SchemaOf(l.Store.Dict(), rdf.OWLThing)
	if err != nil {
		l.Close()
		return nil, err
	}
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	var buf [12]byte
	for _, t := range l.Store.Triples(index.SPO) {
		binary.LittleEndian.PutUint32(buf[0:], uint32(t.S))
		binary.LittleEndian.PutUint32(buf[4:], uint32(t.P))
		binary.LittleEndian.PutUint32(buf[8:], uint32(t.O))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(l.Store.Dict().Len()))
	h.Write(buf[:4])
	return &fixture{path: path, loaded: l, store: l.Store, schema: schema, crc: h.Sum32()}, nil
}

func (f *fixture) close() { f.loaded.Close() }

// label is how the server names a term on the wire (ChartBar.Category).
func (f *fixture) label(id rdf.ID) string { return f.store.Dict().Term(id).Value }

func (f *fixture) labelled(m map[rdf.ID]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for id, v := range m {
		out[f.label(id)] = v
	}
	return out
}

// setUp is the program's own set-up, timed as setup_s: generate the graph,
// build the index and write the snapshot (kgsnap build), start kgserver on
// it, wait for the first healthy answer, then five warm-up requests. Each
// set-up works in a directory of its own, so no server ever finds another's
// WAL or compacted bases.
func (d *dirs) setUp(ctx context.Context, client *http.Client, w *workload) (*server, time.Duration, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(d.run, w.Name+"-")
	if err != nil {
		return nil, 0, err
	}
	kgs := filepath.Join(dir, "fixture.kgs")
	if err := d.runKgsnap("build", "-gen", "dbpedia", "-scale", fmt.Sprint(w.Scale), "-out", kgs); err != nil {
		return nil, 0, err
	}
	args, err := w.serverArgs(dir, kgs)
	if err != nil {
		return nil, 0, err
	}
	srv, err := d.startServer(client, args)
	if err != nil {
		return nil, 0, err
	}
	srv.dir, srv.kgs = dir, kgs
	for i := 0; i < 5; i++ {
		if err := warmUp(ctx, client, srv); err != nil {
			srv.discard()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return srv, time.Since(start), nil
}

// discard kills the server and removes its directory.
func (s *server) discard() procUsage {
	u := s.kill()
	_ = os.RemoveAll(s.dir) // scratch; the run directory is removed on exit anyway
	return u
}

// warmUp is one short root-level chart: it touches the root spans, compiles
// a plan and exercises the session and JSON paths once.
func warmUp(ctx context.Context, client *http.Client, srv *server) error {
	id, err := newSession(ctx, client, srv.base)
	if err != nil {
		return err
	}
	body := `{"op":"subclass","engine":"aj","budgetMs":20,"topN":10}`
	status, _, err := post(ctx, client, srv.base+"/api/session/"+id+"/chart", []byte(body))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("warm-up chart: HTTP %d", status)
	}
	return nil
}
