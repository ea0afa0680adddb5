package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// envInfo is the fingerprint every output file carries, so that two result
// files can be told apart by where and on what they were measured.
type envInfo struct {
	NProc            int     `json:"nproc"`
	ServerGOMAXPROCS int     `json:"serverGomaxprocs"` // the child keeps Go's default
	GoVersion        string  `json:"goVersion"`
	CPUModel         string  `json:"cpuModel"`
	GitCommit        string  `json:"gitCommit"`
	LoadAvg1         float64 `json:"loadAvg1"`
}

func fingerprint(root string) envInfo {
	e := envInfo{
		NProc:            runtime.NumCPU(),
		ServerGOMAXPROCS: runtime.NumCPU(),
		GoVersion:        runtime.Version(),
		CPUModel:         cpuModel(),
		GitCommit:        "unknown", // the driver's checkout is not a git repository
		LoadAvg1:         loadAvg1(),
	}
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		e.ServerGOMAXPROCS = v // inherited by the child
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadAvg1 is the one-minute load average, 0 where /proc does not give it.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // 0 on a malformed file
	return v
}
