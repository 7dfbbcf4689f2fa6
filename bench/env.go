package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// environment records where a run was taken, so two reports can be
// told apart before their numbers are compared.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1min"`
}

func readEnvironment(benchDir string) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: pinProcs(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout (the benchmark driver's copy) there is no
	// commit to name.
	if out, err := exec.Command("git", "-C", benchDir, "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			env.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return env
}

func (e environment) print(w io.Writer) {
	fmt.Fprintf(w, "environment: nproc=%d GOMAXPROCS=%d cpu=%q %s commit=%s loadavg1=%.2f\n",
		e.NProc, e.GOMAXPROCS, e.CPUModel, e.GoVersion, e.Commit, e.LoadAvg1)
}

// warn notes a machine already busy enough to disturb timings.
func (e environment) warn(w io.Writer) {
	if e.LoadAvg1 > 0.5*float64(e.NProc) {
		fmt.Fprintf(w, "bench: warning: 1-min load average %.2f exceeds half of %d CPUs; timings will be noisy\n", e.LoadAvg1, e.NProc)
	}
}
