package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// env is the hardware-honesty block printed with every run: a figure
// from this benchmark means nothing without the machine it came from.
type env struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	ProcsNote  string  `json:"gomaxprocs_note,omitempty"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Governor   string  `json:"cpu_governor"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Phases     string  `json:"phases"`
	// The memnet workloads run with no injected link delay and the TCP
	// workload over host loopback, so every latency here is processor
	// time only, never a network's.
	InjectedDelayUs int    `json:"injected_link_delay_us"`
	Network         string `json:"network"`
}

// wantProcs is the scheduler width every figure is taken at.
const wantProcs = 2

// pinProcs pins GOMAXPROCS to wantProcs, or to 1 (and says so) on a
// machine with fewer CPUs: the harness never runs with more scheduler
// threads than CPUs, which is oversubscription noise, not data. There
// is no flag to ask for more.
func pinProcs() (procs int, note string) {
	procs = wantProcs
	if n := runtime.NumCPU(); n < procs {
		procs = 1
		note = "fell back to 1: fewer than 2 CPUs available"
	}
	runtime.GOMAXPROCS(procs)
	return procs, note
}

func readEnv(procs int, note string, seed int64, seconds float64, p plan) env {
	return env{
		CPUModel:   firstField("/proc/cpuinfo", "model name"),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		ProcsNote:  note,
		GoVersion:  runtime.Version(),
		Kernel:     readTrimmed("/proc/sys/kernel/osrelease"),
		Governor:   readTrimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
		Commit:     commit(),
		Seed:       seed,
		Seconds:    seconds,
		Phases:     p.String(),
		Network:    "memnet with zero injected delay; TCP is host loopback",
	}
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unreadable"
	}
	return strings.TrimSpace(string(b))
}

// firstField returns the value of the first "key : value" line of path.
func firstField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unreadable"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit asks git; a checkout that is not a repository (the driver's)
// has none to report.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
