// Command benchmark is the repo's one performance instrument: four
// workloads over the real stack deployed in-process, four end-to-end
// metrics with regression bounds, a per-layer account (counters,
// stand-alone layer timings, a ladder of real runs, and spans from a
// traced pass), all taken from outside the program. See README.md.
//
//	go run -C benchmark . --workload write_mem --seed 1 --seconds 18 --trace 0   # one run (the driver's form)
//	go run -C benchmark .                                                        # every workload, untraced + traced
//	go run -C benchmark . -selfcheck                                             # the suite twice, compared to the bounds
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// result is the last line a single run prints: the driver's contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1: also run the ladder, the layer timings and the traced pass, and report the per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced suite twice and compare every end-to-end metric against its bound")
	contract := flag.Bool("contract", false, "print BENCHMARK.json and exit")
	out := flag.String("out", "out", "directory for trace files")
	flag.Parse()

	var err error
	switch {
	case *contract:
		err = printContract()
	case *name != "":
		err = single(*name, *seed, *seconds, *trace == 1, *out)
	case *selfcheck:
		err = selfCheck(*seed, *seconds)
	default:
		err = suite(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// single runs one workload in this process and prints env, every metric
// by name with its unit, and the result line.
func single(name string, seed int64, seconds float64, trace bool, outDir string) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %v: a run measures for at least a second", seconds)
	}
	procs, note := pinProcs()
	p := planFor(seconds, seed, trace)
	envLine, err := json.Marshal(readEnv(procs, note, seed, seconds, p))
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envLine)

	o := runWorkload(w, p, outDir)
	defs, shown := endToEnd, endToEnd
	if trace {
		defs, shown = perLayer, append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	res := result{Correct: o.correct(), Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: make(map[string]metricValue)}
	for _, def := range defs {
		res.Metrics[def.Name] = metricValue{o.metrics[def.Name], def.Unit}
	}
	printMetrics(o, shown)
	for _, problem := range o.problems {
		fmt.Printf("PROBLEM %s: %s\n", w.name, problem)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !o.correct() {
		return fmt.Errorf("%s: run invalid (%d problems)", w.name, len(o.problems))
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func printMetrics(o *outcome, defs []metricDef) {
	fmt.Printf("%s: failed_frac %.6f (%d of %d), latency_p50_ms from %d samples, setup_s from %d set-ups\n",
		o.workload, o.failedFrac(), o.failed, o.attempted, o.samples, o.setups)
	fmt.Printf("  saturate sub-windows: %.0f req/s, %.1f us/req\n", o.subRps, o.subCPUUs)
	for _, def := range defs {
		fmt.Printf("  %-36s %14.4f %s\n", def.Name, o.metrics[def.Name], def.Unit)
	}
	if o.traceFile != "" {
		fmt.Printf("  trace written to %s\n", o.traceFile)
	}
}

// child runs one workload in a fresh process of this binary, so heap,
// RSS and goroutines do not leak from one workload into the next, and
// parses the result line. Its other output is passed through.
func child(name string, seed int64, seconds float64, trace bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	// A run is its phases plus set-up and teardown; a child still going
	// at twice that plus a minute is killed.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(2*seconds+60)*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(btoi(trace)))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	for _, l := range lines[:len(lines)-1] {
		fmt.Printf("%s\n", l)
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, errors.Join(fmt.Errorf("%s: no result line: %w", name, err), runErr)
	}
	return res, runErr
}

// suite runs every workload untraced and then traced.
func suite(seed int64, seconds float64) error {
	var failed []error
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			if _, err := child(w.name, seed, seconds, trace); err != nil {
				failed = append(failed, fmt.Errorf("%s (trace %d): %w", w.name, btoi(trace), err))
			}
		}
	}
	return errors.Join(failed...)
}

// selfCheck runs the untraced suite twice on this commit and compares
// every end-to-end metric of every workload: two runs of the same code
// must agree within the bound the benchmark holds later changes to.
func selfCheck(seed int64, seconds float64) error {
	var runs [2]map[string]result
	for i := range runs {
		runs[i] = make(map[string]result)
		for _, w := range workloads() {
			res, err := child(w.name, seed, seconds, false)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			runs[i][w.name] = res
		}
	}
	over := 0
	fmt.Printf("%-14s %-16s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads() {
		first, second := runs[0][w.name], runs[1][w.name]
		for _, def := range endToEnd {
			a, b := first.Metrics[def.Name].Value, second.Metrics[def.Name].Value
			diff := (b - a) / a
			verdict := ""
			if diff > def.Bound || diff < -def.Bound {
				over++
				verdict = "  OVER"
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %+7.1f%% %6.0f%%%s\n", w.name, def.Name, a, b, diff*100, def.Bound*100, verdict)
		}
		fmt.Printf("%-14s %-16s %14d %14d\n", w.name, "failed", first.Failed, second.Failed)
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d metric/workload pairs differ by more than their bound", over)
	}
	return nil
}

// printContract prints BENCHMARK.json from the metric and workload
// lists, so the file cannot drift from the program.
func printContract() error {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []workloadDef
	for _, w := range workloads() {
		ws = append(ws, workloadDef{w.name, w.why})
	}
	data, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "perpetualws/benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		Workloads:  ws,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", data)
	return nil
}
