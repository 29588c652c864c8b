package main

import (
	"fmt"
	"math"
	"time"
)

// outcome is one run of one workload: every metric by name, the request
// accounting, and anything that invalidates the run.
type outcome struct {
	workload  string
	metrics   map[string]float64
	attempted int64
	failed    int64
	samples   int      // paced latency sample count behind latency_p50_ms
	setups    int      // set-ups behind setup_s
	problems  []string // oracle failures, watchdog expiries, view changes
	// The saturate sub-windows behind the two medians, for the reader.
	subRps, subCPUUs []float64
	traceFile        string
}

func (o *outcome) correct() bool { return len(o.problems) == 0 }

func (o *outcome) failedFrac() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed) / float64(o.attempted)
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// runWorkload runs every phase of p on w. It always returns what it
// measured; a phase that fails is recorded as a problem and the later
// phases that need its deployment are skipped.
func runWorkload(w *workload, p plan, traceDir string) *outcome {
	o := &outcome{workload: w.name, metrics: make(map[string]float64)}
	m := o.metrics
	for _, def := range perLayer {
		m[def.Name] = 0
	}

	// Set-up, repeated while p.setups lasts (at least three times, at most
	// 25; once when p.setups is 0). The last deployment is the one measured.
	var dep *deployment
	var setups []float64
	for start := time.Now(); ; {
		d, took, err := deploy(w, p.seed, nil)
		if err != nil {
			o.problem("%v", err)
			return o
		}
		dep = d
		setups = append(setups, took.Seconds())
		if n := len(setups); p.setups == 0 || n >= 25 || (n >= 3 && time.Since(start) >= p.setups) {
			break
		}
		dep.cluster.Stop()
	}
	m["setup_s"] = median(setups)
	o.setups = len(setups)

	sat, err := saturate(dep, w, p.saturate)
	if err != nil {
		o.problem("saturate: %v", err)
	}
	var pac *phaseOutcome
	if err == nil {
		if pac, err = paced(dep, w, p.paced); err != nil {
			o.problem("paced: %v", err)
		}
	}
	m["runtime.goroutines_end"] = float64(goroutines())
	m["runtime.peak_rss_mb"] = peakRSSMB()
	if err == nil {
		if err := dep.gen.finish(); err != nil {
			o.problem("oracle: %v", err)
		}
	}
	dep.cluster.Stop()

	for _, ph := range []*phaseOutcome{sat, pac} {
		if ph != nil {
			o.attempted += ph.obs.attempted.Load()
			o.failed += ph.obs.attempted.Load() - ph.obs.correct.Load()
		}
	}

	rps, cpuUs := subWindowRates(sat.bounds)
	o.subRps, o.subCPUUs = rps, cpuUs
	m["throughput_rps"] = median(rps)
	m["cpu_us_per_req"] = median(cpuUs)
	m["client.throughput_iqr_pct"] = iqrPct(rps)
	m["client.sat_latency_p50_ms"] = percentileMs(sat.obs.latencies(), 0.5)
	if sat.elapsed > 0 {
		m["client.cpu_util_cores"] = (sat.after.cpu - sat.before.cpu).Seconds() / sat.elapsed.Seconds()
	}
	counterMetrics(m, sat.before, sat.after, sat.obs.correct.Load())
	if m["clbft.view_changes"] > 0 {
		o.problem("%v view changes: the run measured recovery, not the steady state", m["clbft.view_changes"])
	}
	if pac != nil {
		lat := pac.obs.latencies()
		o.samples = len(lat)
		m["latency_p50_ms"] = percentileMs(lat, 0.5)
		m["client.latency_p99_ms"] = percentileMs(lat, 0.99)
		m["client.commit_latency_p50_ms"] = percentileMs(pac.obs.commitLatencies(), 0.5)
		m["client.sched_late_max_ms"] = float64(pac.obs.lateMax.Load()) / 1e6
		if n := pac.obs.correct.Load(); n > 0 {
			m["client.paced_cpu_us_per_req"] = float64((pac.after.cpu - pac.before.cpu).Microseconds()) / float64(n)
		}
	}
	if o.failed > 0 {
		o.problem("%d of %d requests failed (fault, wrong answer, refused, or over the latency limit)", o.failed, o.attempted)
		for _, ph := range []*phaseOutcome{sat, pac} {
			if ph != nil {
				for _, f := range ph.obs.failures {
					o.problem("failed: %s", f)
				}
			}
		}
	}

	if p.traced > 0 && o.correct() {
		tracedPhases(o, w, p, traceDir)
	}
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.problem("metric %s is not finite", name)
			m[name] = 0
		}
	}
	return o
}

// tracedPhases is the part only a traced run makes: the ladder, the
// stand-alone layer timings, and the traced pass over a fresh
// deployment whose handlers carry the span-recording wrappers.
func tracedPhases(o *outcome, w *workload, p plan, traceDir string) {
	m := o.metrics
	reqEnv, replyEnv := w.shapes()
	reqBytes, _ := reqEnv.Marshal()
	replyBytes, _ := replyEnv.Marshal()

	var err error
	if m["clbft.cpu_us_per_op"], err = clbftRung(w.window, reqBytes, p.rung); err != nil {
		o.problem("%v", err)
	}
	if !w.skipPerpetualRung {
		if m["perpetual.cpu_us_per_req"], m["perpetual.throughput_rps"], err = perpetualRung(w, len(reqBytes), len(replyBytes), p.seed, p.rung); err != nil {
			o.problem("%v", err)
		}
		m["core.overhead_us_per_req"] = m["cpu_us_per_req"] - m["perpetual.cpu_us_per_req"]
	}
	if err := microTimings(m, w, p.seed, p.micro); err != nil {
		o.problem("layer timings: %v", err)
	}

	tr := newTracer()
	dep, _, err := deploy(w, p.seed, tr)
	if err != nil {
		o.problem("traced pass: %v", err)
		return
	}
	obs := &observer{}
	err = guard(p.traced, dep.cluster.Stop, func() error {
		return dep.gen.open(w.pacedRate, p.traced, pacedLimit, obs)
	})
	dep.cluster.Stop()
	if err != nil {
		o.problem("traced pass: %v", err)
		return
	}
	if bad := obs.attempted.Load() - obs.correct.Load(); bad > 0 {
		o.problem("traced pass: %d of %d requests failed, first: %v", bad, obs.attempted.Load(), obs.failures)
	}
	spans, chain, total := tr.analyse(w)
	spanMetrics(m, chain, total)
	if base := m["latency_p50_ms"]; base > 0 {
		m["trace.overhead_pct"] = (percentileMs(obs.latencies(), 0.5) - base) / base * 100
	}
	if o.traceFile, err = writeTrace(traceDir, w, spans); err != nil {
		o.problem("%v", err)
	}
}

// defaultSeconds is the run length BENCHMARK.json declares.
const defaultSeconds = 18

func (p plan) String() string {
	return fmt.Sprintf("setups=%v saturate=%v (%d sub-windows) paced=%v traced=%v rung=%v timing=%v",
		p.setups.Round(time.Millisecond), p.saturate.Round(time.Millisecond), subWindows, p.paced.Round(time.Millisecond),
		p.traced.Round(time.Millisecond), p.rung.Round(time.Millisecond), p.micro.Round(time.Millisecond))
}
