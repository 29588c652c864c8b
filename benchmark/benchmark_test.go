package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestWorkloadsReportEveryMetric runs every workload through every
// phase with 300 ms phases: each named metric must come out finite,
// the end-to-end ones non-zero, no request may fail, and the traced
// pass must leave its trace file.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	short := plan{
		seed: 7, setups: time.Millisecond,
		saturate: 300 * time.Millisecond, paced: 300 * time.Millisecond, traced: 300 * time.Millisecond,
		rung: 200 * time.Millisecond, micro: time.Millisecond,
	}
	dir := t.TempDir()
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			o := runWorkload(w, short, dir)
			for _, p := range o.problems {
				t.Errorf("problem: %s", p)
			}
			if o.failedFrac() != 0 {
				t.Errorf("failed_frac = %v (%d of %d), want 0", o.failedFrac(), o.failed, o.attempted)
			}
			for _, def := range endToEnd {
				if v, ok := o.metrics[def.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v (present %v), want finite and > 0", def.Name, v, ok)
				}
			}
			for _, def := range perLayer {
				if v, ok := o.metrics[def.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v), want finite", def.Name, v, ok)
				}
			}
			if len(o.metrics) != len(endToEnd)+len(perLayer) {
				t.Errorf("%d metrics reported, %d declared", len(o.metrics), len(endToEnd)+len(perLayer))
			}
			if _, err := os.Stat(o.traceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
			// The ladder must climb wherever all three rungs exist.
			if !w.skipPerpetualRung {
				c, p, e := o.metrics["clbft.cpu_us_per_op"], o.metrics["perpetual.cpu_us_per_req"], o.metrics["cpu_us_per_req"]
				if !(c > 0 && p > 0) {
					t.Errorf("ladder rungs clbft=%v perpetual=%v, want both > 0 (end-to-end %v)", c, p, e)
				}
			}
		})
	}
}

// TestContractMatchesProgram keeps BENCHMARK.json and the program's
// metric and workload lists from drifting apart.
func TestContractMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's list:\n file %v\n prog %v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's list")
	}
	ws := workloads()
	if len(file.Workloads) != len(ws) {
		t.Fatalf("%d workloads in the file, %d in the program", len(file.Workloads), len(ws))
	}
	for i, w := range ws {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, program %q", i, file.Workloads[i].Name, w.name)
		}
	}
}

func TestMedianSubWindow(t *testing.T) {
	// Five 2 s sub-windows; the fourth holds a scheduler stall (a third
	// of the replies for the same CPU): the median must not move.
	t0 := time.Unix(0, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	bounds := []subWindow{
		{at(0), 0, 0},
		{at(2), 2000, 500 * time.Millisecond},
		{at(4), 4000, 1000 * time.Millisecond},
		{at(6), 6000, 1500 * time.Millisecond},
		{at(8), 6700, 1700 * time.Millisecond},
		{at(10), 8700, 2200 * time.Millisecond},
	}
	rps, cpuUs := subWindowRates(bounds)
	wantRps := []float64{1000, 1000, 1000, 350, 1000}
	if !reflect.DeepEqual(rps, wantRps) {
		t.Errorf("rps = %v, want %v", rps, wantRps)
	}
	if got := median(rps); got != 1000 {
		t.Errorf("median sub-window throughput = %v, want 1000", got)
	}
	if got := median(cpuUs); got != 250 {
		t.Errorf("median sub-window CPU = %v us, want 250", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// Quartiles of 1..5 are 2 and 4 around a median of 3.
	if got := iqrPct([]float64{1, 2, 3, 4, 5}); math.Abs(got-200.0/3) > 1e-9 {
		t.Errorf("iqrPct = %v, want 66.67", got)
	}
}

func TestPercentile(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	s := sortedDurations(ds)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentileMs(s, c.q); got != c.want {
			t.Errorf("percentileMs(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentileMs(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestDueTimeLatency(t *testing.T) {
	start := time.Unix(100, 0)
	if got := dueTime(start, 0, 500); !got.Equal(start) {
		t.Errorf("request 0 due %v, want the start", got)
	}
	if got := dueTime(start, 750, 500).Sub(start); got != 1500*time.Millisecond {
		t.Errorf("request 750 at 500 req/s due after %v, want 1.5s", got)
	}
	// A generator that stalls 30 ms and then sends three due requests
	// back to back charges the stall to each of them: a reply 1 ms after
	// the late send is 31, 29 and 27 ms after its due time.
	sent := start.Add(30 * time.Millisecond)
	for k, want := range []time.Duration{31, 29, 27} {
		got := sent.Add(time.Millisecond).Sub(dueTime(start, k, 500))
		if got != want*time.Millisecond {
			t.Errorf("request %d latency from due = %v, want %v ms", k, got, want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	cases := []struct {
		name     string
		children [][2]time.Time
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one child", [][2]time.Time{{at(10), at(40)}}, 70},
		{"disjoint, given out of order", [][2]time.Time{{at(60), at(80)}, {at(10), at(40)}}, 50},
		{"overlapping children count once", [][2]time.Time{{at(10), at(50)}, {at(30), at(70)}}, 40},
		{"a child sticking out is clipped", [][2]time.Time{{at(-20), at(10)}, {at(90), at(150)}}, 80},
		{"a nested child adds nothing", [][2]time.Time{{at(10), at(90)}, {at(20), at(30)}}, 20},
	}
	for _, c := range cases {
		if got := selfTime(at(0), at(100), c.children); got != c.want*time.Microsecond {
			t.Errorf("%s: self time %v, want %v us", c.name, got, c.want)
		}
	}
}
