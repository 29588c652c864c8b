package main

import (
	"errors"
	"fmt"
	"time"

	"perpetualws/internal/core"
)

// plan fixes the length of every phase of one run. All of them scale
// with the --seconds a run is given; the shares are the issue's 10 s
// saturate + 8 s paced for an untraced run, and a shorter pair of
// those plus the traced pass, the ladder and the layer timings for a
// traced run.
type plan struct {
	seed     int64
	setups   time.Duration // set-up is repeated for this long; setup_s is the median
	saturate time.Duration // closed loop, split into subWindows
	paced    time.Duration // open loop
	traced   time.Duration // open loop with spans; 0 = untraced run
	rung     time.Duration // each ladder rung
	micro    time.Duration // each stand-alone layer timing
}

const (
	subWindows    = 5
	warmupReplies = 200
	// warmupNominal is generous: the warm-up takes 30-170 ms here, but a
	// race-detector build is an order of magnitude slower.
	warmupNominal = 5 * time.Second
)

func planFor(seconds float64, seed int64, trace bool) plan {
	sec := func(share float64) time.Duration {
		return time.Duration(seconds * share * float64(time.Second))
	}
	if !trace {
		return plan{seed: seed, setups: sec(1.5 / 18), saturate: sec(10.0 / 18), paced: sec(8.0 / 18)}
	}
	return plan{
		seed:     seed,
		saturate: sec(5.0 / 18), paced: sec(4.0 / 18), traced: sec(3.0 / 18),
		rung: sec(2.0 / 18), micro: sec(0.045 / 18),
	}
}

var errWatchdog = errors.New("watchdog expired")

// guard runs fn with a watchdog at twice the phase's nominal length: on
// expiry it calls stop (which must make fn return, normally by closing
// the deployment under it) and reports errWatchdog. The benchmark never
// hangs on a wedged deployment.
func guard(nominal time.Duration, stop func(), fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	limit := 2 * nominal
	if limit < 2*time.Second {
		limit = 2 * time.Second
	}
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		stop()
		<-done
		return errWatchdog
	}
}

// deployment is one started cluster with its generator, warm.
type deployment struct {
	cluster *core.Cluster
	gen     gen
}

// deploy is the set-up phase: build, start, and complete the warm-up
// requests. It returns how long that took. A non-nil tr puts the
// traced pass's recording wrappers in front of every application and
// of the client's handler.
func deploy(w *workload, seed int64, tr *tracer) (*deployment, time.Duration, error) {
	start := time.Now()
	wrap := func(_ string, app core.Application) core.Application { return app }
	if tr != nil {
		wrap = tr.wrapApp
	}
	cluster, err := core.NewClusterOver([]byte("benchmark"), w.transport, w.services(wrap)...)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	cluster.Start()
	client := cluster.Handler("client", 0)
	if tr != nil {
		client = tr.wrapClient(client)
	}
	d := &deployment{cluster: cluster, gen: w.newGen(client, seed)}
	var warm observer
	share := warmupReplies / d.gen.lanes()
	err = guard(warmupNominal, cluster.Stop, func() error {
		return d.gen.closed(w.window, func(issued int) bool { return issued < share }, saturateLimit, &warm)
	})
	if err == nil && warm.correct.Load() != warmupReplies {
		err = fmt.Errorf("%d of %d warm-up replies correct", warm.correct.Load(), warmupReplies)
	}
	if err != nil {
		cluster.Stop()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return d, time.Since(start), nil
}

// phaseOutcome is what one load phase observed.
type phaseOutcome struct {
	obs     *observer
	bounds  []subWindow // saturate only: subWindows+1 boundary samples
	before  counters
	after   counters
	elapsed time.Duration
}

// saturate runs the closed loop for d, sampling correct replies and
// process CPU at sub-window boundaries from the controller goroutine.
func saturate(dep *deployment, w *workload, d time.Duration) (*phaseOutcome, error) {
	out := &phaseOutcome{obs: &observer{}, before: readCounters(dep.cluster, w)}
	start := out.before.at
	until := start.Add(d)
	samples := make(chan []subWindow, 1)
	go func() {
		b := []subWindow{{at: start, cpu: out.before.cpu}}
		for i := 1; i <= subWindows; i++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(i) / subWindows)))
			b = append(b, subWindow{at: time.Now(), correct: out.obs.correct.Load(), cpu: processCPU()})
		}
		samples <- b
	}()
	err := guard(d, dep.cluster.Stop, func() error {
		return dep.gen.closed(w.window, func(int) bool { return time.Now().Before(until) }, saturateLimit, out.obs)
	})
	out.bounds = <-samples
	out.after = readCounters(dep.cluster, w)
	out.elapsed = out.after.at.Sub(start)
	return out, err
}

// paced runs the open loop at the workload's fixed rate for d.
func paced(dep *deployment, w *workload, d time.Duration) (*phaseOutcome, error) {
	out := &phaseOutcome{obs: &observer{}, before: readCounters(dep.cluster, w)}
	err := guard(d, dep.cluster.Stop, func() error {
		return dep.gen.open(w.pacedRate, d, pacedLimit, out.obs)
	})
	out.after = readCounters(dep.cluster, w)
	out.elapsed = out.after.at.Sub(out.before.at)
	return out, err
}
