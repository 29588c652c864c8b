package bench

import (
	"fmt"
	"sync"
	"time"

	"perpetualws/internal/core"
	"perpetualws/internal/perpetual"
	"perpetualws/internal/tpcw"
)

// The browse-heavy read-mix cell: real web traffic is dominated by
// session chatter — browsing, cart views, best-seller lists — with only
// an occasional committing action. This Figure-7-style cell drives a
// TPC-W session through a ReadPct/commit mix against a replicated store
// and measures what the session-tier read fast path buys over forcing
// the identical mix through full CLBFT agreement.

// ReadMixConfig parameterizes one read-mix cell. The shared knobs live
// in the embedded RunOpts (N is the store group size, Calls the
// interactions per run split across sessions; MaxBatch applies to the
// store group, Inflight is ignored — sessions are closed-loop).
type ReadMixConfig struct {
	RunOpts
	// ReadPct is the percentage of interactions that are declared
	// reads; default 95 (the browse-heavy mix).
	ReadPct int
	// Sessions is how many concurrent emulated-browser sessions (each
	// its own customer, sharing the one client replica) drive the mix;
	// default 4. Concurrency is where the fast path pulls away from
	// agreement: independent sessions' reads certify in parallel while
	// agreement totally orders every interaction through the primary.
	Sessions int
	// ForceAgreement routes the declared reads through full agreement —
	// the baseline the fast path is compared against.
	ForceAgreement bool
	// ReadFallback overrides the drivers' fast-path window; zero uses
	// the perpetual default.
	ReadFallback time.Duration
}

// ReadMixResult is one read-mix cell's measurements.
type ReadMixResult struct {
	// ReqPerSec is the whole mix's closed-loop throughput.
	ReqPerSec float64
	// ReadP50Ms / ReadP99Ms are read-interaction latency percentiles.
	ReadP50Ms float64
	ReadP99Ms float64
	// Stats are the client driver's fast-path counters summed over runs
	// (all zero when ForceAgreement is set: reads never enter the fast
	// path).
	Stats perpetual.ReadStats
}

// MeasureReadMix runs the read-mix cell and reports throughput, read
// latency percentiles, and the client's fast-path counters.
func MeasureReadMix(cfg ReadMixConfig) (ReadMixResult, error) {
	if cfg.N <= 0 {
		cfg.N = 4
	}
	if cfg.ReadPct <= 0 {
		cfg.ReadPct = 95
	}
	if cfg.ReadPct > 100 {
		cfg.ReadPct = 100
	}
	if cfg.Calls <= 0 {
		cfg.Calls = 400
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 4
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	var res ReadMixResult
	var tput float64
	var readLat []time.Duration
	for r := 0; r < cfg.Runs; r++ {
		t, lat, st, err := measureReadMixOnce(cfg)
		if err != nil {
			return res, fmt.Errorf("bench: read-mix cell n=%d: %w", cfg.N, err)
		}
		tput += t
		readLat = append(readLat, lat...)
		res.Stats.Attempts += st.Attempts
		res.Stats.Certified += st.Certified
		res.Stats.Fallbacks += st.Fallbacks
		res.Stats.FallbackTimeout += st.FallbackTimeout
		res.Stats.FallbackDiverged += st.FallbackDiverged
	}
	res.ReqPerSec = tput / float64(cfg.Runs)
	res.ReadP50Ms, res.ReadP99Ms = latencyPercentiles(readLat)
	return res, nil
}

// measureReadMixOnce is one warm measured run over a fresh cluster.
func measureReadMixOnce(cfg ReadMixConfig) (float64, []time.Duration, perpetual.ReadStats, error) {
	opts := benchOpts()
	opts.ReadFallback = cfg.ReadFallback
	opts.MaxBatch = cfg.MaxBatch
	cluster, err := core.NewClusterOver([]byte("bench-readmix"), cfg.Transport,
		core.ServiceDef{Name: "client", N: 1, Options: opts},
		core.ServiceDef{Name: "store", N: cfg.N,
			App: tpcw.StoreApp(tpcw.StoreConfig{Items: 100, Customers: 16}), Options: opts},
	)
	if err != nil {
		return 0, nil, perpetual.ReadStats{}, err
	}
	cluster.Start()
	defer cluster.Stop()

	client := &tpcw.StoreClient{
		Handler:        cluster.Handler("client", 0),
		Service:        "store",
		NumCustomers:   16,
		ForceAgreement: cfg.ForceAgreement,
	}
	// Each emulated browser pins its own customer, so every session's
	// cart adds must be visible to that same session's next cart view —
	// the read-your-writes lease under concurrent cross-session load.
	perSession := cfg.Calls / cfg.Sessions
	if perSession < 1 {
		perSession = 1
	}
	total := perSession * cfg.Sessions
	worker := func(customer int, warm bool, lat *[]time.Duration) error {
		session := &tpcw.Session{CustomerID: customer}
		if warm {
			// Warm-up: one commit (establishing cart state and the
			// session's write lease) and one read through the full path.
			if _, err := client.Execute(tpcw.ShoppingCart, session, 1); err != nil {
				return err
			}
			_, err := client.Execute(tpcw.CartView, session, 0)
			return err
		}
		for k := 0; k < perSession; k++ {
			i := readMixInteraction(k, cfg.ReadPct)
			opStart := time.Now()
			if _, err := client.Execute(i, session, k); err != nil {
				return fmt.Errorf("interaction %s: %w", i, err)
			}
			if i.IsRead() {
				*lat = append(*lat, time.Since(opStart))
			}
		}
		return nil
	}
	runAll := func(warm bool) ([]time.Duration, error) {
		lats := make([][]time.Duration, cfg.Sessions)
		errs := make([]error, cfg.Sessions)
		var wg sync.WaitGroup
		for s := 0; s < cfg.Sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				errs[s] = worker(s+1, warm, &lats[s])
			}(s)
		}
		wg.Wait()
		var all []time.Duration
		for s := 0; s < cfg.Sessions; s++ {
			if errs[s] != nil {
				return nil, errs[s]
			}
			all = append(all, lats[s]...)
		}
		return all, nil
	}
	if _, err := runAll(true); err != nil {
		return 0, nil, perpetual.ReadStats{}, err
	}

	drv := cluster.Deployment().Replicas("client")[0].Driver()
	before := drv.ReadStats()
	start := time.Now()
	readLat, err := runAll(false)
	if err != nil {
		return 0, nil, perpetual.ReadStats{}, err
	}
	elapsed := time.Since(start)
	after := drv.ReadStats()
	st := perpetual.ReadStats{
		Attempts:         after.Attempts - before.Attempts,
		Certified:        after.Certified - before.Certified,
		Fallbacks:        after.Fallbacks - before.Fallbacks,
		FallbackTimeout:  after.FallbackTimeout - before.FallbackTimeout,
		FallbackDiverged: after.FallbackDiverged - before.FallbackDiverged,
		Widened:          after.Widened - before.Widened,
	}
	return Throughput(total, elapsed), readLat, st, nil
}

// readMixInteraction deterministically interleaves commits into a
// rotating browse cycle at the configured read percentage: with
// ReadPct=95 every 20th interaction is a cart add, the rest cycle
// through home, best-sellers, product-detail, and cart-view pages.
func readMixInteraction(k, readPct int) tpcw.Interaction {
	if readPct < 100 {
		period := 100 / (100 - readPct)
		if period < 1 {
			period = 1
		}
		if k%period == period-1 {
			return tpcw.ShoppingCart
		}
	}
	cycle := [...]tpcw.Interaction{tpcw.Home, tpcw.BestSellers, tpcw.ProductDetail, tpcw.CartView}
	return cycle[k%len(cycle)]
}

// latencyPercentiles returns the p50 and p99 of samples in milliseconds.
func latencyPercentiles(samples []time.Duration) (p50, p99 float64) {
	p50, p99, _ = LatencyPercentiles(samples)
	return p50, p99
}
