package bench

import (
	"fmt"
	"sync"
	"time"

	"perpetualws/internal/core"
	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/tpcw"
	"perpetualws/internal/wsengine"
)

// benchOpts tunes Perpetual for throughput runs: long suspicion timers
// so a saturated single-machine run does not trigger spurious view
// changes, and a large checkpoint interval to amortize garbage
// collection.
func benchOpts() perpetual.ServiceOptions {
	return perpetual.ServiceOptions{
		CheckpointInterval: 256,
		ViewChangeTimeout:  10 * time.Second,
		RetransmitInterval: 10 * time.Second,
	}
}

// IncrementApp is the micro-benchmark target the paper uses: "a simple
// increment method to increment a counter at the target Web Service and
// return the old value". A non-zero processing cost is emulated with a
// timed wait: the paper burned CPU with message digest calculations, but
// its replicas each owned a host, so per-replica processing overlapped
// in wall-clock time. On a shared-CPU in-process run, burning would
// serialize all replicas' processing and inflate replication overhead
// by a factor of n; waiting reproduces the testbed's per-replica cost.
func IncrementApp(processing time.Duration) core.Application {
	return core.ApplicationFunc(func(ctx *core.AppContext) {
		counter := 0
		for {
			req, err := ctx.ReceiveRequest()
			if err != nil {
				return
			}
			if processing > 0 {
				time.Sleep(processing)
			}
			old := counter
			counter++
			reply := wsengine.NewMessageContext()
			reply.Envelope.Body = []byte(fmt.Sprintf("<count>%d</count>", old))
			if err := ctx.SendReply(reply, req); err != nil {
				return
			}
		}
	})
}

// PairConfig parameterizes one micro-benchmark cell: a calling service
// of NC replicas invoking a target of NT replicas.
type PairConfig struct {
	NC, NT     int
	Processing time.Duration // per-request CPU cost at the target
	Calls      int           // requests issued per calling replica
	Window     int           // outstanding async requests; 1 = synchronous
	// LinkLatency models one-way link latency on the in-process
	// network; zero means none. Figures 7 and 8 run without it (their
	// comparisons are agreement-work-bound); Figure 9 injects
	// AsyncLinkLatency, because asynchronous pipelining only has
	// something to win over when requests spend time in flight, as they
	// do on a real network.
	LinkLatency time.Duration
	// MaxBatch enables CLBFT request batching on both groups (the
	// batching ablation); 0/1 disables it, matching the paper's
	// prototype.
	MaxBatch int
	// Transport selects the wire the cell runs over:
	// perpetual.TransportMem (default, the in-process channel every
	// pre-PR-5 number was measured on) or perpetual.TransportTCP
	// (loopback sockets through the real framing/queueing path — the
	// deployment-mode Figure 7). LinkLatency only applies to memnet.
	Transport perpetual.TransportKind
}

// AsyncLinkLatency is the per-hop latency injected for the Figure 9
// experiment. It is chosen well above the Go timer granularity
// (~1 ms on stock kernels) so every group size sees the same effective
// per-hop delay; the paper's testbed RTT was far smaller in absolute
// terms, but the sync-vs-async comparison depends only on latency
// dominating the null request's cost, which holds in both settings.
const AsyncLinkLatency = 2 * time.Millisecond

// MeasurePair runs one cell and returns the calling service's observed
// throughput (requests/second) and mean completion time per request.
func MeasurePair(cfg PairConfig) (reqsPerSec, msPerReq float64, err error) {
	if cfg.Calls <= 0 {
		cfg.Calls = 100
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	opts := benchOpts()
	opts.MaxBatch = cfg.MaxBatch
	cluster, err := core.NewClusterOver([]byte("bench"), cfg.Transport,
		core.ServiceDef{Name: "caller", N: cfg.NC, Options: opts},
		core.ServiceDef{Name: "target", N: cfg.NT, App: IncrementApp(cfg.Processing), Options: opts},
	)
	if err != nil {
		return 0, 0, err
	}
	if cfg.LinkLatency > 0 {
		cluster.SetLinkLatency(cfg.LinkLatency)
	}
	cluster.Start()
	defer cluster.Stop()

	// Warm up one request through the full path so connection setup and
	// first-agreement costs are excluded, as steady-state measurements
	// require.
	if err := runWorkload(cluster, cfg.NC, 1, cfg.Window); err != nil {
		return 0, 0, err
	}

	start := time.Now()
	if err := runWorkload(cluster, cfg.NC, cfg.Calls, cfg.Window); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	return Throughput(cfg.Calls, elapsed),
		float64(elapsed.Microseconds()) / 1000.0 / float64(cfg.Calls),
		nil
}

// runWorkload drives every calling replica through the same request
// sequence (replicated deterministic executors) and waits for all of
// them to observe every reply.
func runWorkload(cluster *core.Cluster, nc, calls, window int) error {
	var wg sync.WaitGroup
	errs := make(chan error, nc)
	for i := 0; i < nc; i++ {
		h := cluster.Handler("caller", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- replicaWorkload(h, calls, window)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replicaWorkload issues calls requests keeping at most window
// outstanding: window 1 is the synchronous pattern; larger windows are
// the paper's parallel asynchronous requests (Figure 9).
func replicaWorkload(h core.MessageHandler, calls, window int) error {
	newReq := func() *wsengine.MessageContext {
		mc := wsengine.NewMessageContext()
		mc.Options.To = soap.ServiceURI("target")
		mc.Options.Action = "urn:bench:increment"
		mc.Envelope.Body = []byte("<inc/>")
		return mc
	}
	if window == 1 {
		for k := 0; k < calls; k++ {
			if _, err := h.SendReceive(newReq()); err != nil {
				return err
			}
		}
		return nil
	}
	sent, received := 0, 0
	for sent < window && sent < calls {
		if err := h.Send(newReq()); err != nil {
			return err
		}
		sent++
	}
	for received < calls {
		if _, err := h.ReceiveReply(); err != nil {
			return err
		}
		received++
		if sent < calls {
			if err := h.Send(newReq()); err != nil {
				return err
			}
			sent++
		}
	}
	return nil
}

// ReplicationDegrees are the replica-group sizes of the paper's sweeps.
var ReplicationDegrees = []int{1, 4, 7, 10}

// Figure7Config parameterizes the replica-scalability experiment: every
// Degrees × Degrees combination of calling and target group sizes.
type Figure7Config struct {
	Degrees   []int // calling and target group sizes; default {1,4,7,10}
	Calls     int   // requests per calling replica
	Runs      int   // fresh-cluster runs averaged per cell; default 1
	MaxBatch  int   // CLBFT request batching (>1); 0/1 disables it
	Inflight  int   // outstanding requests per calling replica; 0/1 is synchronous
	Transport perpetual.TransportKind
}

// RunFigure7 reproduces Figure 7: request throughput of null operations
// as the number of calling replicas varies, one series per target group
// size.
func RunFigure7(cfg Figure7Config) (Figure, error) {
	if len(cfg.Degrees) == 0 {
		cfg.Degrees = ReplicationDegrees
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	fig := Figure{
		Name:   "figure7",
		Title:  "Replica scalability (null requests)",
		XLabel: "nc",
		YLabel: "throughput (reqs/sec)",
	}
	for _, nt := range cfg.Degrees {
		for _, nc := range cfg.Degrees {
			var total float64
			for r := 0; r < cfg.Runs; r++ {
				tput, _, err := MeasurePair(PairConfig{
					NC: nc, NT: nt, Calls: cfg.Calls, Window: cfg.Inflight,
					MaxBatch: cfg.MaxBatch, Transport: cfg.Transport,
				})
				if err != nil {
					return fig, fmt.Errorf("bench: figure 7 cell nc=%d nt=%d: %w", nc, nt, err)
				}
				total += tput
			}
			fig.Add(fmt.Sprintf("nt=%d", nt), float64(nc), total/float64(cfg.Runs))
		}
	}
	return fig, nil
}

// Figure8Config parameterizes the processing-time experiment.
type Figure8Config struct {
	Degrees    []int           // nt = nc values; default {1,4,7,10}
	Processing []time.Duration // per-request CPU cost sweep
	Calls      int
	Runs       int
}

// DefaultProcessingSweep is the x-axis of Figure 8 (the paper sweeps 0
// to 20 ms; 6 ms is its "typical database access time" reference point).
var DefaultProcessingSweep = []time.Duration{
	0, 2 * time.Millisecond, 4 * time.Millisecond, 6 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond,
}

// RunFigure8 reproduces Figure 8: request completion time and overhead
// relative to the unreplicated configuration as processing cost grows.
// It returns the completion-time figure and the relative-overhead
// figure (the paper plots both on one chart with two y-axes).
func RunFigure8(cfg Figure8Config) (timeFig, overheadFig Figure, err error) {
	if len(cfg.Degrees) == 0 {
		cfg.Degrees = ReplicationDegrees
	}
	if len(cfg.Processing) == 0 {
		cfg.Processing = DefaultProcessingSweep
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	timeFig = Figure{
		Name:   "figure8",
		Title:  "Effect of non-zero processing time",
		XLabel: "proc ms",
		YLabel: "completion time (ms/req)",
	}
	overheadFig = Figure{
		Name:   "figure8-overhead",
		Title:  "Relative overhead vs unreplicated",
		XLabel: "proc ms",
		YLabel: "relative overhead (x)",
	}
	base := make(map[time.Duration]float64) // n=1 completion times
	for _, n := range cfg.Degrees {
		for _, proc := range cfg.Processing {
			var total float64
			for r := 0; r < cfg.Runs; r++ {
				_, ms, err := MeasurePair(PairConfig{NC: n, NT: n, Processing: proc, Calls: cfg.Calls})
				if err != nil {
					return timeFig, overheadFig, fmt.Errorf("bench: figure 8 cell n=%d proc=%v: %w", n, proc, err)
				}
				total += ms
			}
			ms := total / float64(cfg.Runs)
			x := float64(proc.Microseconds()) / 1000.0
			timeFig.Add(fmt.Sprintf("n=%d", n), x, ms)
			if n == 1 {
				base[proc] = ms
			}
			if b, ok := base[proc]; ok && b > 0 {
				overheadFig.Add(fmt.Sprintf("n=%d", n), x, ms/b)
			}
		}
	}
	return timeFig, overheadFig, nil
}

// Figure9Config parameterizes the asynchronous-messaging experiment.
type Figure9Config struct {
	Degrees []int // nt = nc values; default {4,7,10}
	Windows []int // parallel asynchronous requests; default {1,5,10,20,25}
	Calls   int
	Runs    int
}

// DefaultWindows is the x-axis of Figure 9.
var DefaultWindows = []int{1, 5, 10, 20, 25}

// RunFigure9 reproduces Figure 9: throughput as the number of parallel
// asynchronous requests grows.
func RunFigure9(cfg Figure9Config) (Figure, error) {
	if len(cfg.Degrees) == 0 {
		cfg.Degrees = []int{4, 7, 10}
	}
	if len(cfg.Windows) == 0 {
		cfg.Windows = DefaultWindows
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	fig := Figure{
		Name:   "figure9",
		Title:  "Effect of asynchronous messaging",
		XLabel: "window",
		YLabel: "throughput (reqs/sec)",
	}
	for _, n := range cfg.Degrees {
		for _, w := range cfg.Windows {
			var total float64
			for r := 0; r < cfg.Runs; r++ {
				tput, _, err := MeasurePair(PairConfig{
					NC: n, NT: n, Calls: cfg.Calls, Window: w,
					LinkLatency: AsyncLinkLatency,
				})
				if err != nil {
					return fig, fmt.Errorf("bench: figure 9 cell n=%d w=%d: %w", n, w, err)
				}
				total += tput
			}
			fig.Add(fmt.Sprintf("nt=nc=%d", n), float64(w), total/float64(cfg.Runs))
		}
	}
	return fig, nil
}

// Figure6Config parameterizes the TPC-W macro-benchmark.
type Figure6Config struct {
	Degrees   []int // payment-tier replication (n_pge = n_bank); default {1,4,7,10}
	RBECounts []int // emulated browsers; paper sweeps 7..70
	// ThinkTime is the mean RBE think time. The paper uses the TPC-W
	// think time (seconds); the default here is scaled down so a full
	// sweep finishes in minutes — WIPS scale changes, the curves'
	// relative positions do not.
	ThinkTime time.Duration
	// Measure is the sampling window per cell.
	Measure time.Duration
	// Sync selects the synchronous PGE implementation (the paper's
	// comparison variant); default is asynchronous.
	Sync bool
}

// DefaultRBECounts mirrors the paper's x-axis.
var DefaultRBECounts = []int{7, 14, 21, 28, 35, 42, 49, 56, 63, 70}

// RunFigure6 reproduces Figure 6: TPC-W WIPS against RBE count for
// payment-tier replication degrees 1, 4, 7, and 10.
func RunFigure6(cfg Figure6Config) (Figure, error) {
	if len(cfg.Degrees) == 0 {
		cfg.Degrees = ReplicationDegrees
	}
	if len(cfg.RBECounts) == 0 {
		cfg.RBECounts = DefaultRBECounts
	}
	if cfg.ThinkTime == 0 {
		cfg.ThinkTime = 700 * time.Millisecond
	}
	if cfg.Measure == 0 {
		cfg.Measure = 2 * time.Second
	}
	fig := Figure{
		Name:   "figure6",
		Title:  "TPC-W benchmark (WIPS vs RBE count)",
		XLabel: "RBEs",
		YLabel: "WIPS",
	}
	for _, n := range cfg.Degrees {
		for _, rbes := range cfg.RBECounts {
			wips, err := measureTPCW(n, rbes, cfg)
			if err != nil {
				return fig, fmt.Errorf("bench: figure 6 cell n=%d rbe=%d: %w", n, rbes, err)
			}
			fig.Add(fmt.Sprintf("npge=nbank=%d", n), float64(rbes), wips)
		}
	}
	return fig, nil
}

func measureTPCW(n, rbes int, cfg Figure6Config) (float64, error) {
	pgeApp := tpcw.PGEAsyncApp("bank")
	if cfg.Sync {
		pgeApp = tpcw.PGESyncApp("bank")
	}
	cluster, err := core.NewCluster([]byte("tpcw-bench"),
		core.ServiceDef{Name: "store", N: 1, Options: benchOpts()},
		core.ServiceDef{Name: "pge", N: n, App: pgeApp, Options: benchOpts()},
		core.ServiceDef{Name: "bank", N: n, App: tpcw.BankApp(), Options: benchOpts()},
	)
	if err != nil {
		return 0, err
	}
	cluster.Start()
	defer cluster.Stop()

	gateway := &tpcw.GatewayClient{Handler: cluster.Handler("store", 0), Service: "pge"}
	db := tpcw.NewDB(1000, 288)
	store := tpcw.NewBookstore(db, gateway)
	fleet := tpcw.NewRBEFleet(tpcw.RBEConfig{
		Count:     rbes,
		ThinkTime: cfg.ThinkTime,
		Seed:      1,
	}, store)
	return fleet.MeasureWIPS(cfg.Measure), nil
}
