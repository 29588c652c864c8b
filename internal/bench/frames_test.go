package bench

import (
	"sync"
	"testing"
	"time"

	"perpetualws/internal/core"
	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/transport"
	"perpetualws/internal/wsengine"
)

// measureNullOnce runs the nc = nt = 4 null cell over loopback TCP with
// window requests outstanding per calling replica and returns its
// throughput and the wire counters of the measured window. Unlike
// MeasurePair it issues every request with Send and collects it with
// ReceiveReply, even at window 1: a non-blocking call has its reply
// agreed by the calling group, so both groups run commit rounds. A
// synchronous SendReceive takes the reply fast path and skips the
// caller-side agreement, leaving half the commit traffic unmeasured.
func measureNullOnce(t *testing.T, calls, window, maxBatch int) (float64, transport.TCPStatsSnapshot) {
	t.Helper()
	opts := benchOpts()
	opts.MaxBatch = maxBatch
	cluster, err := core.NewClusterOver([]byte("bench"), perpetual.TransportTCP,
		core.ServiceDef{Name: "caller", N: 4, Options: opts},
		core.ServiceDef{Name: "target", N: 4, App: IncrementApp(0), Options: opts},
	)
	if err != nil {
		t.Fatalf("NewClusterOver: %v", err)
	}
	cluster.Start()
	defer cluster.Stop()
	run := func(calls int) {
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			h := cluster.Handler("caller", i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				send := func() error {
					mc := wsengine.NewMessageContext()
					mc.Options.To = soap.ServiceURI("target")
					mc.Options.Action = "urn:bench:increment"
					mc.Envelope.Body = []byte("<inc/>")
					return h.Send(mc)
				}
				sent := 0
				for ; sent < window && sent < calls; sent++ {
					if err := send(); err != nil {
						t.Errorf("Send: %v", err)
						return
					}
				}
				for received := 0; received < calls; received++ {
					if _, err := h.ReceiveReply(); err != nil {
						t.Errorf("ReceiveReply: %v", err)
						return
					}
					if sent < calls {
						if err := send(); err != nil {
							t.Errorf("Send: %v", err)
							return
						}
						sent++
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	run(1) // warm-up: connection setup and first agreement excluded
	before := cluster.NetStats()
	start := time.Now()
	run(calls)
	elapsed := time.Since(start)
	wire := cluster.NetStats()
	wire.FramesOut -= before.FramesOut
	wire.Flushes -= before.Flushes
	return Throughput(calls, elapsed), wire
}

// TestTCPFramesPerRequestCeiling pins the wire-frame budget of the
// closed-loop TCP n=4 null cell. Before tentative execution and commit
// piggybacking the cell cost ~63 frames per request (the commit round
// was 12 standalone frames per group); with commit votes riding
// pre-prepare/prepare carriers it measures ~39.5. The ceiling of 48
// leaves room for scheduler-induced heartbeat flushes while still
// failing hard if piggybacking regresses to standalone commit rounds.
// Under the race detector the slowdown fires the idle commit heartbeat
// between carriers, so the ceiling would measure scheduling rather than
// piggybacking; the cell still runs there, without the ceiling.
func TestTCPFramesPerRequestCeiling(t *testing.T) {
	const calls = 80
	tput, wire := measureNullOnce(t, calls, 1, 0)
	perReq := float64(wire.FramesOut) / calls
	t.Logf("closed-loop TCP n=4: %.1f frames/request (%d frames / %d calls)",
		perReq, wire.FramesOut, calls)
	if raceEnabled {
		t.Log("race detector on: frame ceiling not enforced")
	} else if perReq > 48 {
		t.Errorf("%.1f frames/request exceeds the 48-frame ceiling; the commit round is going out standalone again (pre-piggyback cost: ~63)", perReq)
	}
	if tput <= 0 {
		t.Errorf("throughput = %.1f req/s; cell did not run", tput)
	}
}

// TestTCPPipelinedCoalescing asserts the open-loop cell actually
// engages the two merge points the pipeline exists for: the agreement
// batcher (frames/request falls below the closed-loop cost) and the
// TCP writer's flush coalescing (more than one frame per writer
// wakeup). The closed-loop cell can't test either — one request in
// flight leaves nothing to merge. 64 outstanding requests with a batch
// cap of 32 is deep enough that both merge points engage (batches and
// flushes only merge work that is concurrently in the pipe).
func TestTCPPipelinedCoalescing(t *testing.T) {
	const calls, inflight = 300, 64
	tput, wire := measureNullOnce(t, calls, inflight, 32)
	perReq := float64(wire.FramesOut) / calls
	ratio := 0.0
	if wire.Flushes > 0 {
		ratio = float64(wire.FramesOut) / float64(wire.Flushes)
	}
	t.Logf("pipelined TCP n=4: %.1f frames/request, %.2f frames/flush, %.0f req/s",
		perReq, ratio, tput)
	if perReq > 35 {
		t.Errorf("%.1f frames/request pipelined; batching is not amortizing the agreement rounds (closed-loop cost: ~39.5)", perReq)
	}
	if ratio < 1.15 {
		t.Errorf("%.2f frames per flush; the writer is flushing every frame even with %d requests in the pipe", ratio, inflight)
	}
}
