package perpetual

import (
	"fmt"
	"testing"
	"time"
)

// TestSustainedLoadKeepsStateBounded drives hundreds of calls through a
// small checkpoint interval and verifies that garbage collection keeps
// every voter's CLBFT log and the bounded caches in check — the
// long-running-deployment property (the paper's system is named
// Perpetual for a reason).
func TestSustainedLoadKeepsStateBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dep := NewDeployment([]byte("soak"),
		ServiceInfo{Name: "c", N: 4},
		ServiceInfo{Name: "t", N: 4},
	)
	opts := ServiceOptions{
		CheckpointInterval: 8, // aggressive GC
		ViewChangeTimeout:  5 * time.Second,
		RetransmitInterval: 5 * time.Second,
	}
	dep.Configure("c", opts)
	dep.Configure("t", opts)
	if err := dep.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	dep.Start()
	t.Cleanup(dep.Stop)
	echoApp(t, dep, "t")

	const calls = 300
	drivers := dep.Drivers("c")
	done := make(chan error, len(drivers))
	for _, drv := range drivers {
		drv := drv
		go func() {
			for k := 0; k < calls; k++ {
				id, err := issue(drv, Request{Target: "t", Payload: []byte{byte(k)}})
				if err != nil {
					done <- err
					return
				}
				if _, err := drv.WaitReply(id); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for range drivers {
		if err := <-done; err != nil {
			t.Fatalf("workload: %v", err)
		}
	}

	// Give checkpoints a moment to stabilize, then inspect both groups.
	time.Sleep(300 * time.Millisecond)
	for _, svc := range []string{"c", "t"} {
		for i, r := range dep.Replicas(svc) {
			st := r.voter.bft().DebugState()
			window := 2 * opts.CheckpointInterval
			if st.LogLen > int(4*window) {
				t.Errorf("%s/%d: log has %d entries (window %d): GC not keeping up",
					svc, i, st.LogLen, window)
			}
			if st.LowWatermark == 0 {
				t.Errorf("%s/%d: low watermark never advanced", svc, i)
			}
			if st.InViewChange {
				t.Errorf("%s/%d: spurious view change under clean load", svc, i)
			}
		}
	}
	// All target replicas must have executed the same number of
	// requests and hold identical state digests at the same watermark.
	ref := dep.Replicas("t")[0].voter.bft().DebugState()
	for i, r := range dep.Replicas("t")[1:] {
		st := r.voter.bft().DebugState()
		if st.LowWatermark == ref.LowWatermark && st.StateDigest != ref.StateDigest {
			t.Errorf("t/%d: state digest diverged at watermark %d", i+1, st.LowWatermark)
		}
	}
	if got := dep.Replicas("t")[0].AgreementCount(); got < calls {
		t.Errorf("target agreed on %d ops, want >= %d", got, calls)
	}
	_ = fmt.Sprint()
}
