package perpetual

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// echoApp runs an echo executor on every driver of a service: each
// incoming request is answered with "echo:" + payload.
func echoApp(t *testing.T, dep *Deployment, service string) {
	t.Helper()
	for _, drv := range dep.Drivers(service) {
		drv := drv
		go func() {
			for {
				req, err := drv.NextRequest()
				if err != nil {
					return
				}
				if err := drv.Reply(req, append([]byte("echo:"), req.Payload...)); err != nil {
					return
				}
			}
		}()
	}
}

// silentApp consumes requests without ever replying.
func silentApp(t *testing.T, dep *Deployment, service string) {
	t.Helper()
	for _, drv := range dep.Drivers(service) {
		drv := drv
		go func() {
			for {
				if _, err := drv.NextRequest(); err != nil {
					return
				}
			}
		}()
	}
}

func fastOpts() ServiceOptions {
	return ServiceOptions{
		CheckpointInterval: 16,
		ViewChangeTimeout:  400 * time.Millisecond,
		RetransmitInterval: 250 * time.Millisecond,
	}
}

// buildPair creates a caller service "c" (nc replicas) and target "t"
// (nt replicas) with echo executors on the target.
func buildPair(t *testing.T, nc, nt int, tune func(*Deployment)) *Deployment {
	t.Helper()
	dep := NewDeployment([]byte("test-master"),
		ServiceInfo{Name: "c", N: nc},
		ServiceInfo{Name: "t", N: nt},
	)
	dep.Configure("c", fastOpts())
	dep.Configure("t", fastOpts())
	if tune != nil {
		tune(dep)
	}
	if err := dep.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	dep.Start()
	t.Cleanup(dep.Stop)
	return dep
}

// issue starts req through Do without waiting (NoWait), the way the
// engine's asynchronous pump issues, and returns its request id; the
// reply is then taken from the event queue with WaitReply or NextReply.
func issue(drv *Driver, req Request) (string, error) {
	req.NoWait = true
	res, err := drv.Do(context.Background(), req)
	return res.ReqID, err
}

// issueAll is issue for an AllShards fan-out: it returns the per-shard
// request ids.
func issueAll(drv *Driver, req Request) ([]string, error) {
	req.NoWait = true
	res, err := drv.Do(context.Background(), req)
	return res.ShardIDs, err
}

// callAll issues the same request from every caller driver (replicated
// deterministic executors issue identical request sequences) and returns
// the per-replica request IDs (all equal).
func callAll(t *testing.T, dep *Deployment, caller, target string, payload []byte, timeout time.Duration) string {
	t.Helper()
	var reqID string
	for i, drv := range dep.Drivers(caller) {
		id, err := issue(drv, Request{Target: target, Payload: payload, Timeout: timeout})
		if err != nil {
			t.Fatalf("Do from %s/%d: %v", caller, i, err)
		}
		if reqID == "" {
			reqID = id
		} else if id != reqID {
			t.Fatalf("driver %d assigned reqID %s, others %s", i, id, reqID)
		}
	}
	return reqID
}

// awaitAll waits for the reply to reqID on every caller replica and
// asserts all replicas observe the same outcome.
func awaitAll(t *testing.T, dep *Deployment, caller, reqID string) Reply {
	t.Helper()
	drivers := dep.Drivers(caller)
	replies := make([]Reply, len(drivers))
	var wg sync.WaitGroup
	for i, drv := range drivers {
		i, drv := i, drv
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := drv.WaitReply(reqID)
			if err != nil {
				t.Errorf("WaitReply at %s/%d: %v", caller, i, err)
				return
			}
			replies[i] = r
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for reply %s", reqID)
	}
	for i := 1; i < len(replies); i++ {
		if replies[i].Aborted != replies[0].Aborted || !bytes.Equal(replies[i].Payload, replies[0].Payload) {
			t.Fatalf("replica %d observed %+v, replica 0 observed %+v", i, replies[i], replies[0])
		}
	}
	return replies[0]
}

func TestUnreplicatedToUnreplicated(t *testing.T) {
	dep := buildPair(t, 1, 1, nil)
	echoApp(t, dep, "t")
	reqID := callAll(t, dep, "c", "t", []byte("hello"), 0)
	r := awaitAll(t, dep, "c", reqID)
	if r.Aborted || string(r.Payload) != "echo:hello" {
		t.Errorf("reply = %+v", r)
	}
}

func TestReplicatedToReplicated(t *testing.T) {
	dep := buildPair(t, 4, 4, nil)
	echoApp(t, dep, "t")
	reqID := callAll(t, dep, "c", "t", []byte("rr"), 0)
	r := awaitAll(t, dep, "c", reqID)
	if r.Aborted || string(r.Payload) != "echo:rr" {
		t.Errorf("reply = %+v", r)
	}
}

func TestMixedReplicationDegrees(t *testing.T) {
	// The paper's headline capability: interaction between services with
	// different degrees of replication.
	for _, tc := range []struct{ nc, nt int }{{1, 4}, {4, 1}, {4, 7}, {7, 4}} {
		tc := tc
		t.Run(fmt.Sprintf("nc=%d_nt=%d", tc.nc, tc.nt), func(t *testing.T) {
			dep := buildPair(t, tc.nc, tc.nt, nil)
			echoApp(t, dep, "t")
			reqID := callAll(t, dep, "c", "t", []byte("mix"), 0)
			r := awaitAll(t, dep, "c", reqID)
			if r.Aborted || string(r.Payload) != "echo:mix" {
				t.Errorf("reply = %+v", r)
			}
		})
	}
}

func TestSequentialCallsStayOrdered(t *testing.T) {
	dep := buildPair(t, 4, 4, nil)
	echoApp(t, dep, "t")
	for i := 0; i < 5; i++ {
		payload := []byte(fmt.Sprintf("msg-%d", i))
		reqID := callAll(t, dep, "c", "t", payload, 0)
		r := awaitAll(t, dep, "c", reqID)
		if string(r.Payload) != "echo:"+string(payload) {
			t.Fatalf("call %d: reply %q", i, r.Payload)
		}
	}
}

func TestAsynchronousPipelining(t *testing.T) {
	// Issue several requests before consuming any reply: the paper's
	// asynchronous messaging model (send, keep working, receive later).
	dep := buildPair(t, 4, 4, nil)
	echoApp(t, dep, "t")
	const parallel = 8
	ids := make([]string, parallel)
	for i := 0; i < parallel; i++ {
		ids[i] = callAll(t, dep, "c", "t", []byte(fmt.Sprintf("p%d", i)), 0)
	}
	for i, id := range ids {
		r := awaitAll(t, dep, "c", id)
		want := fmt.Sprintf("echo:p%d", i)
		if string(r.Payload) != want {
			t.Errorf("reply %d = %q, want %q", i, r.Payload, want)
		}
	}
}

func TestNextReplyDeliversInAgreementOrder(t *testing.T) {
	dep := buildPair(t, 1, 1, nil)
	echoApp(t, dep, "t")
	drv := dep.Driver("c", 0)
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := issue(drv, Request{Target: "t", Payload: []byte(fmt.Sprintf("%d", i))})
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		ids = append(ids, id)
	}
	seen := make(map[string]bool)
	for i := 0; i < 4; i++ {
		r, err := drv.NextReply()
		if err != nil {
			t.Fatalf("NextReply: %v", err)
		}
		if seen[r.ReqID] {
			t.Errorf("duplicate reply %s", r.ReqID)
		}
		seen[r.ReqID] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("missing reply for %s", id)
		}
	}
}

func TestDeterministicAbortOnTimeout(t *testing.T) {
	dep := buildPair(t, 4, 4, nil)
	silentApp(t, dep, "t") // target never replies
	reqID := callAll(t, dep, "c", "t", []byte("doomed"), 500*time.Millisecond)
	r := awaitAll(t, dep, "c", reqID)
	if !r.Aborted {
		t.Errorf("expected aborted reply, got %+v", r)
	}
}

func TestAgreedTimeConsistentAcrossReplicas(t *testing.T) {
	dep := buildPair(t, 4, 1, nil)
	drivers := dep.Drivers("c")
	values := make([]int64, len(drivers))
	var wg sync.WaitGroup
	for i, drv := range drivers {
		i, drv := i, drv
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := drv.AgreedTimeMillis()
			if err != nil {
				t.Errorf("AgreedTimeMillis at %d: %v", i, err)
				return
			}
			values[i] = v
		}()
	}
	wg.Wait()
	for i := 1; i < len(values); i++ {
		if values[i] != values[0] {
			t.Errorf("replica %d agreed on %d, replica 0 on %d", i, values[i], values[0])
		}
	}
	if values[0] == 0 {
		t.Error("agreed time is zero")
	}
	// The agreed value is a plausible current clock (within a minute).
	now := time.Now().UnixMilli()
	if d := now - values[0]; d < 0 || d > 60_000 {
		t.Errorf("agreed time %d is %dms away from now", values[0], d)
	}
}

func TestAgreedRandomSequencesMatch(t *testing.T) {
	dep := buildPair(t, 4, 1, nil)
	drivers := dep.Drivers("c")
	seqs := make([][]int, len(drivers))
	var wg sync.WaitGroup
	for i, drv := range drivers {
		i, drv := i, drv
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng, err := drv.AgreedRandom()
			if err != nil {
				t.Errorf("AgreedRandom at %d: %v", i, err)
				return
			}
			for j := 0; j < 8; j++ {
				seqs[i] = append(seqs[i], rng.Intn(1000))
			}
		}()
	}
	wg.Wait()
	for i := 1; i < len(seqs); i++ {
		if fmt.Sprint(seqs[i]) != fmt.Sprint(seqs[0]) {
			t.Errorf("replica %d drew %v, replica 0 drew %v", i, seqs[i], seqs[0])
		}
	}
}

func TestToleratesCorruptResultReplicas(t *testing.T) {
	// f of the target's replicas endorse corrupted results; bundles need
	// f+1 matching endorsements, so the caller still gets the right
	// echo.
	dep := buildPair(t, 1, 4, func(dep *Deployment) {
		opts := fastOpts()
		opts.Behaviors = map[int]Behavior{1: CorruptResultFault{}}
		dep.Configure("t", opts)
	})
	echoApp(t, dep, "t")
	reqID := callAll(t, dep, "c", "t", []byte("x"), 0)
	r := awaitAll(t, dep, "c", reqID)
	if r.Aborted || string(r.Payload) != "echo:x" {
		t.Errorf("reply = %+v", r)
	}
}

func TestToleratesSilentTargetReplica(t *testing.T) {
	// One target replica (including the initial CLBFT primary) is mute;
	// retransmission plus view change keep the call live.
	dep := buildPair(t, 1, 4, func(dep *Deployment) {
		opts := fastOpts()
		opts.Behaviors = map[int]Behavior{0: SilentFault{}}
		dep.Configure("t", opts)
	})
	echoApp(t, dep, "t")
	reqID := callAll(t, dep, "c", "t", []byte("sp"), 0)
	r := awaitAll(t, dep, "c", reqID)
	if r.Aborted || string(r.Payload) != "echo:sp" {
		t.Errorf("reply = %+v", r)
	}
}

func TestCompromisedTargetPreservesCallerSafety(t *testing.T) {
	// 2 of 4 target replicas are faulty (> f): the target is
	// compromised, so the reply value is not guaranteed — but all
	// calling replicas must still observe the *same* outcome (reply or
	// abort). awaitAll asserts that consistency.
	dep := buildPair(t, 4, 4, func(dep *Deployment) {
		opts := fastOpts()
		opts.Behaviors = map[int]Behavior{
			1: CorruptResultFault{},
			2: CorruptResultFault{},
		}
		dep.Configure("t", opts)
	})
	echoApp(t, dep, "t")
	reqID := callAll(t, dep, "c", "t", []byte("iso"), 2*time.Second)
	r := awaitAll(t, dep, "c", reqID)
	// Either outcome is acceptable; consistency was asserted above.
	t.Logf("compromised target outcome: aborted=%v payload=%q", r.Aborted, r.Payload)

	// The caller must remain live for subsequent calls to other
	// services: fault isolation across application boundaries.
	dep.Registry.Lookup("t") // (registry still intact)
}

func TestCallerLivenessAfterCompromisedTarget(t *testing.T) {
	// A fully silent (compromised) target: callers abort
	// deterministically and keep serving other work.
	dep := NewDeployment([]byte("m"),
		ServiceInfo{Name: "c", N: 4},
		ServiceInfo{Name: "dead", N: 4},
		ServiceInfo{Name: "live", N: 1},
	)
	for _, s := range []string{"c", "dead", "live"} {
		dep.Configure(s, fastOpts())
	}
	dead := fastOpts()
	dead.Behaviors = map[int]Behavior{
		0: SilentFault{}, 1: SilentFault{}, 2: SilentFault{}, 3: SilentFault{},
	}
	dep.Configure("dead", dead)
	if err := dep.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	dep.Start()
	t.Cleanup(dep.Stop)
	echoApp(t, dep, "live")

	deadID := callAll(t, dep, "c", "dead", []byte("void"), 700*time.Millisecond)
	liveID := callAll(t, dep, "c", "live", []byte("ok"), 0)

	if r := awaitAll(t, dep, "c", liveID); r.Aborted || string(r.Payload) != "echo:ok" {
		t.Errorf("live call disturbed: %+v", r)
	}
	if r := awaitAll(t, dep, "c", deadID); !r.Aborted {
		t.Errorf("dead call not aborted: %+v", r)
	}
}

func TestThreeTierChain(t *testing.T) {
	// bookstore -> pge -> bank, the paper's motivating n-tier scenario.
	dep := NewDeployment([]byte("m"),
		ServiceInfo{Name: "store", N: 1},
		ServiceInfo{Name: "pge", N: 4},
		ServiceInfo{Name: "bank", N: 4},
	)
	for _, s := range []string{"store", "pge", "bank"} {
		dep.Configure(s, fastOpts())
	}
	if err := dep.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	dep.Start()
	t.Cleanup(dep.Stop)

	// Bank: approves everything.
	echoApp(t, dep, "bank")
	// PGE: forwards each request to the bank (a nested synchronous
	// call inside the executor) and relays the answer.
	for _, drv := range dep.Drivers("pge") {
		drv := drv
		go func() {
			for {
				req, err := drv.NextRequest()
				if err != nil {
					return
				}
				id, err := issue(drv, Request{Target: "bank", Payload: req.Payload})
				if err != nil {
					return
				}
				r, err := drv.WaitReply(id)
				if err != nil {
					return
				}
				if err := drv.Reply(req, append([]byte("pge:"), r.Payload...)); err != nil {
					return
				}
			}
		}()
	}

	reqID := callAll(t, dep, "store", "pge", []byte("$42"), 0)
	r := awaitAll(t, dep, "store", reqID)
	if r.Aborted || string(r.Payload) != "pge:echo:$42" {
		t.Errorf("chain reply = %+v", r)
	}
}

func TestDriverCloseUnblocksWaiters(t *testing.T) {
	dep := buildPair(t, 1, 1, nil)
	drv := dep.Driver("c", 0)
	errCh := make(chan error, 1)
	go func() {
		_, err := drv.NextReply()
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	dep.Replicas("c")[0].Stop()
	select {
	case err := <-errCh:
		if err != ErrClosed {
			t.Errorf("NextReply returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NextReply did not unblock on close")
	}
}

func TestCallUnknownTarget(t *testing.T) {
	dep := buildPair(t, 1, 1, nil)
	if _, err := issue(dep.Driver("c", 0), Request{Target: "nowhere"}); err == nil {
		t.Error("Do to unknown service succeeded")
	}
}
