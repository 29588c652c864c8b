package perpetual

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestDriverReqIDsAreSequential(t *testing.T) {
	dep := buildPair(t, 1, 1, nil)
	echoApp(t, dep, "t")
	drv := dep.Driver("c", 0)
	for i := 1; i <= 3; i++ {
		id, err := issue(drv, Request{Target: "t"})
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		if want := fmt.Sprintf("c:%d", i); id != want {
			t.Errorf("reqID = %q, want %q", id, want)
		}
	}
}

func TestDriverOutstandingCount(t *testing.T) {
	dep := buildPair(t, 1, 1, nil)
	silentApp(t, dep, "t")
	drv := dep.Driver("c", 0)
	if got := drv.Outstanding(); got != 0 {
		t.Fatalf("initial Outstanding = %d", got)
	}
	if _, err := issue(drv, Request{Target: "t", Payload: []byte("x")}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if got := drv.Outstanding(); got != 1 {
		t.Errorf("Outstanding after Do = %d", got)
	}
}

func TestDriverOutstandingDropsOnReply(t *testing.T) {
	dep := buildPair(t, 1, 1, nil)
	echoApp(t, dep, "t")
	drv := dep.Driver("c", 0)
	id, err := issue(drv, Request{Target: "t", Payload: []byte("x")})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if _, err := drv.WaitReply(id); err != nil {
		t.Fatalf("WaitReply: %v", err)
	}
	if got := drv.Outstanding(); got != 0 {
		t.Errorf("Outstanding after reply = %d", got)
	}
}

// startDeclaring builds and starts a deployment of services in which
// driver c/0 resolves targets through a registry that also declares
// extra, replacing any service of the same name: services the
// deployment provisioned no keys for.
func startDeclaring(t *testing.T, services []ServiceInfo, extra ...ServiceInfo) *Deployment {
	t.Helper()
	dep := NewDeployment([]byte("test-master"), services...)
	for _, s := range services {
		dep.Configure(s.Name, fastOpts())
	}
	if err := dep.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	dep.Driver("c", 0).registry = NewRegistry(append(dep.Registry.Services(), extra...)...)
	dep.Start()
	t.Cleanup(dep.Stop)
	return dep
}

func TestCallAuthenticatorFailureLeavesNothingOutstanding(t *testing.T) {
	// Regression: startRequest registers the outstanding entry before building
	// the authenticated request; a registry entry whose pairwise keys are
	// missing from this driver's key store makes buildRequest fail, and
	// the entry used to leak forever (no timers, never reaped).
	// Only driver c/0's registry declares "ghost", so no key store
	// holds keys for its voters.
	dep := startDeclaring(t, []ServiceInfo{{Name: "c", N: 1}, {Name: "t", N: 1}}, ServiceInfo{Name: "ghost", N: 1})
	drv := dep.Driver("c", 0)
	if _, err := issue(drv, Request{Target: "ghost", Payload: []byte("x")}); err == nil {
		t.Fatal("Do to keyless service succeeded")
	}
	if got := drv.Outstanding(); got != 0 {
		t.Errorf("Outstanding after failed Do = %d, want 0", got)
	}
}

func TestReplySeenWindowSurvivesOverflow(t *testing.T) {
	// Regression: the reply dedup set used to be wholesale-reset when it
	// grew past its bound, reopening the duplicate window for every
	// in-flight request at once. Now a call leaves the driver's table
	// when it settles, so a late duplicate of its agreed outcome finds
	// nothing to settle, however many outcomes arrived since.
	dep := buildPair(t, 4, 1, nil)
	echoApp(t, dep, "t")
	reqID := callAll(t, dep, "c", "t", []byte("once"), 0)
	awaitAll(t, dep, "c", reqID)
	drv := dep.Driver("c", 0)
	// Count the flood's ids as issued: outcomes for ids above reqSeq are
	// parked for their issue instead of settled.
	const flood = 4 * deliveredCacheSize
	drv.mu.Lock()
	drv.reqSeq += flood
	drv.mu.Unlock()
	for i := 2; i <= flood; i++ {
		drv.deliverReply(Reply{ReqID: fmt.Sprintf("c:%d", i)})
	}
	drv.deliverReply(Reply{ReqID: reqID, Payload: []byte("echo:once")})
	drv.mu.Lock()
	queued := len(drv.events)
	drv.mu.Unlock()
	if queued != 0 {
		t.Errorf("%d outcomes queued for settled or unknown ids", queued)
	}
}

func TestHashReqIsStable(t *testing.T) {
	a := fnv64a([]byte("c:1"))
	b := fnv64a([]byte("c:1"))
	c := fnv64a([]byte("c:2"))
	if a != b {
		t.Error("fnv64a not deterministic")
	}
	if a == c {
		t.Error("fnv64a collides on adjacent ids")
	}
}

func TestWaitReplyAndNextReplyInterplay(t *testing.T) {
	dep := buildPair(t, 1, 1, nil)
	echoApp(t, dep, "t")
	drv := dep.Driver("c", 0)

	idA, _ := issue(drv, Request{Target: "t", Payload: []byte("a")})
	idB, _ := issue(drv, Request{Target: "t", Payload: []byte("b")})
	idC, _ := issue(drv, Request{Target: "t", Payload: []byte("c")})

	// Claim B specifically; NextReply must then yield A and C exactly
	// once each, skipping the claimed slot.
	rb, err := drv.WaitReply(idB)
	if err != nil || string(rb.Payload) != "echo:b" {
		t.Fatalf("WaitReply(b) = %+v, %v", rb, err)
	}
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		r, err := drv.NextReply()
		if err != nil {
			t.Fatalf("NextReply: %v", err)
		}
		got[r.ReqID] = true
	}
	if !got[idA] || !got[idC] || got[idB] {
		t.Errorf("NextReply yielded %v", got)
	}
}

func TestAbortThenLateReplyIsDropped(t *testing.T) {
	// The target replies only after the abort timeout has certainly
	// fired; all caller replicas must settle on the abort and the late
	// reply must not surface.
	dep := buildPair(t, 4, 1, nil)
	for _, drv := range dep.Drivers("t") {
		drv := drv
		go func() {
			for {
				req, err := drv.NextRequest()
				if err != nil {
					return
				}
				time.Sleep(1200 * time.Millisecond)
				_ = drv.Reply(req, []byte("late"))
			}
		}()
	}
	reqID := callAll(t, dep, "c", "t", []byte("z"), 300*time.Millisecond)
	r := awaitAll(t, dep, "c", reqID)
	if !r.Aborted {
		t.Fatalf("expected abort, got %+v", r)
	}
	// Wait past the late reply and confirm nothing new surfaces on any
	// replica.
	time.Sleep(1500 * time.Millisecond)
	for i, drv := range dep.Drivers("c") {
		done := make(chan Reply, 1)
		go func() {
			if rep, err := drv.NextReply(); err == nil {
				done <- rep
			}
		}()
		select {
		case rep := <-done:
			t.Errorf("replica %d surfaced a late reply: %+v", i, rep)
		case <-time.After(200 * time.Millisecond):
		}
	}
}

func TestConcurrentCallsFromManyGoroutines(t *testing.T) {
	// An unreplicated client (n=1) may issue calls from concurrent
	// goroutines (the RBE pattern); the driver must stay coherent.
	dep := buildPair(t, 1, 4, nil)
	echoApp(t, dep, "t")
	drv := dep.Driver("c", 0)
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("w%d", w))
			id, err := issue(drv, Request{Target: "t", Payload: payload})
			if err != nil {
				t.Errorf("worker %d Do: %v", w, err)
				return
			}
			r, err := drv.WaitReply(id)
			if err != nil {
				t.Errorf("worker %d WaitReply: %v", w, err)
				return
			}
			if string(r.Payload) != "echo:"+string(payload) {
				t.Errorf("worker %d got %q", w, r.Payload)
			}
		}()
	}
	wg.Wait()
}

func TestReplicaStopIsIdempotent(t *testing.T) {
	dep := buildPair(t, 1, 1, nil)
	r := dep.Replicas("c")[0]
	r.Stop()
	r.Stop() // second stop must not panic or hang
}

func TestDeploymentAccessors(t *testing.T) {
	dep := buildPair(t, 2, 1, nil)
	if dep.Driver("c", 5) != nil {
		t.Error("out-of-range driver not nil")
	}
	if dep.Driver("nope", 0) != nil {
		t.Error("unknown service driver not nil")
	}
	if got := len(dep.Drivers("c")); got != 2 {
		t.Errorf("Drivers = %d", got)
	}
	if got := len(dep.Replicas("t")); got != 1 {
		t.Errorf("Replicas = %d", got)
	}
	r := dep.Replicas("t")[0]
	if r.Service().Name != "t" || r.Index() != 0 {
		t.Errorf("replica identity = %s/%d", r.Service().Name, r.Index())
	}
	if r.VoterView() != 0 {
		t.Errorf("VoterView = %d", r.VoterView())
	}
}
