package perpetual

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perpetualws/internal/auth"
)

// mintBundle builds the bundle target group "t" would certify for reqID:
// f_t+1 = 2 stable shares over payload from voters 0 and 1, executed at
// position 1.
func mintBundle(t *testing.T, dep *Deployment, reqID string, payload []byte) *ReplyBundle {
	t.Helper()
	b := &ReplyBundle{ReqID: reqID, Target: "t", Payload: payload, Pos: 1}
	digest := ReplyDigest(reqID, payload)
	for k := 0; k < 2; k++ {
		rec, err := dep.Replicas("t")[k].voter.mint(reqID, "c", payload, digest, false, b.Pos)
		if err != nil {
			t.Fatalf("minting share %d: %v", k, err)
		}
		b.Shares = append(b.Shares, rec.share)
	}
	return b
}

// takeQueuedReply removes and returns the queued reply for reqID, if
// any, without blocking.
func takeQueuedReply(d *Driver, reqID string) (Reply, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.events {
		if d.events[i].Kind == EventReply && d.events[i].Reply.ReqID == reqID {
			return d.popAt(i).Reply, true
		}
	}
	return Reply{}, false
}

// sink keeps the race test's delay loop from being optimized away.
var sink atomic.Uint64

// TestReplyFastPathBundleRacesIssue races a certified bundle against the
// issue of the very call it answers, ten thousand times. The target
// group is cut off and retransmission is a minute away, so the bundle is
// the call's only possible answer: whether it lands before the call is
// issued (parked, then consumed at issue), or after (delivered to the
// registered call), the reply must be queued once both sides return. A
// driver that reserves the id and registers the call in two separate
// d.mu holds drops a bundle landing in between, and the call stays
// outstanding.
func TestReplyFastPathBundleRacesIssue(t *testing.T) {
	const rounds = 10000
	dep := buildPair(t, 1, 4, func(d *Deployment) {
		opts := fastOpts()
		opts.RetransmitInterval = time.Minute
		d.Configure("c", opts)
	})
	dep.Network.Isolate(auth.DriverID("c", 0))
	drv := dep.Driver("c", 0)
	payload := []byte("raced")
	from := auth.VoterID("t", 0)
	for i := 0; i < rounds; i++ {
		drv.mu.Lock()
		next := fmt.Sprintf("c:%d", drv.reqSeq+1)
		drv.mu.Unlock()
		b := mintBundle(t, dep, next, payload)

		var wg sync.WaitGroup
		var ready, release atomic.Bool
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready.Store(true)
			for !release.Load() {
				runtime.Gosched()
			}
			drv.handleBundle(from, b)
		}()
		for !ready.Load() {
			runtime.Gosched()
		}
		release.Store(true)
		// Sweep the issue across the bundle's handling, which spends
		// microseconds verifying between its two d.mu holds.
		for spin := 0; spin < i%4096; spin++ {
			sink.Add(1)
		}
		res, err := drv.Do(context.Background(), Request{Target: "t", Payload: payload, NoWait: true})
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d: Do: %v", i, err)
		}
		if res.ReqID != next {
			t.Fatalf("round %d: issued %s, bundle minted for %s", i, res.ReqID, next)
		}
		r, ok := takeQueuedReply(drv, next)
		if !ok {
			t.Fatalf("round %d: bundle for %s lost: its call is still outstanding", i, next)
		}
		if r.Aborted || !bytes.Equal(r.Payload, payload) {
			t.Fatalf("round %d: reply %+v", i, r)
		}
	}
	if n := drv.Outstanding(); n != 0 {
		t.Fatalf("%d calls still outstanding", n)
	}
}

// TestReplyFastPathBusyRetries puts a replicated caller's blocked calls
// (fast path) in front of a target whose intake is full at every voter.
// The callers meet an f_t+1 busy quorum but must not settle on it: a
// fast-path call has no caller-side abort, so each keeps retrying after
// the RETRY-AFTER hint and completes with the real reply once the
// target drains. The caller group orders nothing at all: no OpAbort is
// proposed and no OpReply either.
func TestReplyFastPathBusyRetries(t *testing.T) {
	guardGoroutines(t)
	dep := buildPair(t, 4, 4, func(d *Deployment) {
		opts := fastOpts()
		opts.MaxIntake = 1
		opts.RetryAfterHint = 20 * time.Millisecond
		d.Configure("t", opts)
	})
	echoApp(t, dep, "t")
	for _, r := range dep.Replicas("t") {
		seedVote(r.voter, "synthetic-hold", true)
	}

	results := make([]Result, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i, drv := range dep.Drivers("c") {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = drv.Do(context.Background(), Request{Target: "t", Payload: []byte("held")})
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for dep.OverloadStats("t").ShedIntake < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("ShedIntake = %d: the callers never met a busy quorum", dep.OverloadStats("t").ShedIntake)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // several hint periods of refused retries
	for i, drv := range dep.Drivers("c") {
		if drv.Outstanding() != 1 {
			t.Fatalf("caller %d settled its call on a busy quorum", i)
		}
	}

	for _, r := range dep.Replicas("t") {
		unseedVote(r.voter, "synthetic-hold")
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("calls did not complete after the target drained")
	}
	for i := range results {
		if errs[i] != nil || results[i].Aborted || string(results[i].Payload) != "echo:held" {
			t.Errorf("caller %d: result %+v, err %v", i, results[i], errs[i])
		}
	}
	for i, r := range dep.Replicas("c") {
		if n := r.AgreementCount(); n != 0 {
			t.Errorf("caller replica %d ordered %d operations, want 0", i, n)
		}
	}
}

// TestReplyFastPathIgnoresAgreedAbort is the safety half of the rule: a
// faulty caller replica may push an OpAbort for a fast-path call through
// the caller group's agreement (aborts carry no certificate). Correct
// replicas take the outcome from their own verified bundle and drop the
// agreed one, so every replica still returns the same reply bytes.
func TestReplyFastPathIgnoresAgreedAbort(t *testing.T) {
	dep := buildPair(t, 4, 4, nil)
	slowEchoApp(t, dep, "t", 150*time.Millisecond)

	results := make([]Result, 4)
	var wg sync.WaitGroup
	for i, drv := range dep.Drivers("c") {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("kept")})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = res
		}()
	}
	// The agreed abort lands while the target is still executing.
	deadline := time.Now().Add(5 * time.Second)
	for dep.Driver("c", 0).Outstanding() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("call never issued")
		}
		time.Sleep(time.Millisecond)
	}
	dep.Replicas("c")[3].voter.proposeAbort("c:1")
	wg.Wait()
	if n := dep.Replicas("c")[0].AgreementCount(); n != 1 {
		t.Fatalf("caller group ordered %d operations, want exactly the abort", n)
	}
	for i, res := range results {
		if res.Aborted || string(res.Payload) != "echo:kept" {
			t.Errorf("caller %d: %+v, want the certified echo", i, res)
		}
	}
}

// TestParkedBundleOutlivesFrame: the driver decodes reply bundles with
// their share vectors aliasing the frame, which the transport recycles
// once the handler returns. A bundle it parks for a call not issued yet
// is the one thing it keeps, so parking must copy: with the frame
// overwritten, the parked bundle still verifies and the call issued next
// settles with it.
func TestParkedBundleOutlivesFrame(t *testing.T) {
	dep := buildPair(t, 1, 4, func(d *Deployment) {
		opts := fastOpts()
		opts.RetransmitInterval = time.Minute
		d.Configure("c", opts)
	})
	dep.Network.Isolate(auth.DriverID("c", 0))
	drv := dep.Driver("c", 0)
	drv.mu.Lock()
	next := fmt.Sprintf("c:%d", drv.reqSeq+1)
	drv.mu.Unlock()
	payload := []byte("parked")
	frame := (&Message{Kind: KindReplyBundle, ReplyBundle: mintBundle(t, dep, next, payload)}).Encode()
	drv.handleTransport(auth.VoterID("t", 0), frame)
	scribble(frame)

	drv.mu.Lock()
	e, ok := drv.early.Get(next)
	drv.mu.Unlock()
	if !ok || e.bundle == nil {
		t.Fatal("the bundle was not parked")
	}
	target, err := drv.registry.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBundle(drv.ks, target, e.bundle); err != nil {
		t.Fatalf("parked bundle no longer verifies once its frame is overwritten: %v", err)
	}
	res, err := drv.Do(context.Background(), Request{Target: "t", Payload: payload, NoWait: true})
	if err != nil || res.ReqID != next {
		t.Fatalf("Do = %+v, %v; want the call %s", res, err, next)
	}
	if r, ok := takeQueuedReply(drv, next); !ok || r.Aborted || !bytes.Equal(r.Payload, payload) {
		t.Fatalf("reply %+v (queued %v), want the parked payload", r, ok)
	}
}
