package perpetual

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perpetualws/internal/auth"
	"perpetualws/internal/inbox"
	"perpetualws/internal/soap"
	"perpetualws/internal/transport"
)

// guardGoroutines fails the test when goroutines spawned during it
// survive its deployment's shutdown. Register it BEFORE building the
// deployment: t.Cleanup runs LIFO, so the guard's check runs after
// dep.Stop has torn everything down. The check is hand-rolled (count
// with a settle window, dump stacks on failure) instead of pulling in a
// leak-check dependency.
func guardGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		var now int
		for {
			now = runtime.NumGoroutine()
			// +2 tolerates runtime/testing helpers that come and go.
			if now <= before+2 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d before, %d after shutdown\n%s", before, now, buf[:n])
	})
}

// TestDoFailFastExpiredCtx covers the client edge of deadline
// propagation on both transports: a context that is already canceled or
// past its deadline must fail before any work is issued — no envelope
// on the wire, no outstanding call or read.
func TestDoFailFastExpiredCtx(t *testing.T) {
	for _, kind := range []TransportKind{TransportMem, TransportTCP} {
		kind := kind
		t.Run(fmt.Sprintf("transport=%v", kind), func(t *testing.T) {
			guardGoroutines(t)
			dep := buildPairOver(t, kind, 1, 4, nil)
			echoApp(t, dep, "t")
			drv := dep.Driver("c", 0)

			// Warm call proves the pair is live before we assert refusals.
			if _, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("warm")}); err != nil {
				t.Fatalf("warm call: %v", err)
			}
			frames := requestFramesAt(dep, "t")

			canceled, cancel := context.WithCancel(context.Background())
			cancel()
			expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel2()

			start := time.Now()
			for _, c := range []struct {
				name string
				ctx  context.Context
				req  Request
				want error
			}{
				{"canceled call", canceled, Request{Target: "t", Payload: []byte("x")}, context.Canceled},
				{"expired call", expired, Request{Target: "t", Payload: []byte("x")}, context.DeadlineExceeded},
				{"canceled read", canceled, Request{Target: "t", Payload: []byte("x"), Read: true}, context.Canceled},
				{"expired read", expired, Request{Target: "t", Payload: []byte("x"), Read: true}, context.DeadlineExceeded},
			} {
				if _, err := drv.Do(c.ctx, c.req); !errors.Is(err, c.want) {
					t.Fatalf("%s: got %v, want %v", c.name, err, c.want)
				}
			}
			if el := time.Since(start); el > 200*time.Millisecond {
				t.Fatalf("pre-expired Do took %v, not fail-fast", el)
			}
			if out, _ := driverPending(drv, ""); out != 0 {
				t.Fatalf("refused calls and reads leaked state: outstanding=%d", out)
			}
			// Nothing was sent for the refused calls: the per-voter
			// request-frame counts are exactly what the warm call left.
			if after := requestFramesAt(dep, "t"); fmt.Sprint(after) != fmt.Sprint(frames) {
				t.Fatalf("refused calls reached the wire: frames %v -> %v", frames, after)
			}
		})
	}
}

// TestClientWindowShedsLocally covers the client-edge admission window:
// with MaxOutstanding in-flight calls to a target, further Dos fail
// fast with a typed OverloadError at the cost of a map lookup — no
// frames, no crypto — and the window drains as replies settle.
func TestClientWindowShedsLocally(t *testing.T) {
	guardGoroutines(t)
	dep := buildPair(t, 1, 4, func(d *Deployment) {
		copts := fastOpts()
		copts.MaxOutstanding = 1
		d.Configure("c", copts)
	})
	slowEchoApp(t, dep, "t", 300*time.Millisecond)
	drv := dep.Driver("c", 0)

	hold := func() chan error {
		done := make(chan error, 1)
		go func() {
			_, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("hold")})
			done <- err
		}()
		waitPending(t, "holder in flight", func() bool {
			out, _ := driverPending(drv, "")
			return out == 1
		})
		return done
	}

	done := hold()
	start := time.Now()
	_, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("shed")})
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("window-full Do: got %v, want OverloadError", err)
	}
	if oe.Expired || oe.RetryAfter != DefaultRetryAfterHint {
		t.Fatalf("local shed fault not deterministic: %+v", oe)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("local shed took %v, must not touch the network", el)
	}
	if got := drv.LocalSheds(); got != 1 {
		t.Fatalf("LocalSheds = %d, want 1", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("holder failed: %v", err)
	}

	// The slot was released by the holder's reply: the window admits again.
	if _, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("after")}); err != nil {
		t.Fatalf("post-drain Do: %v", err)
	}

	// The read fast path shares the same window and the same typed fault.
	done = hold()
	_, err = drv.Do(context.Background(), Request{Target: "t", Payload: []byte("read"), Read: true})
	if _, is := IsOverload(err); !is {
		t.Fatalf("window-full read: got %v, want OverloadError", err)
	}
	if got := drv.LocalSheds(); got != 2 {
		t.Fatalf("LocalSheds = %d, want 2", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("second holder failed: %v", err)
	}
}

// TestClientWindowHeldAcrossReadFallback: a fast-path read holds its
// window slot from issue to settle, through its fallback to agreement.
// With MaxOutstanding = 1 and the read's responder (replica 1, since the
// read is the driver's first request) silent or corrupt, a Do issued
// while the read is in its fast window or in agreement is refused, and
// the read itself still answers correctly, never as shed.
func TestClientWindowHeldAcrossReadFallback(t *testing.T) {
	const delay = 400 * time.Millisecond
	for _, tc := range []struct {
		name string
		// silent isolates the responder, whose read then waits out the
		// fast window; otherwise it corrupts its read answers, and the
		// read falls back as soon as it has heard from the whole group.
		silent bool
	}{{"silent responder", true}, {"corrupt responder", false}} {
		t.Run(tc.name, func(t *testing.T) {
			guardGoroutines(t)
			dep := buildPair(t, 1, 4, func(d *Deployment) {
				copts := fastOpts()
				copts.MaxOutstanding = 1
				d.Configure("c", copts)
				if !tc.silent {
					topts := fastOpts()
					topts.Behaviors = map[int]Behavior{1: CorruptReadFault{}}
					d.Configure("t", topts)
				}
			})
			slowEchoApp(t, dep, "t", delay)
			for _, r := range dep.Replicas("t") {
				r.SetReadExecutor(func(payload []byte) ([]byte, error) {
					return append([]byte("echo:"), payload...), nil
				})
			}
			if tc.silent {
				dep.Network.Isolate(auth.VoterID("t", 1))
			}
			drv := dep.Driver("c", 0)

			type result struct {
				res Result
				err error
			}
			done := make(chan result, 1)
			go func() {
				res, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("r"), Read: true})
				done <- result{res, err}
			}()
			refused := func(phase string) {
				t.Helper()
				_, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("shed")})
				if _, is := IsOverload(err); !is {
					t.Fatalf("Do while the read is %s: got %v, want OverloadError", phase, err)
				}
			}

			waitPending(t, "read to be outstanding", func() bool {
				o, _ := driverPending(drv, "")
				return o == 1
			})
			if tc.silent {
				refused("in its fast window")
				if st := drv.ReadStats(); st.Fallbacks != 0 {
					t.Fatalf("read fell back before the fast-window refusal was checked: %+v", st)
				}
			}
			waitPending(t, "read to fall back", func() bool { return drv.ReadStats().Fallbacks == 1 })
			refused("in agreement")
			select {
			case <-done:
				t.Fatal("read settled before the agreement-phase refusal was checked")
			default:
			}

			var got result
			select {
			case got = <-done:
			case <-time.After(8 * time.Second):
				t.Fatal("read did not settle after its fallback")
			}
			if got.err != nil || got.res.Aborted || string(got.res.Payload) != "echo:r" {
				t.Fatalf("read = %q (aborted=%v), err %v; want echo:r", got.res.Payload, got.res.Aborted, got.err)
			}
			st := drv.ReadStats()
			if st.Attempts != 1 || st.Fallbacks != 1 || st.Shed != 0 {
				t.Errorf("stats = %+v, want one read that fell back", st)
			}
			if !tc.silent && dep.Replicas("t")[1].FaultFirings() == 0 {
				t.Error("the corrupt responder's fault never fired")
			}
			checkReconciles(t, st)
			// The read's settle released the slot.
			if _, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("after")}); err != nil {
				t.Fatalf("Do after the read settled: %v", err)
			}
		})
	}
}

// TestVoterExpiryGateShedsStaleEnvelope drives the voter's
// pre-admission deadline gate deterministically: an envelope whose
// expiry stamp has already passed is answered with an expired busy at
// every voter (no queueing, no agreement), and f_t+1 such refusals
// settle the call client-side as expired overload.
func TestVoterExpiryGateShedsStaleEnvelope(t *testing.T) {
	guardGoroutines(t)
	dep := buildPair(t, 1, 4, nil)
	silentApp(t, dep, "t")
	drv := dep.Driver("c", 0)

	res, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("stale"), NoWait: true})
	if err != nil {
		t.Fatalf("NoWait Do: %v", err)
	}
	tinfo, err := drv.registry.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the request's envelope with an expiry stamp in the past —
	// what a retransmission delayed past the caller's deadline looks
	// like on arrival — and hand it to every voter directly.
	req, err := drv.buildRequest(res.ReqID, tinfo, []byte("stale"), 0, 1, uint64(time.Now().UnixMilli())-1000)
	if err != nil {
		t.Fatalf("buildRequest: %v", err)
	}
	from := auth.DriverID("c", 0)
	for _, r := range dep.Replicas("t") {
		r.voter.handleExternalRequest(from, req)
	}

	reply := waitQueued(t, drv, res.ReqID)
	if !reply.Overloaded || !reply.Expired {
		t.Fatalf("want expired-overload settle, got %+v", reply)
	}
	if stats := dep.OverloadStats("t"); stats.ExpiredDrops < uint64(len(dep.Replicas("t"))) {
		t.Fatalf("ExpiredDrops = %d, want one per voter (%d)", stats.ExpiredDrops, len(dep.Replicas("t")))
	}
}

// waitQueued takes reqID's reply from the driver's event queue, failing
// the test if none arrives within 8 s.
func waitQueued(t *testing.T, drv *Driver, reqID string) Reply {
	t.Helper()
	got := make(chan Reply, 1)
	go func() {
		if r, err := drv.WaitReply(reqID); err == nil {
			got <- r
		}
	}()
	select {
	case r := <-got:
		return r
	case <-time.After(8 * time.Second):
		t.Fatalf("no reply for %s", reqID)
		return Reply{}
	}
}

// seedVote plants a synthetic intake entry at a voter (under its lock),
// so tests can stage exact intake occupancy without racing agreement.
func seedVote(v *voter, reqID string, proposed bool) {
	v.mu.Lock()
	r := v.reqs.at(reqID, "c")
	r.proposed, r.collecting = proposed, true
	r.drivers = []driverVote{{req: &RequestMsg{ReqID: reqID}}}
	v.reqs.refile(r)
	v.mu.Unlock()
}

func unseedVote(v *voter, reqID string) {
	v.mu.Lock()
	v.reqs.drop(v.reqs.recs[reqID])
	v.mu.Unlock()
}

// TestIntakeGateRefusalDeterministic stages a full intake (every slot
// already in the agreement pipeline, so eldest-first eviction has
// nothing to shed) at every voter and asserts the refusal is the
// deterministic typed fault: Expired false, RetryAfter exactly the
// configured hint, one ShedIntake per refusing voter — and that the
// group serves again once the backlog drains.
func TestIntakeGateRefusalDeterministic(t *testing.T) {
	guardGoroutines(t)
	const hint = 7 * time.Millisecond
	dep := buildPair(t, 1, 4, func(d *Deployment) {
		opts := fastOpts()
		opts.MaxIntake = 1
		opts.RetryAfterHint = hint
		d.Configure("t", opts)
		// No timer-driven retransmission: the refused request's only copies
		// are the first attempt and the one busy-triggered group fan-out.
		copts := fastOpts()
		copts.RetransmitInterval = time.Minute
		d.Configure("c", copts)
	})
	echoApp(t, dep, "t")
	drv := dep.Driver("c", 0)

	if _, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("warm")}); err != nil {
		t.Fatalf("warm call: %v", err)
	}
	for _, r := range dep.Replicas("t") {
		seedVote(r.voter, "synthetic-hold", true)
	}
	shedBefore := dep.OverloadStats("t").ShedIntake

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
	defer cancel()
	_, err := drv.Do(ctx, Request{Target: "t", Payload: []byte("refused")})
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("full-intake Do: got %v, want OverloadError", err)
	}
	if oe.Expired {
		t.Fatalf("capacity refusal marked expired: %+v", oe)
	}
	if oe.RetryAfter != hint {
		t.Fatalf("RetryAfter = %v, want the configured hint %v", oe.RetryAfter, hint)
	}
	if stats := dep.OverloadStats("t"); stats.ShedIntake < 2 {
		t.Fatalf("ShedIntake = %d, want >= f_t+1 = 2", stats.ShedIntake)
	}

	// The call settled on the first f_t+1 refusals, but fan-out copies may
	// still be in flight; drained first, one would be admitted and hold
	// the only slot. Wait until every copy was refused: one for the first
	// attempt plus one per voter for the fan-out.
	copies := uint64(1 + len(dep.Replicas("t")))
	deadline := time.Now().Add(4 * time.Second)
	for dep.OverloadStats("t").ShedIntake-shedBefore < copies {
		if time.Now().After(deadline) {
			t.Fatalf("ShedIntake grew by %d, want %d refused copies",
				dep.OverloadStats("t").ShedIntake-shedBefore, copies)
		}
		time.Sleep(time.Millisecond)
	}

	// Drain the synthetic backlog: admission resumes with no residue.
	for _, r := range dep.Replicas("t") {
		unseedVote(r.voter, "synthetic-hold")
	}
	if _, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("after")}); err != nil {
		t.Fatalf("post-drain Do: %v", err)
	}
}

// TestIntakeEvictsEldestFirst covers the CoDel-style half of the intake
// gate: when the bound is hit but an entry is not yet in the agreement
// pipeline, the ELDEST entry is shed (busying its voters) and the fresh
// request is admitted — newest-in wins, oldest waits are the ones
// already closest to their deadline.
func TestIntakeEvictsEldestFirst(t *testing.T) {
	guardGoroutines(t)
	dep := buildPair(t, 1, 4, func(d *Deployment) {
		opts := fastOpts()
		opts.MaxIntake = 1
		d.Configure("t", opts)
	})
	echoApp(t, dep, "t")
	drv := dep.Driver("c", 0)
	prim := dep.Replicas("t")[0].voter

	seedVote(prim, "synthetic-eldest", false)
	if _, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("fresh")}); err != nil {
		t.Fatalf("fresh request must be admitted over the eldest: %v", err)
	}
	if got := prim.reqs.shedIntake.Load(); got != 1 {
		t.Fatalf("primary ShedIntake = %d, want exactly 1 (the eviction)", got)
	}
	prim.mu.Lock()
	r := prim.reqs.recs["synthetic-eldest"]
	still := r != nil && r.collecting
	prim.mu.Unlock()
	if still {
		t.Fatal("eldest entry still in intake after eviction")
	}
}

// TestReadShedsBeforeAgreement covers graceful degradation: when the
// voters are under request pressure, session-tier reads are refused
// FIRST (cheap busy, ShedReads counter, typed OverloadError — no
// fallback that would amplify load onto the agreement path) while
// agreement-path calls keep being served at the same intake level.
func TestReadShedsBeforeAgreement(t *testing.T) {
	guardGoroutines(t)
	dep := buildPair(t, 1, 4, func(d *Deployment) {
		opts := fastOpts()
		opts.MaxIntake = 8 // readShedAt = 4
		d.Configure("t", opts)
	})
	echoApp(t, dep, "t")
	drv := dep.Driver("c", 0)

	// Stage read pressure: intake gauge at the shed threshold on every
	// voter, but with room left for agreement requests (4 < MaxIntake).
	for _, r := range dep.Replicas("t") {
		for i := 0; i < 4; i++ {
			seedVote(r.voter, fmt.Sprintf("synthetic-%d", i), true)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	_, err := drv.Do(ctx, Request{Target: "t", Payload: []byte("pressured-read"), Read: true})
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Expired {
		t.Fatalf("read under pressure: got %v, want capacity OverloadError", err)
	}
	if stats := dep.OverloadStats("t"); stats.ShedReads < 2 {
		t.Fatalf("ShedReads = %d, want >= f_t+1 = 2", stats.ShedReads)
	}
	// The same intake level leaves room for agreement-path calls: commit
	// goodput survives while reads shed.
	res, err := drv.Do(ctx, Request{Target: "t", Payload: []byte("write")})
	if err != nil {
		t.Fatalf("agreement call under read-shed pressure: %v", err)
	}
	if !bytes.Equal(res.Payload, []byte("echo:write")) {
		t.Fatalf("agreement call payload = %q", res.Payload)
	}
	for _, r := range dep.Replicas("t") {
		for i := 0; i < 4; i++ {
			unseedVote(r.voter, fmt.Sprintf("synthetic-%d", i))
		}
	}
}

// TestByzantineBusyQuorum pins the f_t+1 rule from both sides: a lone
// Byzantine voter lying about overload (n=4, f=1) must NOT abort a call
// that the rest of the group is serving, while f_t+1 distinct refusals
// settle it as overloaded with the largest hint.
func TestByzantineBusyQuorum(t *testing.T) {
	guardGoroutines(t)
	dep := buildPair(t, 1, 4, nil)
	slowEchoApp(t, dep, "t", 300*time.Millisecond)
	drv := dep.Driver("c", 0)

	// One lying voter: the call completes with the real echo payload.
	res, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("lone-liar"), NoWait: true})
	if err != nil {
		t.Fatal(err)
	}
	drv.handleBusy(auth.VoterID("t", 3), &BusyReply{ReqID: res.ReqID, Replica: 3, RetryAfterMillis: 50})
	reply := waitQueued(t, drv, res.ReqID)
	if reply.Overloaded || reply.Aborted {
		t.Fatalf("lone busy aborted the call: %+v", reply)
	}
	if !bytes.Equal(reply.Payload, []byte("echo:lone-liar")) {
		t.Fatalf("reply payload = %q", reply.Payload)
	}

	// f_t+1 distinct refusals: deterministic overload settle carrying
	// the largest hint among the refusers.
	res, err = drv.Do(context.Background(), Request{Target: "t", Payload: []byte("quorum"), NoWait: true})
	if err != nil {
		t.Fatal(err)
	}
	drv.handleBusy(auth.VoterID("t", 2), &BusyReply{ReqID: res.ReqID, Replica: 2, RetryAfterMillis: 5})
	drv.handleBusy(auth.VoterID("t", 3), &BusyReply{ReqID: res.ReqID, Replica: 3, RetryAfterMillis: 10})
	reply = waitQueued(t, drv, res.ReqID)
	if !reply.Overloaded || reply.RetryAfterMillis != 10 {
		t.Fatalf("want overloaded settle with max hint 10ms, got %+v", reply)
	}
	// A duplicate refusal from the same replica must never count toward
	// the quorum: one more busy from replica 3 for a fresh request
	// leaves it live.
	res, err = drv.Do(context.Background(), Request{Target: "t", Payload: []byte("dup"), NoWait: true})
	if err != nil {
		t.Fatal(err)
	}
	drv.handleBusy(auth.VoterID("t", 3), &BusyReply{ReqID: res.ReqID, Replica: 3, RetryAfterMillis: 5})
	drv.handleBusy(auth.VoterID("t", 3), &BusyReply{ReqID: res.ReqID, Replica: 3, RetryAfterMillis: 5})
	reply = waitQueued(t, drv, res.ReqID)
	if reply.Overloaded {
		t.Fatalf("duplicate busys from one replica formed a quorum: %+v", reply)
	}
}

// TestOverloadSOAPFaultDeterministic pins the application-visible form
// of a rejection: the RETRY-AFTER SOAP fault is byte-identical across
// independent constructions (every correct replica of a replicated
// caller must synthesize the same fault) and round-trips its hint.
func TestOverloadSOAPFaultDeterministic(t *testing.T) {
	for _, after := range []time.Duration{0, 7 * time.Millisecond, DefaultRetryAfterHint, time.Second} {
		f := soap.RetryAfterFault(after)
		if got, ok := soap.DecodeRetryAfter(f); !ok || got != after {
			t.Fatalf("DecodeRetryAfter(%v) = %v, %v", after, got, ok)
		}
		a, err := (&soap.Envelope{Body: soap.FaultBody(f)}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		b, err := (&soap.Envelope{Body: soap.FaultBody(soap.RetryAfterFault(after))}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("RETRY-AFTER fault for %v is not byte-deterministic", after)
		}
	}
	if _, ok := soap.DecodeRetryAfter(soap.Fault{Code: "soap:Receiver", Reason: "x"}); ok {
		t.Fatal("DecodeRetryAfter accepted a non-overload fault")
	}
}

// TestRetryPolicy covers the client-side resilience policy against a
// deliberately saturated client window (MaxOutstanding=1 with a slow
// holder in flight): budgeted retries, RETRY-AFTER honoring, bounded
// concurrency, and prompt cancellation mid-backoff.
func TestRetryPolicy(t *testing.T) {
	guardGoroutines(t)
	dep := buildPair(t, 1, 4, func(d *Deployment) {
		copts := fastOpts()
		copts.MaxOutstanding = 1
		d.Configure("c", copts)
	})
	slowEchoApp(t, dep, "t", 400*time.Millisecond)
	drv := dep.Driver("c", 0)

	hold := func() chan error {
		done := make(chan error, 1)
		go func() {
			_, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("hold")})
			done <- err
		}()
		waitPending(t, "holder in flight", func() bool {
			out, _ := driverPending(drv, "")
			return out == 1
		})
		return done
	}
	drain := func(done chan error) {
		t.Helper()
		if err := <-done; err != nil {
			t.Fatalf("holder failed: %v", err)
		}
	}

	t.Run("budget and retry-after", func(t *testing.T) {
		done := hold()
		defer drain(done)
		base := drv.LocalSheds()
		p := &RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Jitter: -1}
		start := time.Now()
		_, err := p.Do(context.Background(), drv, Request{Target: "t", Payload: []byte("x")})
		if _, is := IsOverload(err); !is {
			t.Fatalf("exhausted budget: got %v, want OverloadError", err)
		}
		if got := drv.LocalSheds() - base; got != 3 {
			t.Fatalf("attempts = %d, want exactly MaxAttempts = 3", got)
		}
		// Two backoffs, each raised to the 25ms RETRY-AFTER hint the
		// local shed carries (jitter disabled).
		if el := time.Since(start); el < 2*DefaultRetryAfterHint {
			t.Fatalf("elapsed %v, policy did not honor the RETRY-AFTER hint", el)
		}
	})

	t.Run("retry succeeds once window drains", func(t *testing.T) {
		done := hold()
		base := drv.LocalSheds()
		p := &RetryPolicy{MaxAttempts: 50, BaseBackoff: 5 * time.Millisecond, Jitter: -1}
		res, err := p.Do(context.Background(), drv, Request{Target: "t", Payload: []byte("eventually")})
		if err != nil {
			t.Fatalf("policy.Do: %v", err)
		}
		if !bytes.Equal(res.Payload, []byte("echo:eventually")) {
			t.Fatalf("payload = %q", res.Payload)
		}
		if drv.LocalSheds() == base {
			t.Fatal("test staged no contention: first attempt was admitted")
		}
		drain(done)
	})

	t.Run("cancel during backoff", func(t *testing.T) {
		done := hold()
		defer drain(done)
		p := &RetryPolicy{MaxAttempts: 10, BaseBackoff: 10 * time.Second, Jitter: -1}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := p.Do(ctx, drv, Request{Target: "t", Payload: []byte("x")})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("cancel took %v to interrupt backoff", el)
		}
	})

	t.Run("bounded concurrency", func(t *testing.T) {
		p := &RetryPolicy{MaxAttempts: 1, MaxConcurrent: 1}
		var wg sync.WaitGroup
		wg.Add(1)
		first := make(chan error, 1)
		go func() {
			defer wg.Done()
			_, err := p.Do(context.Background(), drv, Request{Target: "t", Payload: []byte("slot")})
			first <- err
		}()
		// The slow echo keeps the first call inside the policy long
		// enough for the second to block on the limiter.
		waitPending(t, "limited call in flight", func() bool {
			out, _ := driverPending(drv, "")
			return out == 1
		})
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if _, err := p.Do(ctx, drv, Request{Target: "t", Payload: []byte("x")}); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("limiter wait: got %v, want context.DeadlineExceeded", err)
		}
		wg.Wait()
		if err := <-first; err != nil {
			t.Fatalf("slot holder failed: %v", err)
		}
	})
}

// The overload sweep: a one-replica caller with an 8-request client
// window drives an n=4 target whose intake and proposer queue are
// bounded at 8, every request carrying a 200 ms deadline. The caller
// first measures the target's closed-loop peak, then offers open-loop
// load at a multiple of it. Every issued request must classify as
// admitted, shed (a typed refusal) or expired, and every refusal the
// caller settled at the target must be backed by the f_t+1 refusals the
// target voters counted themselves.
const (
	sweepIntake   = 8
	sweepDeadline = 200 * time.Millisecond
	sweepWindow   = 400 * time.Millisecond
)

// startOverloadSweep builds the sweep's pair, warms it with one write
// (which also opens the session lease reads gate on) and returns the
// caller's driver and the target's calibrated closed-loop peak in
// requests per second.
func startOverloadSweep(t *testing.T) (*Deployment, *Driver, float64) {
	t.Helper()
	dep := buildPair(t, 1, 4, func(d *Deployment) {
		// Long suspicion and retransmission timers: a saturated run must
		// not view-change, and refusals, not retransmissions, settle the
		// excess.
		opts := ServiceOptions{
			CheckpointInterval: 256,
			ViewChangeTimeout:  10 * time.Second,
			RetransmitInterval: 10 * time.Second,
		}
		copts := opts
		copts.MaxOutstanding = sweepIntake
		d.Configure("c", copts)
		opts.MaxIntake = sweepIntake
		opts.MaxProposerQueue = sweepIntake
		opts.RetryAfterHint = 5 * time.Millisecond
		d.Configure("t", opts)
	})
	readableEchoApp(t, dep, "t")
	drv := dep.Driver("c", 0)
	if _, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("warm")}); err != nil {
		t.Fatalf("warm call: %v", err)
	}

	// Four closed-loop workers for one window; refusals and expiries
	// under calibration pressure are neither goodput nor errors.
	var done atomic.Uint64
	end := time.Now().Add(sweepWindow)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				ctx, cancel := context.WithTimeout(context.Background(), sweepDeadline)
				_, err := drv.Do(ctx, Request{Target: "t", Payload: []byte("cal")})
				cancel()
				if _, shed := IsOverload(err); err != nil && !shed && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("calibration call: %v", err)
					return
				}
				if err == nil {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	peak := float64(done.Load()) / sweepWindow.Seconds()
	if peak <= 0 {
		t.Fatalf("calibration measured zero peak")
	}
	return dep, drv, peak
}

// sweepPoint is the outcome of one offered-load point.
type sweepPoint struct {
	offered, admitted, shed, expired uint64
	admittedWrites                   uint64
	// shedAtTarget and expiredAtTarget are the refusals settled by the
	// target voters' busy quorum (shed excludes the caller's own window
	// refusals); voters is the target's counters over the point.
	shedAtTarget, expiredAtTarget uint64
	voters                        OverloadStats
}

// offerLoad issues requests open-loop at rate per second for one window,
// readPct of every hundred declared reads, and classifies every outcome.
// Pacing sleeps toward each request's scheduled issue time; a host that
// cannot keep pace issues in bursts, which is still an overload arrival
// process.
func offerLoad(t *testing.T, dep *Deployment, drv *Driver, rate float64, readPct int) sweepPoint {
	t.Helper()
	total := max(1, int(rate*sweepWindow.Seconds()))
	interval := sweepWindow / time.Duration(total)
	before, localBefore := dep.OverloadStats("t"), drv.LocalSheds()

	var mu sync.Mutex
	var p sweepPoint
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
		read := i%100 < readPct
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), sweepDeadline)
			defer cancel()
			res, err := drv.Do(ctx, Request{Target: "t", Payload: []byte("ov"), Read: read})
			var oe *OverloadError
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && !res.Aborted:
				p.admitted++
				if !read {
					p.admittedWrites++
				}
			case errors.As(err, &oe) && oe.Expired:
				p.expired++
				p.expiredAtTarget++
			case errors.As(err, &oe):
				p.shed++
			case err == nil, errors.Is(err, context.DeadlineExceeded):
				// An agreed timeout abort expired it inside the pipeline,
				// or its deadline ran out at the caller.
				p.expired++
			default:
				t.Errorf("request outside the overload classes: %v", err)
			}
		}()
	}
	wg.Wait()

	p.offered = uint64(total)
	p.shedAtTarget = p.shed - min(p.shed, drv.LocalSheds()-localBefore)
	after := dep.OverloadStats("t")
	p.voters = OverloadStats{
		ShedIntake:   after.ShedIntake - before.ShedIntake,
		ShedProposer: after.ShedProposer - before.ShedProposer,
		ShedReads:    after.ShedReads - before.ShedReads,
		ExpiredDrops: after.ExpiredDrops - before.ExpiredDrops,
	}
	return p
}

// check asserts a point's accounting: admitted + shed + expired =
// offered, and the target voters counted at least the refusals the
// caller settled on — f_t+1 = 2 capacity refusals per shed, an expiry
// drop per expired refusal.
func (p sweepPoint) check(t *testing.T, label string) {
	t.Helper()
	t.Logf("%s: offered %d, admitted %d (%d writes), shed %d (%d at target), expired %d; voters %+v",
		label, p.offered, p.admitted, p.admittedWrites, p.shed, p.shedAtTarget, p.expired, p.voters)
	if got := p.admitted + p.shed + p.expired; got != p.offered {
		t.Errorf("%s: %d admitted + %d shed + %d expired != %d offered",
			label, p.admitted, p.shed, p.expired, p.offered)
	}
	if refusals := p.voters.ShedIntake + p.voters.ShedProposer + p.voters.ShedReads; refusals < 2*p.shedAtTarget {
		t.Errorf("%s: target voters counted %d capacity refusals, fewer than f_t+1 for each of the %d sheds settled at the target",
			label, refusals, p.shedAtTarget)
	}
	if p.voters.ExpiredDrops < p.expiredAtTarget {
		t.Errorf("%s: target voters counted %d expiry drops for %d expired refusals",
			label, p.voters.ExpiredDrops, p.expiredAtTarget)
	}
}

// TestOverloadSweepAccounting offers 1x and 2x the calibrated peak: every
// request is classified, the voters' counters back the caller's, and
// goodput survives past saturation.
func TestOverloadSweepAccounting(t *testing.T) {
	guardGoroutines(t)
	dep, drv, peak := startOverloadSweep(t)
	for _, load := range []float64{1, 2} {
		label := fmt.Sprintf("%gx", load)
		p := offerLoad(t, dep, drv, load*peak, 0)
		p.check(t, label)
		if p.admitted == 0 {
			t.Errorf("%s: zero goodput", label)
		}
	}
}

// TestOverloadSweepReadMix is the graceful-degradation point: at 2x the
// peak with 95% declared reads, reads shed first and commit goodput
// stays alive.
func TestOverloadSweepReadMix(t *testing.T) {
	guardGoroutines(t)
	dep, drv, peak := startOverloadSweep(t)
	p := offerLoad(t, dep, drv, 2*peak, 95)
	p.check(t, "2x, 95% reads")
	if p.admittedWrites == 0 {
		t.Errorf("2x read-heavy overload: zero commit goodput")
	}
}

// TestIntakeLaneFloodAnswersBusy: once laneDepth client frames wait on
// the lane, a request or a read is refused with a busy to its driver and
// counted as a shed; below the bound nothing is refused.
func TestIntakeLaneFloodAnswersBusy(t *testing.T) {
	net := transport.NewNetwork()
	t.Cleanup(func() { net.Close() })
	v, _, stores := newBareVoterOn(t, net)
	drv := auth.DriverID("c", 0)
	busy := make(chan BusyReply, 2)
	transport.NewChannelAdapter(stores[drv], net.Port(drv)).SetHandler(func(_ auth.NodeID, payload []byte) {
		if m, err := DecodeMessage(payload); err == nil && m.Kind == KindBusy {
			busy <- *m.Busy
		}
	})
	v.clientLane = inbox.New[laneItem](laneDepth) // a lane whose worker never takes
	req := (&Message{Kind: KindRequest, Request: signedRequest(t, stores, 0, "c:1", []byte("p"), 0)}).Encode()
	for range laneDepth {
		v.enqueueClient(drv, req)
	}
	if v.reqs.shedIntake.Load() != 0 || len(busy) != 0 {
		t.Fatal("a frame below laneDepth was refused")
	}
	read := (&Message{Kind: KindReadRequest, ReadRequest: &ReadRequest{ReqID: "c:2", Caller: "c", Target: "t"}}).Encode()
	v.enqueueClient(drv, req)
	v.enqueueClient(drv, read)
	for _, want := range []BusyReply{{ReqID: "c:1"}, {ReqID: "c:2", Read: true}} {
		select {
		case got := <-busy:
			if got.ReqID != want.ReqID || got.Read != want.Read {
				t.Fatalf("busy %+v, want one for %s (read %v)", got, want.ReqID, want.Read)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no busy for %s", want.ReqID)
		}
	}
	if v.reqs.shedIntake.Load() != 1 || v.shedReads.Load() != 1 {
		t.Fatalf("sheds: intake %d, reads %d; want 1 each", v.reqs.shedIntake.Load(), v.shedReads.Load())
	}
}
