package perpetual

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"perpetualws/internal/auth"
)

// readableEchoApp runs the echo executor on the target AND installs a
// matching speculative read executor on every target replica, so reads
// answer identically whether they certify on the fast path or fall back
// through agreement.
func readableEchoApp(t *testing.T, dep *Deployment, service string, replicas ...int) {
	t.Helper()
	echoApp(t, dep, service)
	all := dep.Replicas(service)
	if len(replicas) == 0 {
		for i := range all {
			replicas = append(replicas, i)
		}
	}
	for _, i := range replicas {
		all[i].SetReadExecutor(func(payload []byte) ([]byte, error) {
			return append([]byte("echo:"), payload...), nil
		})
	}
}

func TestReadFastPathCertifies(t *testing.T) {
	dep := buildPair(t, 1, 4, nil)
	readableEchoApp(t, dep, "t")
	drv := dep.Drivers("c")[0]

	reqID, err := issue(drv, Request{Target: "t", Payload: []byte("ping"), Timeout: time.Second, Read: true})
	if err != nil {
		t.Fatalf("read Do: %v", err)
	}
	r, err := drv.WaitReply(reqID)
	if err != nil {
		t.Fatalf("WaitReply: %v", err)
	}
	if r.Aborted || string(r.Payload) != "echo:ping" {
		t.Fatalf("read reply = %q (aborted=%v), want echo:ping", r.Payload, r.Aborted)
	}
	st := drv.ReadStats()
	if st.Attempts != 1 || st.Certified != 1 || st.Fallbacks != 0 {
		t.Errorf("stats = %+v, want 1 attempt certified without fallback", st)
	}
}

func TestReadAfterWriteSeesLeaseAndAdvancesFloor(t *testing.T) {
	dep := buildPair(t, 1, 4, nil)
	readableEchoApp(t, dep, "t")
	drv := dep.Drivers("c")[0]

	// A completed write raises the session's lease to the position its
	// verified bundle was minted at, the position every replica of t
	// executed it at...
	wid, err := issue(drv, Request{Target: "t", Payload: []byte("write"), Timeout: time.Second})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if _, err := drv.WaitReply(wid); err != nil {
		t.Fatalf("WaitReply(write): %v", err)
	}
	drv.mu.Lock()
	lease := drv.readFloor["t"]
	drv.mu.Unlock()
	for i, r := range dep.Replicas("t") {
		waitPending(t, "the write's result at every replica", func() bool { return r.voter.execPos.Load() >= lease })
		r.voter.mu.Lock()
		rec := r.voter.reqs.recs[wid]
		r.voter.mu.Unlock()
		if lease == 0 || rec == nil || rec.pos != lease {
			t.Fatalf("lease %#x after the write, replica %d executed it at %+v", lease, i, rec)
		}
	}

	// ...and the next fast-path read both certifies (replicas hold the
	// read until their horizons pass the lease) and keeps the floor at
	// or above it for later reads.
	rid, err := issue(drv, Request{Target: "t", Payload: []byte("r1"), Timeout: time.Second, Read: true})
	if err != nil {
		t.Fatalf("read Do: %v", err)
	}
	r, err := drv.WaitReply(rid)
	if err != nil {
		t.Fatalf("WaitReply(read): %v", err)
	}
	if string(r.Payload) != "echo:r1" {
		t.Fatalf("read reply = %q", r.Payload)
	}
	drv.mu.Lock()
	floor := drv.readFloor["t"]
	drv.mu.Unlock()
	if floor < lease {
		t.Errorf("certified read moved the floor from %#x down to %#x", lease, floor)
	}
	if st := drv.ReadStats(); st.Certified != 1 {
		t.Errorf("stats = %+v, want the read certified on the fast path", st)
	}
}

// keySetApp runs a set of keys on every replica of service: an agreed
// "w:k" adds k and answers "ok"; anything else, agreed or read on the
// fast path, answers the sorted keys.
func keySetApp(dep *Deployment, service string) {
	for i, drv := range dep.Drivers(service) {
		var mu sync.Mutex
		var keys []string
		read := func([]byte) ([]byte, error) {
			mu.Lock()
			defer mu.Unlock()
			return []byte(strings.Join(keys, ",")), nil
		}
		dep.Replicas(service)[i].SetReadExecutor(read)
		go func() {
			for {
				req, err := drv.NextRequest()
				if err != nil {
					return
				}
				out, _ := read(nil)
				if k, ok := strings.CutPrefix(string(req.Payload), "w:"); ok {
					mu.Lock()
					keys = append(keys, k)
					slices.Sort(keys)
					mu.Unlock()
					out = []byte("ok")
				}
				if drv.Reply(req, out) != nil {
					return
				}
			}
		}()
	}
}

// TestReadYourWritesAcrossSessions runs two sessions of one unreplicated
// driver against one target group whose writes batch, with one
// replica's links jittered by a seeded delay. Each session writes a key
// and then reads the set: every read, certified or fallen back, must
// hold every key either session saw written before it issued the read.
// The bare-voter rows of TestVoterReadGate pin the two orders that used
// to break this; here they meet the whole path.
func TestReadYourWritesAcrossSessions(t *testing.T) {
	const sessions, writes, slow = 2, 15, 3
	dep := buildPair(t, 1, 4, func(d *Deployment) {
		opts := fastOpts()
		opts.MaxBatch = 8
		d.Configure("t", opts)
	})
	keySetApp(dep, "t")
	var rngMu sync.Mutex
	rng := rand.New(rand.NewSource(47))
	dep.Network.SetLatency(func(from, to auth.NodeID) time.Duration {
		if from != auth.VoterID("t", slow) && to != auth.VoterID("t", slow) {
			return 0
		}
		rngMu.Lock()
		defer rngMu.Unlock()
		return time.Duration(rng.Intn(3000)) * time.Microsecond
	})
	drv := dep.Drivers("c")[0]

	var mu sync.Mutex
	var written []string // keys whose write returned, in either session
	var wg sync.WaitGroup
	for s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range writes {
				key := fmt.Sprintf("s%d-%02d", s, k)
				res, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("w:" + key), Timeout: 5 * time.Second})
				if err != nil || res.Aborted {
					t.Errorf("write %s: %v (aborted %v)", key, err, res.Aborted)
					return
				}
				mu.Lock()
				written = append(written, key)
				seen := slices.Clone(written)
				mu.Unlock()
				res, err = drv.Do(context.Background(), Request{Target: "t", Payload: []byte("r"), Timeout: 5 * time.Second, Read: true})
				if err != nil || res.Aborted {
					t.Errorf("read after %s: %v (aborted %v)", key, err, res.Aborted)
					return
				}
				have := strings.Split(string(res.Payload), ",")
				for _, w := range seen {
					if !slices.Contains(have, w) {
						t.Errorf("read after %s misses %s, written before it was issued: %q", key, w, res.Payload)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	st := drv.ReadStats()
	if st.Attempts != sessions*writes || st.Certified == 0 {
		t.Errorf("stats = %+v, want %d reads, some certified on the fast path", st, sessions*writes)
	}
	checkReconciles(t, st)
}

// readOnce issues one fast-path read and waits for its answer.
func readOnce(t *testing.T, drv *Driver, body string, timeout time.Duration) (string, Reply) {
	t.Helper()
	id, err := issue(drv, Request{Target: "t", Payload: []byte(body), Timeout: timeout, Read: true})
	if err != nil {
		t.Fatalf("read Do %s: %v", body, err)
	}
	r, err := drv.WaitReply(id)
	if err != nil {
		t.Fatalf("WaitReply %s: %v", body, err)
	}
	return id, r
}

// checkEcho fails the test unless r is the echo answer to body.
func checkEcho(t *testing.T, body string, r Reply) {
	t.Helper()
	if want := "echo:" + body; r.Aborted || string(r.Payload) != want {
		t.Fatalf("read %s answered %q (aborted=%v), want %q — wrong answer surfaced", body, r.Payload, r.Aborted, want)
	}
}

// responderOf is the designated responder of read id in an n-replica
// target group.
func responderOf(t *testing.T, id string, n int) int {
	t.Helper()
	seq, ok := callerReqSeq(id, "c")
	if !ok {
		t.Fatalf("unparseable request id %q", id)
	}
	return int(seq % uint64(n))
}

// checkReconciles fails the test unless every read attempt ended in
// exactly one outcome.
func checkReconciles(t *testing.T, st ReadStats) {
	t.Helper()
	if st.Certified+st.Fallbacks+st.Shed+st.Canceled != st.Attempts {
		t.Errorf("stats do not reconcile: %+v", st)
	}
}

// TestByzantineReadDivergenceTable drives the fast path against one
// Byzantine (or missing) read endorser per case and asserts the client
// detects fewer than f_t+1 matching current endorsements among the
// replicas it asked, widens to the rest of the group when that can
// still certify, falls back to agreement deterministically when it
// cannot, and never surfaces a wrong or stale answer.
func TestByzantineReadDivergenceTable(t *testing.T) {
	cases := []struct {
		name string
		// fault runs on replica faulty (none when nil). That replica
		// partners the first read, whose responder is the read's request
		// number mod 4 and whose partner is the next replica (no read has
		// certified yet), and responds to every fourth read after.
		fault  Behavior
		faulty int
		// install limits which replicas get a read executor.
		install []int
		// writeFirst establishes a nonzero sequence floor before the
		// reads, so stale (seq 0) endorsements are rejectable.
		writeFirst bool
		// wantCertified: some reads certify on the fast path; then the
		// fallbacks are exactly the reads the faulty replica responded
		// to. Otherwise every read falls back.
		wantCertified bool
	}{
		{
			// The corrupt replica forges result bytes (self-consistent
			// digest). As a partner it splits the first f_t+1 answers, so
			// the read widens and certifies on the rest of the group; as
			// the designated responder its payload does not bind to the
			// certified digest, so the read falls back.
			name:          "forged digest",
			fault:         CorruptReadFault{},
			faulty:        2,
			wantCertified: true,
		},
		{
			// The stale replica claims currency while serving old state
			// with sequence stamp 0. As the first read's partner (floor
			// still 0) its endorsement diverges and the read widens; once
			// the session floor is nonzero its endorsements are rejected
			// outright. As responder it cannot produce a bindable payload
			// either way.
			name:          "stale sequence",
			fault:         StaleReadFault{},
			faulty:        3,
			writeFirst:    true,
			wantCertified: true,
		},
		{
			// Only one replica serves reads at all: f_t+1 matching
			// endorsements are impossible, every read falls back.
			name:    "short quorum",
			install: []int{0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dep := buildPair(t, 1, 4, func(dep *Deployment) {
				if tc.fault == nil {
					return
				}
				opts := fastOpts()
				opts.Behaviors = map[int]Behavior{tc.faulty: tc.fault}
				dep.Configure("t", opts)
			})
			readableEchoApp(t, dep, "t", tc.install...)
			drv := dep.Drivers("c")[0]

			if tc.writeFirst {
				wid, err := issue(drv, Request{Target: "t", Payload: []byte("w"), Timeout: time.Second})
				if err != nil {
					t.Fatalf("Do: %v", err)
				}
				if _, err := drv.WaitReply(wid); err != nil {
					t.Fatalf("WaitReply(write): %v", err)
				}
			}
			// Enough reads that the responder rotation passes through the
			// faulty replica twice.
			const reads = 8
			asResponder := 0
			for k := 0; k < reads; k++ {
				body := fmt.Sprintf("r%d", k)
				id, r := readOnce(t, drv, body, 2*time.Second)
				checkEcho(t, body, r)
				if k == 0 && tc.fault != nil && responderOf(t, id, 4)+1 != tc.faulty {
					t.Fatalf("first read %s: faulty replica %d is not its partner", id, tc.faulty)
				}
				if tc.fault != nil && responderOf(t, id, 4) == tc.faulty {
					asResponder++
				}
			}
			if tc.fault != nil && dep.Replicas("t")[tc.faulty].FaultFirings() == 0 {
				t.Errorf("the %T on replica %d never fired", tc.fault, tc.faulty)
			}
			st := drv.ReadStats()
			if st.Attempts != reads {
				t.Errorf("attempts = %d, want %d", st.Attempts, reads)
			}
			checkReconciles(t, st)
			if !tc.wantCertified {
				if st.Certified != 0 || st.Fallbacks != reads {
					t.Errorf("expected every read to fall back with a short quorum, got %+v", st)
				}
				return
			}
			if st.Fallbacks != uint64(asResponder) {
				t.Errorf("fallbacks = %d, want %d (the reads the faulty replica responded to): %+v", st.Fallbacks, asResponder, st)
			}
			if st.Widened == 0 {
				t.Errorf("a faulty partner never widened a read: %+v", st)
			}
		})
	}
}

// TestReadAsksFPlusOne pins the fast path's message account on a
// fault-free group: each read asks f_t+1 = 2 of the n = 4 replicas, so
// it costs two request frames and two reply frames, and never widens.
func TestReadAsksFPlusOne(t *testing.T) {
	dep := buildPair(t, 1, 4, nil)
	readableEchoApp(t, dep, "t")
	drv := dep.Drivers("c")[0]
	readFrames := func() (req, rep uint64) {
		s := dep.TransportStats()
		return s.Class(uint8(KindReadRequest)).SentMsgs, s.Class(uint8(KindReadReply)).SentMsgs
	}

	req0, rep0 := readFrames()
	const reads = 100
	for k := 0; k < reads; k++ {
		body := fmt.Sprintf("r%d", k)
		_, r := readOnce(t, drv, body, time.Second)
		checkEcho(t, body, r)
	}
	req1, rep1 := readFrames()
	if req1-req0 != 2*reads || rep1-rep0 != 2*reads {
		t.Errorf("%d reads sent %d request and %d reply frames, want %d of each", reads, req1-req0, rep1-rep0, 2*reads)
	}
	st := drv.ReadStats()
	if st.Certified != reads || st.Fallbacks != 0 || st.Widened != 0 {
		t.Errorf("stats = %+v, want all %d reads certified without widening or fallback", st, reads)
	}
	checkReconciles(t, st)
}

// TestReadSilentReplica isolates one target voter. A silent replica
// costs a fast window whenever it is the responder — no other replica
// sends the payload, so the read falls back — but as a partner at most
// once: partners are the last certified read's endorsers, so after one
// widening the silent replica is no longer asked first.
func TestReadSilentReplica(t *testing.T) {
	const n, silent = 4, 2
	dep := buildPair(t, 1, n, nil)
	readableEchoApp(t, dep, "t")
	dep.Network.Isolate(auth.VoterID("t", silent))
	drv := dep.Drivers("c")[0]

	const reads = 40
	asResponder, slow := 0, 0
	for k := 0; k < reads; k++ {
		body := fmt.Sprintf("r%d", k)
		start := time.Now()
		id, r := readOnce(t, drv, body, 5*time.Second)
		if time.Since(start) >= DefaultReadFallback {
			slow++
		}
		checkEcho(t, body, r)
		if responderOf(t, id, n) == silent {
			asResponder++
		}
	}
	st := drv.ReadStats()
	if st.Fallbacks != uint64(asResponder) {
		t.Errorf("fallbacks = %d, want %d (the reads the silent replica responded to): %+v", st.Fallbacks, asResponder, st)
	}
	if slow > asResponder+1 {
		t.Errorf("%d of %d reads took a full fast window, want at most %d", slow, reads, asResponder+1)
	}
	if st.Widened == 0 {
		t.Errorf("the silent replica never widened a read: %+v", st)
	}
	checkReconciles(t, st)
}

// TestReadHonoursDeadline isolates the responder of a read issued with
// a 40 ms timeout: the read's deadline timer, armed at issue, fires
// inside the fast window, so the read settles as aborted at its
// deadline rather than after a full DefaultReadFallback window.
func TestReadHonoursDeadline(t *testing.T) {
	dep := buildPair(t, 1, 4, nil)
	readableEchoApp(t, dep, "t")
	drv := dep.Drivers("c")[0]
	// The driver's first request is c:1, so replica 1 responds.
	dep.Network.Isolate(auth.VoterID("t", 1))

	const timeout = 40 * time.Millisecond
	start := time.Now()
	id, r := readOnce(t, drv, "late", timeout)
	elapsed := time.Since(start)
	if responderOf(t, id, 4) != 1 {
		t.Fatalf("read %s is not answered by the isolated replica 1", id)
	}
	if !r.Aborted {
		t.Fatalf("read answered %q, want an abort at its deadline", r.Payload)
	}
	if elapsed > timeout+25*time.Millisecond {
		t.Errorf("read settled after %v, want within %v of its %v deadline", elapsed, 25*time.Millisecond, timeout)
	}
	checkReconciles(t, drv.ReadStats())
}

func TestReadOnUnreplicatedCallerDegradesToAgreement(t *testing.T) {
	// Replicated callers must not take the fast path: fast replies are
	// delivered locally without agreement, which would diverge the
	// replicated executors. A Read request from an N>1 caller degrades to
	// a normal agreed call.
	dep := buildPair(t, 2, 4, nil)
	readableEchoApp(t, dep, "t")

	reqID := ""
	for i, drv := range dep.Drivers("c") {
		id, err := issue(drv, Request{Target: "t", Payload: []byte("x"), Timeout: time.Second, Read: true})
		if err != nil {
			t.Fatalf("read Do from c/%d: %v", i, err)
		}
		if reqID == "" {
			reqID = id
		}
	}
	r := awaitAll(t, dep, "c", reqID)
	if string(r.Payload) != "echo:x" {
		t.Fatalf("reply = %q", r.Payload)
	}
	for i, drv := range dep.Drivers("c") {
		if st := drv.ReadStats(); st.Attempts != 0 {
			t.Errorf("driver c/%d took the fast path from a replicated caller: %+v", i, st)
		}
	}
}

func TestReadMessageCodecRoundTrip(t *testing.T) {
	rr := &ReadRequest{
		ReqID: "c:12", Caller: "c", Target: "t",
		Responder: 2, MinSeq: 0x70003,
		Payload: []byte("<interaction/>"),
	}
	m := &Message{Kind: KindReadRequest, ReadRequest: rr}
	got, err := DecodeMessage(m.Encode())
	if err != nil {
		t.Fatalf("DecodeMessage(ReadRequest): %v", err)
	}
	if !reflect.DeepEqual(got.ReadRequest, rr) {
		t.Errorf("ReadRequest round trip:\ngot  %+v\nwant %+v", got.ReadRequest, rr)
	}

	for _, rp := range []*ReadReply{
		{ReqID: "c:12", Replica: 2, Seq: 9, Digest: ReplyDigest("c:12", []byte("page")), Payload: []byte("page")},
		{ReqID: "c:13", Replica: 0, Seq: 9, Digest: ReplyDigest("c:13", []byte("page"))},
		{ReqID: "c:14", Replica: 3, Behind: true},
	} {
		m := &Message{Kind: KindReadReply, ReadReply: rp}
		got, err := DecodeMessage(m.Encode())
		if err != nil {
			t.Fatalf("DecodeMessage(ReadReply): %v", err)
		}
		if !reflect.DeepEqual(got.ReadReply, rp) {
			t.Errorf("ReadReply round trip:\ngot  %+v\nwant %+v", got.ReadReply, rp)
		}
		if rp.Payload != nil && !bytes.Equal(got.ReadReply.Payload, rp.Payload) {
			t.Errorf("payload lost in round trip")
		}
	}
}
