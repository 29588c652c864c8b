package perpetual

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"perpetualws/internal/auth"
)

// txnRecorder observes participant-side transaction outcomes across all
// shards and replicas of a service.
type txnRecorder struct {
	mu      sync.Mutex
	commits map[string][][]byte // "shard/replica" -> applied payloads
	aborts  map[string]int      // "shard/replica" -> released txns
}

func newTxnRecorder() *txnRecorder {
	return &txnRecorder{commits: make(map[string][][]byte), aborts: make(map[string]int)}
}

func (rec *txnRecorder) commit(key string, payloads [][]byte) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.commits[key] = append(rec.commits[key], payloads...)
}

func (rec *txnRecorder) abort(key string) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.aborts[key]++
}

func (rec *txnRecorder) committed(key string) [][]byte {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([][]byte(nil), rec.commits[key]...)
}

func (rec *txnRecorder) commitCount() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return len(rec.commits)
}

// txnApp installs a transaction-aware staging executor on every replica
// of every shard of a service: PREPARE payloads beginning with "fail"
// vote abort, everything else is staged and applied on COMMIT. Ordinary
// requests are echoed.
func txnApp(t *testing.T, dep *Deployment, service string, rec *txnRecorder) {
	t.Helper()
	svc, err := dep.Registry.Lookup(service)
	if err != nil {
		t.Fatalf("lookup %s: %v", service, err)
	}
	for k := 0; k < svc.ShardCount(); k++ {
		shard := svc.Shard(k).Name
		for i, drv := range dep.ShardDrivers(service, k) {
			key := fmt.Sprintf("%s/%d", shard, i)
			drv := drv
			go func() {
				staged := make(map[string][][]byte)
				for {
					req, err := drv.NextRequest()
					if err != nil {
						return
					}
					f, ok := DecodeTxnFrameFrom(req)
					if !ok {
						if err := drv.Reply(req, append([]byte("echo:"), req.Payload...)); err != nil {
							return
						}
						continue
					}
					var reply []byte
					switch f.Phase {
					case TxnPrepare:
						if bytes.HasPrefix(f.Payload, []byte("fail")) {
							reply = EncodeTxnVote(f, false, []byte("refused"))
						} else {
							staged[f.TxnID] = append(staged[f.TxnID], f.Payload)
							reply = EncodeTxnVote(f, true, []byte("ready"))
						}
					case TxnCommit:
						rec.commit(key, staged[f.TxnID])
						delete(staged, f.TxnID)
						reply = EncodeTxnVote(f, true, nil)
					case TxnAbort:
						rec.abort(key)
						delete(staged, f.TxnID)
						reply = EncodeTxnVote(f, true, nil)
					}
					if err := drv.Reply(req, reply); err != nil {
						return
					}
				}
			}()
		}
	}
}

// buildTxn deploys a coordinator "c" (nc replicas) and a sharded
// participant "t" (shards x nt replicas) running txnApp.
func buildTxn(t *testing.T, nc, nt, shards int, tune func(*Deployment)) (*Deployment, *txnRecorder) {
	t.Helper()
	dep := NewDeployment([]byte("txn-master"),
		ServiceInfo{Name: "c", N: nc},
		ServiceInfo{Name: "t", N: nt, Shards: shards},
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
	rec := newTxnRecorder()
	txnApp(t, dep, "t", rec)
	return dep, rec
}

// keysOnDistinctShards returns one routing key per shard, each pinned
// to its index.
func keysOnDistinctShards(t *testing.T, shards int) [][]byte {
	t.Helper()
	keys := make([][]byte, shards)
	for k := range keys {
		for i := 0; ; i++ {
			cand := []byte(fmt.Sprintf("txn-key-%d-%d", k, i))
			if ShardFor(cand, shards) == k {
				keys[k] = cand
				break
			}
			if i > 10000 {
				t.Fatalf("no key found for shard %d", k)
			}
		}
	}
	return keys
}

func TestTxnFrameCodecRoundTrip(t *testing.T) {
	for _, f := range []*TxnFrame{
		{Phase: TxnPrepare, TxnID: "c:txn:1", Participants: []string{"t#0", "t#1"}, Prepares: 3, Payload: []byte("body")},
		{Phase: TxnCommit, TxnID: "c:txn:2", Participants: []string{"t"}, Prepares: 1},
		{Phase: TxnAbort, TxnID: "x:txn:9", Payload: nil},
	} {
		got, ok := DecodeTxnFrame(EncodeTxnFrame(f))
		if !ok || got.Phase != f.Phase || got.TxnID != f.TxnID || got.Prepares != f.Prepares || !bytes.Equal(got.Payload, f.Payload) {
			t.Errorf("frame round trip: %+v -> %+v (ok=%v)", f, got, ok)
		}
		if got != nil && len(got.Participants) != len(f.Participants) {
			t.Errorf("participants lost: %+v -> %+v", f.Participants, got.Participants)
		}
	}
	// Non-frame payloads (including XML) must not decode.
	for _, junk := range [][]byte{nil, []byte("<interaction/>"), []byte("echo:x"), {0x00, 'p'}} {
		if _, ok := DecodeTxnFrame(junk); ok {
			t.Errorf("junk %q decoded as frame", junk)
		}
	}
	// A frame with an unknown phase or empty id is rejected.
	bad := EncodeTxnFrame(&TxnFrame{Phase: TxnPhase(9), TxnID: "x"})
	if _, ok := DecodeTxnFrame(bad); ok {
		t.Error("frame with unknown phase decoded")
	}
	if _, ok := DecodeTxnFrame(EncodeTxnFrame(&TxnFrame{Phase: TxnPrepare})); ok {
		t.Error("frame without txn id decoded")
	}
}

func TestTxnVoteCodecRoundTrip(t *testing.T) {
	frame := &TxnFrame{Phase: TxnPrepare, TxnID: "c:txn:4", Participants: []string{"t#0", "t#1"}, Prepares: 2}
	for _, tc := range []struct {
		commit  bool
		payload []byte
	}{{true, []byte("ready")}, {false, []byte("refused")}, {true, nil}} {
		v, ok := DecodeTxnVote(EncodeTxnVote(frame, tc.commit, tc.payload))
		if !ok || v.Commit != tc.commit || !bytes.Equal(v.Payload, tc.payload) {
			t.Errorf("vote round trip (%v, %q) -> %+v (ok=%v)", tc.commit, tc.payload, v, ok)
		}
		// The vote binds to the frame's transaction identity, phase, and
		// PREPARE count.
		if v.TxnID != frame.TxnID || v.Phase != frame.Phase || v.Prepares != frame.Prepares ||
			!slices.Equal(v.Participants, frame.Participants) {
			t.Errorf("vote lost its binding: %+v", v)
		}
	}
	if _, ok := DecodeTxnVote([]byte("<page/>")); ok {
		t.Error("junk decoded as vote")
	}
}

func TestTxnDecisionOpCodecRoundTrip(t *testing.T) {
	frame := &TxnFrame{Phase: TxnPrepare, TxnID: "c:txn:3", Participants: []string{"t#0", "t#1"}}
	op := &Op{
		Kind: OpTxnDecision, TxnID: "c:txn:3", Commit: true,
		TxnVotes: []ReplyBundle{
			{ReqID: "c:1", Target: "t#0", Payload: EncodeTxnVote(frame, true, []byte("r")), Shares: []Share{{Replica: 1}}},
			{ReqID: "c:2", Target: "t#1", Payload: EncodeTxnVote(frame, true, nil)},
		},
	}
	got, err := DecodeOp(op.Encode())
	if err != nil {
		t.Fatalf("DecodeOp: %v", err)
	}
	if got.Kind != OpTxnDecision || got.TxnID != op.TxnID || !got.Commit || len(got.TxnVotes) != 2 {
		t.Fatalf("decision round trip: %+v", got)
	}
	if got.TxnVotes[0].Target != "t#0" || got.TxnVotes[1].ReqID != "c:2" {
		t.Errorf("vote bundles: %+v", got.TxnVotes)
	}
	abort := &Op{Kind: OpTxnDecision, TxnID: "c:txn:4"}
	got, err = DecodeOp(abort.Encode())
	if err != nil || got.Commit || got.TxnID != "c:txn:4" || len(got.TxnVotes) != 0 {
		t.Errorf("abort decision round trip: %+v, %v", got, err)
	}
}

func TestCrossShardTxnCommits(t *testing.T) {
	const shards = 2
	dep, rec := buildTxn(t, 1, 1, shards, nil)
	drv := dep.Driver("c", 0)
	keys := keysOnDistinctShards(t, shards)
	payloads := [][]byte{[]byte("credit:a"), []byte("debit:b")}

	res, err := doTxn(drv, Request{Target: "t", Txn: true, TxnKeys: keys, TxnPayloads: payloads})
	if err != nil {
		t.Fatalf("Txn Do: %v", err)
	}
	if !res.Committed {
		t.Fatalf("transaction aborted: %+v", res)
	}
	for i, v := range res.Votes {
		want := fmt.Sprintf("t#%d", i)
		if v.Shard != want || !v.Commit || v.Aborted || string(v.Payload) != "ready" {
			t.Errorf("vote %d = %+v, want commit from %s", i, v, want)
		}
	}
	for k := 0; k < shards; k++ {
		key := fmt.Sprintf("t#%d/0", k)
		got := rec.committed(key)
		if len(got) != 1 || !bytes.Equal(got[0], payloads[k]) {
			t.Errorf("shard %d applied %q, want %q", k, got, payloads[k])
		}
	}
	if n := drv.Outstanding(); n != 0 {
		t.Errorf("Outstanding after txn = %d", n)
	}
}

func TestCrossShardTxnAbortsOnVoteAbort(t *testing.T) {
	const shards = 2
	dep, rec := buildTxn(t, 1, 1, shards, nil)
	drv := dep.Driver("c", 0)
	keys := keysOnDistinctShards(t, shards)

	res, err := doTxn(drv, Request{Target: "t", Txn: true, TxnKeys: keys, TxnPayloads: [][]byte{[]byte("ok:a"), []byte("fail:b")}})
	if err != nil {
		t.Fatalf("Txn Do: %v", err)
	}
	if res.Committed {
		t.Fatalf("transaction committed despite abort vote: %+v", res)
	}
	if !res.Votes[0].Commit || res.Votes[1].Commit {
		t.Errorf("votes = %+v, want [commit, abort]", res.Votes)
	}
	if string(res.Votes[1].Payload) != "refused" {
		t.Errorf("abort vote payload = %q", res.Votes[1].Payload)
	}
	if n := rec.commitCount(); n != 0 {
		t.Errorf("%d replicas applied state for an aborted transaction", n)
	}
	if n := drv.Outstanding(); n != 0 {
		t.Errorf("Outstanding after aborted txn = %d", n)
	}
}

func TestCrossShardTxnAbortsOnTimeout(t *testing.T) {
	// Shard 1's executors stay silent on PREPARE: its vote times out into
	// a deterministic abort, and the whole transaction must abort on both
	// shards.
	const shards = 2
	dep := NewDeployment([]byte("txn-timeout"),
		ServiceInfo{Name: "c", N: 1},
		ServiceInfo{Name: "t", N: 1, Shards: shards},
	)
	dep.Configure("c", fastOpts())
	dep.Configure("t", fastOpts())
	if err := dep.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	dep.Start()
	t.Cleanup(dep.Stop)
	rec := newTxnRecorder()

	// Shard 0: normal participant. Shard 1: consumes PREPAREs without
	// replying but still acknowledges outcomes.
	for k := 0; k < shards; k++ {
		k := k
		for _, drv := range dep.ShardDrivers("t", k) {
			drv := drv
			go func() {
				staged := 0
				for {
					req, err := drv.NextRequest()
					if err != nil {
						return
					}
					f, ok := DecodeTxnFrameFrom(req)
					if !ok {
						continue
					}
					switch f.Phase {
					case TxnPrepare:
						if k == 1 {
							continue // never votes
						}
						staged++
						if err := drv.Reply(req, EncodeTxnVote(f, true, []byte("ready"))); err != nil {
							return
						}
					case TxnCommit:
						rec.commit(fmt.Sprintf("t#%d/0", k), nil)
						_ = drv.Reply(req, EncodeTxnVote(f, true, nil))
					case TxnAbort:
						rec.abort(fmt.Sprintf("t#%d/0", k))
						_ = drv.Reply(req, EncodeTxnVote(f, true, nil))
					}
				}
			}()
		}
	}

	drv := dep.Driver("c", 0)
	keys := keysOnDistinctShards(t, shards)
	res, err := doTxn(drv, Request{Target: "t", Txn: true, TxnKeys: keys, TxnPayloads: [][]byte{[]byte("a"), []byte("b")}, Timeout: 600 * time.Millisecond})
	if err != nil {
		t.Fatalf("Txn Do: %v", err)
	}
	if res.Committed {
		t.Fatalf("transaction committed despite a timed-out participant: %+v", res)
	}
	if !res.Votes[1].Aborted {
		t.Errorf("shard 1 vote = %+v, want deterministic abort", res.Votes[1])
	}
	if n := rec.commitCount(); n != 0 {
		t.Errorf("commit applied on %d replicas after abort decision", n)
	}
}

func TestCrossShardTxnOnUnshardedTarget(t *testing.T) {
	// Degenerate single-participant transaction against an unsharded
	// service still runs the full prepare/decide/commit cycle.
	dep, rec := buildTxn(t, 1, 1, 1, nil)
	drv := dep.Driver("c", 0)
	res, err := doTxn(drv, Request{Target: "t", Txn: true, TxnKeys: [][]byte{[]byte("k")}, TxnPayloads: [][]byte{[]byte("solo")}})
	if err != nil || !res.Committed {
		t.Fatalf("Txn Do = %+v, %v", res, err)
	}
	if got := rec.committed("t/0"); len(got) != 1 || string(got[0]) != "solo" {
		t.Errorf("applied %q", got)
	}
}

func TestCrossShardTxnSequentialIDsAndIsolation(t *testing.T) {
	// Consecutive transactions get distinct ids, and a committed txn
	// does not disturb ordinary traffic on the same driver.
	const shards = 2
	dep, _ := buildTxn(t, 1, 1, shards, nil)
	drv := dep.Driver("c", 0)
	keys := keysOnDistinctShards(t, shards)
	r1, err := doTxn(drv, Request{Target: "t", Txn: true, TxnKeys: keys, TxnPayloads: [][]byte{[]byte("p1"), []byte("p2")}})
	if err != nil {
		t.Fatalf("Txn Do 1: %v", err)
	}
	id, err := issue(drv, Request{Target: "t", Key: keys[0], Payload: []byte("plain")})
	if err != nil {
		t.Fatalf("keyed Do: %v", err)
	}
	r, err := drv.WaitReply(id)
	if err != nil || r.Aborted || string(r.Payload) != "echo:plain" {
		t.Fatalf("ordinary call after txn: %+v, %v", r, err)
	}
	r2, err := doTxn(drv, Request{Target: "t", Txn: true, TxnKeys: keys, TxnPayloads: [][]byte{[]byte("p3"), []byte("p4")}})
	if err != nil {
		t.Fatalf("Txn Do 2: %v", err)
	}
	if r1.TxnID == r2.TxnID || !strings.HasPrefix(r2.TxnID, "c:txn:") {
		t.Errorf("txn ids %q, %q", r1.TxnID, r2.TxnID)
	}
}

func TestCrossShardTxnValidatesArgs(t *testing.T) {
	dep, _ := buildTxn(t, 1, 1, 2, nil)
	drv := dep.Driver("c", 0)
	if _, err := doTxn(drv, Request{Target: "t", Txn: true}); err == nil {
		t.Error("Txn Do with no keys succeeded")
	}
	if _, err := doTxn(drv, Request{Target: "t", Txn: true, TxnKeys: [][]byte{[]byte("k")}, TxnPayloads: [][]byte{[]byte("a"), []byte("b")}}); err == nil {
		t.Error("Txn Do with mismatched lengths succeeded")
	}
	if _, err := doTxn(drv, Request{Target: "nowhere", Txn: true, TxnKeys: [][]byte{[]byte("k")}, TxnPayloads: [][]byte{[]byte("a")}}); err == nil {
		t.Error("Txn Do to unknown service succeeded")
	}
}

func TestCrossShardTxnToleratesFaultyVoterPerGroup(t *testing.T) {
	// The acceptance scenario: replicated coordinator (N=4) and two
	// participant shard groups of N=4, each group carrying one
	// corrupt-result voter. Every coordinator replica must arrive at the
	// same committed decision and both shards must apply the effects.
	const shards = 2
	dep, rec := buildTxn(t, 4, 4, shards, func(dep *Deployment) {
		for _, svc := range []string{"c", "t"} {
			opts := fastOpts()
			opts.Behaviors = map[int]Behavior{1: CorruptResultFault{}}
			dep.Configure(svc, opts)
		}
	})
	keys := keysOnDistinctShards(t, shards)
	payloads := [][]byte{[]byte("x=1"), []byte("y=2")}

	drivers := dep.Drivers("c")
	results := make([]*TxnResult, len(drivers))
	errs := make([]error, len(drivers))
	var wg sync.WaitGroup
	for i, drv := range drivers {
		i, drv := i, drv
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = doTxn(drv, Request{Target: "t", Txn: true, TxnKeys: keys, TxnPayloads: payloads, Timeout: 15 * time.Second})
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("timed out waiting for replicated Txn Do")
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("coordinator replica %d: %v", i, errs[i])
		}
		if !results[i].Committed || results[i].TxnID != results[0].TxnID {
			t.Fatalf("replica %d decided %+v, replica 0 %+v", i, results[i], results[0])
		}
	}
	// Every replica of every shard group applied the committed payloads.
	for k := 0; k < shards; k++ {
		for i := 0; i < 4; i++ {
			key := fmt.Sprintf("t#%d/%d", k, i)
			got := rec.committed(key)
			if len(got) != 1 || !bytes.Equal(got[0], payloads[k]) {
				t.Errorf("%s applied %q, want %q", key, got, payloads[k])
			}
		}
	}
}

func TestForgedOutcomeFromNonCoordinatorIgnored(t *testing.T) {
	// A third-party service must not be able to drive another
	// transaction's COMMIT/ABORT: participants authenticate a frame's
	// TxnID against the transport-authenticated caller, so "evil"'s
	// forged abort of c's transaction is treated as ordinary (echoed)
	// payload and releases nothing.
	dep := NewDeployment([]byte("txn-forge"),
		ServiceInfo{Name: "c", N: 1},
		ServiceInfo{Name: "evil", N: 1},
		ServiceInfo{Name: "t", N: 1, Shards: 2},
	)
	for _, s := range []string{"c", "evil", "t"} {
		dep.Configure(s, fastOpts())
	}
	if err := dep.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	dep.Start()
	t.Cleanup(dep.Stop)
	rec := newTxnRecorder()
	txnApp(t, dep, "t", rec)
	keys := keysOnDistinctShards(t, 2)

	// The forged frame names c's first transaction id before c runs it.
	evil := dep.Driver("evil", 0)
	forged := EncodeTxnFrame(&TxnFrame{Phase: TxnAbort, TxnID: "c:txn:1", Participants: []string{"t#0", "t#1"}})
	id, err := issue(evil, Request{Target: "t", Key: keys[0], Payload: forged})
	if err != nil {
		t.Fatalf("evil keyed Do: %v", err)
	}
	r, err := evil.WaitReply(id)
	if err != nil {
		t.Fatalf("evil WaitReply: %v", err)
	}
	// The participant did NOT process it as a transaction frame: the
	// echo path answered, and no abort was recorded.
	if _, ok := DecodeTxnVote(r.Payload); ok {
		t.Fatal("participant answered a forged frame with a vote")
	}
	rec.mu.Lock()
	aborts := len(rec.aborts)
	rec.mu.Unlock()
	if aborts != 0 {
		t.Fatalf("forged frame triggered %d aborts", aborts)
	}

	// c's genuine transaction is unaffected.
	res, err := doTxn(dep.Driver("c", 0), Request{Target: "t", Txn: true, TxnKeys: keys, TxnPayloads: [][]byte{[]byte("a"), []byte("b")}})
	if err != nil || !res.Committed {
		t.Fatalf("genuine txn after forgery = %+v, %v", res, err)
	}
}

func TestTxnDecisionValidation(t *testing.T) {
	v, _, stores := newBareVoter(t)
	// Abort decisions need no certificate.
	abort := &Op{Kind: OpTxnDecision, TxnID: "t:txn:1"}
	if !v.accepts(TxnOpID("t:txn:1"), abort.Encode()) {
		t.Error("abort decision rejected")
	}
	if v.accepts(TxnOpID(""), (&Op{Kind: OpTxnDecision}).Encode()) {
		t.Error("decision without txn id validated")
	}
	// A commit decision without certificates is rejected.
	commit := &Op{Kind: OpTxnDecision, TxnID: "t:txn:2", Commit: true}
	if v.accepts(TxnOpID("t:txn:2"), commit.Encode()) {
		t.Error("uncertified commit decision validated")
	}

	// certify builds an f+1-endorsed vote bundle from participant
	// service "c" (N=4, f=1): reqID's reply payload is the vote, MAC'd
	// by 2 of c's voters for this validating voter.
	certify := func(reqID string, frame *TxnFrame, voteCommit bool) ReplyBundle {
		votePayload := EncodeTxnVote(frame, voteCommit, []byte("ready"))
		digest := ReplyDigest(reqID, votePayload)
		msg := replyAuthMsg(reqID, digest, false, 0, 0, 0).Bytes()
		bundle := ReplyBundle{ReqID: reqID, Target: "c", Payload: votePayload}
		for _, idx := range []int{0, 1} {
			a, err := auth.NewAuthenticator(stores[auth.VoterID("c", idx)], msg, []auth.NodeID{auth.VoterID("t", 0)})
			if err != nil {
				t.Fatalf("authenticator: %v", err)
			}
			bundle.Shares = append(bundle.Shares, Share{Replica: idx, Auth: a})
		}
		return bundle
	}
	frame := &TxnFrame{Phase: TxnPrepare, TxnID: "t:txn:2", Participants: []string{"c"}, Prepares: 1}

	// A commit carrying a complete, properly endorsed vote set
	// validates.
	commit.TxnVotes = []ReplyBundle{certify("t:9", frame, true)}
	if !v.accepts(TxnOpID("t:txn:2"), commit.Encode()) {
		t.Error("genuine commit decision rejected")
	}
	// An abort-vote certificate must not certify a commit.
	bad := *commit
	bad.TxnVotes = []ReplyBundle{certify("t:9", frame, false)}
	if v.accepts(TxnOpID("t:txn:2"), bad.Encode()) {
		t.Error("commit decision with abort-vote certificate validated")
	}
	// Replay: a genuine commit vote from ANOTHER transaction must not
	// certify this one (the vote's embedded TxnID disagrees).
	otherFrame := &TxnFrame{Phase: TxnPrepare, TxnID: "t:txn:1", Participants: []string{"c"}, Prepares: 1}
	replay := *commit
	replay.TxnVotes = []ReplyBundle{certify("t:8", otherFrame, true)}
	if v.accepts(TxnOpID("t:txn:2"), replay.Encode()) {
		t.Error("commit decision certified by a replayed vote validated")
	}
	// Partial membership: a vote naming more participants than the
	// decision covers must not certify (the missing shard may have
	// voted abort).
	wideFrame := &TxnFrame{Phase: TxnPrepare, TxnID: "t:txn:2", Participants: []string{"c", "t"}, Prepares: 2}
	partial := *commit
	partial.TxnVotes = []ReplyBundle{certify("t:9", wideFrame, true)}
	if v.accepts(TxnOpID("t:txn:2"), partial.Encode()) {
		t.Error("commit decision with incomplete participant cover validated")
	}
	// An unknown participant service is rejected.
	ghost := *commit
	ghostBundle := certify("t:9", frame, true)
	ghostBundle.Target = "ghost"
	ghost.TxnVotes = []ReplyBundle{ghostBundle}
	if v.accepts(TxnOpID("t:txn:2"), ghost.Encode()) {
		t.Error("commit decision naming unknown participant validated")
	}
	// An outcome acknowledgement (also a vote-encoded commit reply, but
	// for a COMMIT frame) must not pass as a PREPARE vote.
	ackFrame := &TxnFrame{Phase: TxnCommit, TxnID: "t:txn:2", Participants: []string{"c"}, Prepares: 1}
	ack := *commit
	ack.TxnVotes = []ReplyBundle{certify("t:9", ackFrame, true)}
	if v.accepts(TxnOpID("t:txn:2"), ack.Encode()) {
		t.Error("commit decision certified by an outcome acknowledgement validated")
	}
}

func TestTxnDecisionValidationRejectsForeignTxnID(t *testing.T) {
	// Decisions agree in the coordinator's own log, so a txn id not
	// minted by this service ("t") is never legitimate — without this
	// check a faulty replica could push decisions for other services'
	// transactions (or arbitrary garbage ids) through agreement.
	v, _, _ := newBareVoter(t)
	for _, id := range []string{"c:txn:1", "x:txn:9", "t:1", "txn:t:1"} {
		abort := &Op{Kind: OpTxnDecision, TxnID: id}
		if v.accepts(TxnOpID(id), abort.Encode()) {
			t.Errorf("abort decision for foreign txn id %q validated", id)
		}
	}
}

func TestTxnDecisionValidationIsPerVoteNotPerShard(t *testing.T) {
	// Two keys of the same transaction can route to the same shard: the
	// transaction then has two PREPAREs but one participant. A faulty
	// coordinator primary holding a commit vote for only ONE of them
	// (the other voted abort) must not be able to certify a commit —
	// a per-shard coverage check would accept it, breaking atomicity.
	v, _, stores := newBareVoter(t)
	frame := &TxnFrame{Phase: TxnPrepare, TxnID: "t:txn:5", Participants: []string{"c"}, Prepares: 2}
	certify := func(reqID string) ReplyBundle {
		votePayload := EncodeTxnVote(frame, true, []byte("ready"))
		digest := ReplyDigest(reqID, votePayload)
		msg := replyAuthMsg(reqID, digest, false, 0, 0, 0).Bytes()
		bundle := ReplyBundle{ReqID: reqID, Target: "c", Payload: votePayload}
		for _, idx := range []int{0, 1} {
			a, err := auth.NewAuthenticator(stores[auth.VoterID("c", idx)], msg, []auth.NodeID{auth.VoterID("t", 0)})
			if err != nil {
				t.Fatalf("authenticator: %v", err)
			}
			bundle.Shares = append(bundle.Shares, Share{Replica: idx, Auth: a})
		}
		return bundle
	}

	// Both PREPAREs' commit votes present: validates.
	full := &Op{Kind: OpTxnDecision, TxnID: "t:txn:5", Commit: true,
		TxnVotes: []ReplyBundle{certify("t:20"), certify("t:21")}}
	if !v.accepts(TxnOpID("t:txn:5"), full.Encode()) {
		t.Error("complete two-vote commit decision rejected")
	}
	// One vote omitted: the shard is still covered, but the second
	// PREPARE's vote is missing — must be rejected.
	omit := &Op{Kind: OpTxnDecision, TxnID: "t:txn:5", Commit: true,
		TxnVotes: []ReplyBundle{certify("t:20")}}
	if v.accepts(TxnOpID("t:txn:5"), omit.Encode()) {
		t.Error("commit decision omitting one PREPARE's vote validated")
	}
	// The same vote duplicated cannot stand in for the missing one.
	dup := &Op{Kind: OpTxnDecision, TxnID: "t:txn:5", Commit: true,
		TxnVotes: []ReplyBundle{certify("t:20"), certify("t:20")}}
	if v.accepts(TxnOpID("t:txn:5"), dup.Encode()) {
		t.Error("commit decision with a duplicated vote validated")
	}
}

func TestTxnDecisionFloodDoesNotWedgeRegisteredTxn(t *testing.T) {
	// Regression: decisions used to land in a bounded FIFO cache, so a
	// faulty replica pushing agreed abort decisions for fresh txn ids
	// could evict a real pending decision before the executor consumed
	// it, wedging the transaction forever. Registered decision slots are now
	// immune to eviction, and a decision agreed before this replica
	// reaches the transaction is buffered and picked up at registration.
	d := newDriver(ServiceInfo{Name: "c", N: 1}, 0, nil, nil, nil, nil, nil)

	// A decision delivered before registration (this replica lags its
	// peers) is buffered and consumed when the executor catches up.
	d.deliverTxnDecision("c:txn:1", true)
	d.mu.Lock()
	d.registerTxnLocked("c:txn:1")
	d.mu.Unlock()

	// A registered decision survives an arbitrary flood of decisions
	// for other ids delivered after it.
	d.mu.Lock()
	d.registerTxnLocked("c:txn:2")
	d.mu.Unlock()
	d.deliverTxnDecision("c:txn:2", true)
	for i := 0; i < 3*deliveredCacheSize; i++ {
		d.deliverTxnDecision(fmt.Sprintf("c:txn:%d", 1000+i), false)
	}

	for _, id := range []string{"c:txn:1", "c:txn:2"} {
		done := make(chan bool, 1)
		go func(id string) {
			commit, err := d.waitTxnDecision(id)
			done <- err == nil && commit
		}(id)
		select {
		case ok := <-done:
			if !ok {
				t.Errorf("decision for %s lost", id)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waitTxnDecision(%s) wedged", id)
		}
		d.forgetTxn(id)
	}
}
