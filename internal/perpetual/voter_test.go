package perpetual

import (
	"slices"
	"testing"
	"time"

	"perpetualws/internal/auth"
	"perpetualws/internal/clbft"
	"perpetualws/internal/transport"
)

// newBareVoter builds a voter with real key material but no running
// CLBFT instance, for white-box tests of the Byzantine-input guards.
func newBareVoter(t *testing.T) (*voter, *Registry, map[auth.NodeID]*auth.KeyStore) {
	t.Helper()
	net := transport.NewNetwork()
	t.Cleanup(func() { net.Close() })
	return newBareVoterOn(t, net)
}

// newBareVoterOn is newBareVoter on the caller's network, where a test
// can attach other principals.
func newBareVoterOn(t *testing.T, net *transport.Network) (*voter, *Registry, map[auth.NodeID]*auth.KeyStore) {
	t.Helper()
	reg := NewRegistry(
		ServiceInfo{Name: "t", N: 4},
		ServiceInfo{Name: "c", N: 4},
	)
	principals := reg.AllPrincipals()
	stores := make(map[auth.NodeID]*auth.KeyStore)
	for _, p := range principals {
		stores[p] = auth.NewDerivedKeyStore([]byte("wb"), p, principals)
	}
	self := auth.VoterID("t", 0)
	adapter := transport.NewChannelAdapter(stores[self], net.Port(self))
	v := newVoter(ServiceInfo{Name: "t", N: 4}, 0, reg, adapter, stores[self], nil)
	return v, reg, stores
}

// agree feeds v the agreement of request id at position pos, as
// onDeliver would, without handing the request to an executor: a
// responder bundles only replies whose position it knows.
func agree(v *voter, id string, pos uint64) {
	v.mu.Lock()
	v.reqs.step(nil, &reqEvent{kind: inAgreed, pos: pos, op: &Op{Kind: OpRequest, ReqID: id, Caller: "c", Payload: []byte("p")}})
	v.mu.Unlock()
}

// accepts is validateOp's verdict alone.
func (v *voter) accepts(opID string, op []byte) bool {
	_, ok := v.validateOp(opID, op)
	return ok
}

func signedRequest(t *testing.T, stores map[auth.NodeID]*auth.KeyStore, driverIdx int, reqID string, payload []byte, responder int) *RequestMsg {
	t.Helper()
	driver := auth.DriverID("c", driverIdx)
	req := &RequestMsg{
		ReqID: reqID, Caller: "c", Target: "t",
		Responder: responder, Payload: payload,
	}
	voters := []auth.NodeID{
		auth.VoterID("t", 0), auth.VoterID("t", 1),
		auth.VoterID("t", 2), auth.VoterID("t", 3),
	}
	a, err := auth.NewAuthenticator(stores[driver], requestAuthMsg(reqID, req.Digest()).Bytes(), voters)
	if err != nil {
		t.Fatalf("authenticator: %v", err)
	}
	req.Auth = a
	return req
}

func TestVoterRejectsMalformedExternalRequests(t *testing.T) {
	v, _, stores := newBareVoter(t)
	good := signedRequest(t, stores, 0, "c:1", []byte("p"), 1)
	driver := auth.DriverID("c", 0)

	// Wrong sender role: a voter cannot originate external requests.
	v.handleExternalRequest(auth.VoterID("c", 0), good)
	if len(v.reqs.recs) != 0 {
		t.Error("request from a voter principal was counted")
	}
	// Caller mismatch between envelope and authenticated sender.
	bad := *good
	bad.Caller = "someone-else"
	v.handleExternalRequest(driver, &bad)
	if len(v.reqs.recs) != 0 {
		t.Error("request with mismatched caller was counted")
	}
	// Wrong target.
	bad = *good
	bad.Target = "other"
	v.handleExternalRequest(driver, &bad)
	if len(v.reqs.recs) != 0 {
		t.Error("request for another service was counted")
	}
	// Out-of-range responder.
	bad = *good
	bad.Responder = 99
	v.handleExternalRequest(driver, &bad)
	if len(v.reqs.recs) != 0 {
		t.Error("request with out-of-range responder was counted")
	}
	// Tampered payload invalidates the authenticator.
	bad = *good
	bad.Payload = []byte("tampered")
	v.handleExternalRequest(driver, &bad)
	if len(v.reqs.recs) != 0 {
		t.Error("request with tampered payload was counted")
	}
	// Empty request id.
	bad = *good
	bad.ReqID = ""
	v.handleExternalRequest(driver, &bad)
	if len(v.reqs.recs) != 0 {
		t.Error("request without id was counted")
	}
	// An id that names another caller: a record's votes, sized by its
	// caller's N, must all come from that one group.
	v.handleExternalRequest(driver, signedRequest(t, stores, 0, "t:1", []byte("p"), 1))
	if len(v.reqs.recs) != 0 {
		t.Error("request under another caller's id was counted")
	}
	// The genuine request is counted (once per driver).
	v.handleExternalRequest(driver, good)
	if len(v.reqs.recs) != 1 {
		t.Fatalf("genuine request not counted: %d", len(v.reqs.recs))
	}
	v.handleExternalRequest(driver, good)
	if n := len(v.reqs.recs["c:1"].shares(good.Digest())); n != 1 {
		t.Errorf("duplicate vote counted: %d", n)
	}
}

func TestVoterRejectsForeignShares(t *testing.T) {
	v, _, _ := newBareVoter(t)
	// Shares must come from this voter group.
	rs := &ReplyShare{ReqID: "c:9", Caller: "c", Share: Share{Replica: 1}}
	v.handleReplyShare(auth.VoterID("other", 1), rs)
	if len(v.reqs.recs) != 0 {
		t.Error("share from foreign service accepted")
	}
	v.handleReplyShare(auth.DriverID("t", 1), rs)
	if len(v.reqs.recs) != 0 {
		t.Error("share from a driver principal accepted")
	}
	// Share claiming a different replica index than its sender.
	v.handleReplyShare(auth.VoterID("t", 2), rs)
	if len(v.reqs.recs) != 0 {
		t.Error("share with mismatched replica index accepted")
	}
}

func TestAcceptShareRejectsForgedPayloads(t *testing.T) {
	// Regression: a share whose payload does not hash to its claimed
	// digest used to overwrite the stored payload for that digest
	// (`rs.Payload != nil || len(rs.Payload) > 0` was a tautology), so a
	// single faulty voter could poison the assembled bundle and stall
	// the reply at every caller. Payloads now bind only to digests they
	// actually hash to.
	v, _, _ := newBareVoter(t)
	truth := []byte("ok")
	digest := ReplyDigest("c:9", truth)
	agree(v, "c:9", clbft.Position(1, 0))

	// Faulty voter 2 claims the honest digest but ships garbage bytes.
	v.acceptShare(2, &ReplyShare{
		ReqID: "c:9", Caller: "c", Digest: digest,
		Share: Share{Replica: 2}, Payload: []byte("poison"),
	}, false)
	v.mu.Lock()
	sc := v.reqs.recs["c:9"]
	if sc == nil {
		v.mu.Unlock()
		t.Fatal("share not collected")
	}
	if p, have := sc.payloadFor(digest); have {
		v.mu.Unlock()
		t.Fatalf("forged payload %q bound to digest it does not hash to", p)
	}
	v.mu.Unlock()

	// An honest share (payload hashes to the digest) is stored, reaches
	// the f_t+1 threshold together with the faulty voter's digest vote,
	// and the assembled bundle carries the honest bytes.
	v.acceptShare(1, &ReplyShare{
		ReqID: "c:9", Caller: "c", Digest: digest,
		Share: Share{Replica: 1}, Payload: truth,
	}, false)
	v.mu.Lock()
	defer v.mu.Unlock()
	if p, have := sc.payloadFor(digest); !have || string(p) != "ok" {
		t.Errorf("honest payload not stored: %q (have=%v)", p, have)
	}
	if !sc.sent {
		t.Error("bundle not assembled at f+1 matching digests")
	}
}

// TestAcceptShareRejectsIndexPastGroup: share slots are sized by the
// group's N, so a share attributed to an index past it opens nothing.
func TestAcceptShareRejectsIndexPastGroup(t *testing.T) {
	v, _, _ := newBareVoter(t)
	v.acceptShare(4, &ReplyShare{ReqID: "c:9", Caller: "c", Digest: ReplyDigest("c:9", nil), Share: Share{Replica: 4}}, false)
	if len(v.reqs.recs) != 0 {
		t.Fatal("a share from an index past the group was collected")
	}
}

func TestAcceptShareStoresLegitimateNilPayload(t *testing.T) {
	// A genuinely empty reply still assembles: nil hashes to its own
	// digest, so the digest check must not block it.
	v, _, _ := newBareVoter(t)
	digest := ReplyDigest("c:10", nil)
	agree(v, "c:10", clbft.Position(1, 0))
	v.acceptShare(0, &ReplyShare{ReqID: "c:10", Caller: "c", Digest: digest, Share: Share{Replica: 0}}, false)
	v.acceptShare(1, &ReplyShare{ReqID: "c:10", Caller: "c", Digest: digest, Share: Share{Replica: 1}}, false)
	v.mu.Lock()
	defer v.mu.Unlock()
	sc := v.reqs.recs["c:10"]
	if sc == nil || !sc.sent {
		t.Fatalf("empty reply did not assemble (ok=%v)", sc != nil)
	}
	if p, have := sc.payloadFor(digest); !have || len(p) != 0 {
		t.Errorf("nil payload not stored: %q (have=%v)", p, have)
	}
}

// TestBundleSharesInVoterOrder: the responder lists a bundle's shares
// by voter index, whatever order they arrived in, so identical runs
// send identical bundles.
func TestBundleSharesInVoterOrder(t *testing.T) {
	net := transport.NewNetwork()
	t.Cleanup(func() { net.Close() })
	v, _, stores := newBareVoterOn(t, net)
	drv := auth.DriverID("c", 0)
	got := make(chan *ReplyBundle, 1)
	transport.NewChannelAdapter(stores[drv], net.Port(drv)).SetHandler(func(_ auth.NodeID, p []byte) {
		if m, err := DecodeMessage(p); err == nil && m.Kind == KindReplyBundle {
			got <- m.ReplyBundle
		}
	})
	digest := ReplyDigest("c:11", []byte("ok"))
	agree(v, "c:11", clbft.Position(1, 0))
	share := func(i int) *ReplyShare {
		return &ReplyShare{ReqID: "c:11", Caller: "c", Digest: digest, Share: Share{Replica: i, Tentative: true}}
	}
	// Tentative shares certify at the quorum, three of four.
	v.acceptShare(3, share(3), false)
	v.acceptShare(2, share(2), false)
	own := share(0)
	own.Payload = []byte("ok")
	v.acceptShare(0, own, false)
	select {
	case b := <-got:
		var order []int
		for _, s := range b.Shares {
			order = append(order, s.Replica)
		}
		if !slices.Equal(order, []int{0, 2, 3}) {
			t.Errorf("bundle shares from voters %v, want [0 2 3]", order)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no bundle reached the calling driver")
	}
}

func TestVoterValidateOpRejectsGarbage(t *testing.T) {
	v, _, stores := newBareVoter(t)
	if v.accepts("x", []byte{0xFF, 0x01}) {
		t.Error("undecodable op validated")
	}
	// OpRequest with no shares.
	op := &Op{Kind: OpRequest, ReqID: "c:1", Caller: "c", Payload: []byte("p")}
	if v.accepts(RequestOpID("c:1"), op.Encode()) {
		t.Error("request op without endorsements validated")
	}
	// OpRequest from an unknown caller service.
	op = &Op{Kind: OpRequest, ReqID: "x:1", Caller: "ghost", Payload: []byte("p")}
	if v.accepts(RequestOpID("x:1"), op.Encode()) {
		t.Error("request op from unknown caller validated")
	}
	// A properly endorsed OpRequest validates (caller f=1 needs 2
	// driver endorsements).
	reqA := signedRequest(t, stores, 0, "c:7", []byte("q"), 0)
	reqB := signedRequest(t, stores, 1, "c:7", []byte("q"), 0)
	op = &Op{
		Kind: OpRequest, ReqID: "c:7", Caller: "c", Payload: []byte("q"),
		Shares: []Share{{Replica: 0, Auth: reqA.Auth}, {Replica: 1, Auth: reqB.Auth}},
	}
	if !v.accepts(RequestOpID("c:7"), op.Encode()) {
		t.Error("genuine request op rejected")
	}
	// One endorsement is not enough for f=1.
	op.Shares = op.Shares[:1]
	if v.accepts(RequestOpID("c:7"), op.Encode()) {
		t.Error("under-endorsed request op validated")
	}
	// A properly endorsed request under another group's id: c may not
	// speak for t's call t:7.
	forA := signedRequest(t, stores, 0, "t:7", []byte("q"), 0)
	forB := signedRequest(t, stores, 1, "t:7", []byte("q"), 0)
	op = &Op{
		Kind: OpRequest, ReqID: "t:7", Caller: "c", Payload: []byte("q"),
		Shares: []Share{{Replica: 0, Auth: forA.Auth}, {Replica: 1, Auth: forB.Auth}},
	}
	if v.accepts(RequestOpID("t:7"), op.Encode()) {
		t.Error("request op under another caller's id validated")
	}
	// Abort and util ops.
	if !v.accepts(AbortOpID("c:7"), (&Op{Kind: OpAbort, ReqID: "c:7"}).Encode()) {
		t.Error("abort op rejected")
	}
	if v.accepts(AbortOpID(""), (&Op{Kind: OpAbort}).Encode()) {
		t.Error("abort op without id validated")
	}
	if !v.accepts(UtilOpID(1), (&Op{Kind: OpUtil, K: 1, Value: 5}).Encode()) {
		t.Error("util op rejected")
	}
}

func TestVoterResultForwardGuards(t *testing.T) {
	v, _, _ := newBareVoter(t)
	// Forward from a foreign service is ignored (would panic on nil bft
	// if accepted, so reaching here without a crash is the assertion).
	b := &ReplyBundle{ReqID: "c:1", Target: "t", Payload: []byte("r")}
	v.handleResultForward(auth.DriverID("other", 0), b)
	// Unknown target service.
	b2 := &ReplyBundle{ReqID: "c:1", Target: "ghost", Payload: []byte("r")}
	v.handleResultForward(auth.DriverID("t", 0), b2)
	// Invalid bundle (no shares) from own driver.
	v.handleResultForward(auth.DriverID("t", 0), b)
}

func TestVoterLocalResultForUnknownRequestDropped(t *testing.T) {
	v, _, _ := newBareVoter(t)
	// No in-flight record: the result is dropped without touching the
	// network or the reply cache.
	v.handleLocalResult("never-agreed", []byte("x"))
	if len(v.reqs.recs) != 0 {
		t.Error("orphan result cached")
	}
}

func TestUpdateResponderViaRetransmission(t *testing.T) {
	v, _, stores := newBareVoter(t)
	v.mu.Lock()
	r := v.reqs.at("c:5", "c")
	r.executing, r.responder = true, 1
	v.reqs.refile(r)
	v.mu.Unlock()
	// A retransmission asking for responder 3 moves the routing.
	req := signedRequest(t, stores, 0, "c:5", []byte("p"), 3)
	req.Attempt = 2
	v.handleExternalRequest(auth.DriverID("c", 0), req)
	v.mu.Lock()
	got := v.reqs.recs["c:5"]
	v.mu.Unlock()
	if got == nil || got.responder != 3 {
		t.Errorf("responder = %+v, want 3", got)
	}
	_ = time.Now()
}

// verdictFixture drives a bare voter's validator through CLBFT instances
// the test feeds by hand: replica 1 leads view 1, so what this voter
// (replica 0) buffers is only ever ordered by the pre-prepares sent in.
type verdictFixture struct {
	t      *testing.T
	v      *voter
	stores map[auth.NodeID]*auth.KeyStore
	calls  int // validator calls so far
}

func (fx *verdictFixture) start(bs *clbft.Bootstrap) *clbft.Replica {
	bs.InitialView = 1
	validate := func(opID string, op []byte) (any, bool) {
		fx.calls++
		return fx.v.validateOp(opID, op)
	}
	b, err := clbft.NewFromBootstrap(clbft.Config{ID: 0, N: 4, ViewChangeTimeout: time.Minute},
		clbft.TransportFunc(func(int, *clbft.Message) {}), nil, bs,
		clbft.WithValidator(validate), clbft.WithVerdictEpoch(fx.v.ks.Generation))
	if err != nil {
		fx.t.Fatal(err)
	}
	b.Start()
	fx.t.Cleanup(b.Stop)
	return b
}

// endorsed builds request c:7 with f_c+1 shares MAC'd under the caller
// drivers' current keys.
func (fx *verdictFixture) endorsed() *clbft.Request {
	reqA := signedRequest(fx.t, fx.stores, 0, "c:7", []byte("q"), 0)
	reqB := signedRequest(fx.t, fx.stores, 1, "c:7", []byte("q"), 0)
	op := &Op{Kind: OpRequest, ReqID: "c:7", Caller: "c", Payload: []byte("q"),
		Shares: []Share{{Replica: 0, Auth: reqA.Auth}, {Replica: 1, Auth: reqB.Auth}}}
	return &clbft.Request{OpID: RequestOpID("c:7"), Op: op.Encode()}
}

// rotate lifts the caller drivers' keys toward this voter to epoch, at
// both ends, as rotateEpochKeys does deployment-wide.
func (fx *verdictFixture) rotate(epoch uint64) {
	self := auth.VoterID("t", 0)
	for i := 0; i < 4; i++ {
		d := auth.DriverID("c", i)
		k := auth.DeriveEpochKey([]byte("wb"), epoch, d, self)
		fx.stores[d].SetKey(self, k)
		fx.v.ks.SetKey(d, k)
	}
}

// prePrepared reports whether the instance took req in at seq (it waits
// for the event loop, which serves DebugState in arrival order).
func prePrepared(b *clbft.Replica, seq uint64, req *clbft.Request) bool {
	before := b.DebugState().LogLen
	b.Receive(1, &clbft.Message{Type: clbft.MsgPrePrepare,
		PrePrepare: &clbft.PrePrepare{View: 1, Seq: seq, Digest: req.Digest(), Request: *req}})
	return b.DebugState().LogLen > before
}

// TestValidatedOpNotReusedAfterAdoptEpoch: what the voter parsed and
// validated for a buffered operation vouches for that operation only
// inside the CLBFT instance — the membership epoch — that validated it.
// After an install rotates the keys and rebuilds the instance, the
// carried-over copy (endorsed under the old keys) must be validated
// again and refused, and a retransmission with fresher credentials must
// take its place; within one instance the verdict is reused.
func TestValidatedOpNotReusedAfterAdoptEpoch(t *testing.T) {
	v, _, stores := newBareVoter(t)
	fx := &verdictFixture{t: t, v: v, stores: stores}

	b0 := fx.start(&clbft.Bootstrap{})
	old := fx.endorsed()
	b0.Submit(old.OpID, old.Op)
	if b0.DebugState().PendingLen != 1 || fx.calls != 1 {
		t.Fatalf("epoch 0: %d buffered after %d validations", b0.DebugState().PendingLen, fx.calls)
	}
	if !prePrepared(b0, 1, old) || fx.calls != 1 {
		t.Fatalf("epoch 0: pre-prepare of the buffered bytes refused, or validated again (%d validations)", fx.calls)
	}

	// Install epoch 1: the caller drivers' keys toward this voter rotate,
	// the instance is rebuilt from its own snapshot, the voter adopts.
	b0.Stop()
	bs := b0.ExportBootstrap()
	if len(bs.Pending) != 1 {
		t.Fatalf("snapshot carries %d pending operations, want 1", len(bs.Pending))
	}
	fx.rotate(1)
	b1 := fx.start(bs)
	v.adoptEpoch(1)
	v.bftp.Store(b1)

	if prePrepared(b1, bs.Seq+1, old) {
		t.Error("epoch 1: an operation endorsed under epoch-0 keys was accepted on the strength of its epoch-0 verdict")
	}
	if fx.calls != 2 {
		t.Errorf("epoch 1: carried-over operation met %d validations in all, want 2 (one per epoch)", fx.calls)
	}
	fresh := fx.endorsed() // the caller's retransmission, MAC'd under the rotated keys
	b1.Submit(fresh.OpID, fresh.Op)
	if st := b1.DebugState(); st.PendingLen != 1 || fx.calls != 3 {
		t.Fatalf("epoch 1: %d buffered after %d validations; the re-submission should replace the stale copy", st.PendingLen, fx.calls)
	}
	if !prePrepared(b1, bs.Seq+1, fresh) || fx.calls != 3 {
		t.Errorf("epoch 1: pre-prepare of the re-submitted bytes refused, or validated again (%d validations)", fx.calls)
	}
}

// TestValidatedOpNotReusedAfterPeerKeyRotation: another group's
// membership change rotates this voter's keys toward that group without
// rebuilding this group's CLBFT instance (rotateEpochKeys runs at every
// replica of the deployment). A verdict buffered before the rotation
// must not decide a pre-prepare after it: every replica judges the
// operation under the keys it holds now, whether or not it had the
// operation buffered.
func TestValidatedOpNotReusedAfterPeerKeyRotation(t *testing.T) {
	v, _, stores := newBareVoter(t)
	fx := &verdictFixture{t: t, v: v, stores: stores}

	b := fx.start(&clbft.Bootstrap{})
	old := fx.endorsed()
	b.Submit(old.OpID, old.Op)
	if b.DebugState().PendingLen != 1 || fx.calls != 1 {
		t.Fatalf("%d buffered after %d validations", b.DebugState().PendingLen, fx.calls)
	}

	fx.rotate(1) // group "c" installed epoch 1; this instance lives on

	if prePrepared(b, 1, old) {
		t.Error("an operation endorsed under the callers' old keys was accepted on the strength of a verdict reached before they rotated")
	}
	if fx.calls != 2 {
		t.Errorf("buffered operation met %d validations in all, want 2 (one per key generation)", fx.calls)
	}
	fresh := fx.endorsed()
	b.Submit(fresh.OpID, fresh.Op)
	if !prePrepared(b, 1, fresh) || fx.calls != 3 {
		t.Errorf("pre-prepare of the re-submitted bytes refused, or validated again (%d validations)", fx.calls)
	}
}
