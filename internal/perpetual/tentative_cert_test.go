package perpetual

import (
	"testing"

	"perpetualws/internal/auth"
)

// TestVerifyBundleTwoTier is the Byzantine-responder table for the
// two-tier reply certification rule. The responder assembles the
// bundle, so a faulty one can forward any subset of the shares it
// holds; VerifyBundle is the caller's only defense. With N=4 (f_t=1):
// f_t+1 = 2 stable shares certify, a full agreement quorum of 3 shares
// certifies even if all are tentative, but 2 merely-tentative shares
// must never certify — a view change could still reorder the
// executions behind them.
func TestVerifyBundleTwoTier(t *testing.T) {
	master := []byte("m")
	target := ServiceInfo{Name: "t", N: 4}
	callerDriver := auth.DriverID("c", 0)
	all := append(target.VoterIDs(), callerDriver)
	ks := testKeyStores(t, master, all...)

	payload := []byte("the reply")
	reqID := "c:77"
	digest := ReplyDigest(reqID, payload)

	// mkShare authenticates voter i's endorsement; the tentative flag is
	// inside the MAC'd message, so it cannot be flipped in transit.
	mkShare := func(i int, tentative bool) Share {
		msg := replyAuthMsg(reqID, digest, tentative, 0, 0).Bytes()
		a, err := auth.NewAuthenticator(ks[auth.VoterID("t", i)], msg, []auth.NodeID{callerDriver})
		if err != nil {
			t.Fatalf("share %d: %v", i, err)
		}
		return Share{Replica: i, Tentative: tentative, Auth: a}
	}

	cases := []struct {
		name      string
		shares    []Share
		certifies bool
	}{
		{"f_t+1 stable", []Share{mkShare(0, false), mkShare(2, false)}, true},
		{"f_t+1 tentative only", []Share{mkShare(0, true), mkShare(2, true)}, false},
		{"1 stable + 1 tentative", []Share{mkShare(0, false), mkShare(2, true)}, false},
		{"agreement quorum, all tentative", []Share{mkShare(0, true), mkShare(1, true), mkShare(2, true)}, true},
		{"agreement quorum, mixed", []Share{mkShare(0, false), mkShare(1, true), mkShare(3, true)}, true},
		{"f_t+1 stable among tentative", []Share{mkShare(0, true), mkShare(1, false), mkShare(2, false)}, true},
		{"quorum of tentative with a duplicate voter", []Share{mkShare(0, true), mkShare(0, true), mkShare(2, true)}, false},
	}
	for _, tc := range cases {
		b := &ReplyBundle{ReqID: reqID, Target: "t", Payload: payload, Shares: tc.shares}
		err := VerifyBundle(ks[callerDriver], target, b)
		if tc.certifies && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.certifies && err == nil {
			t.Errorf("%s: certified; a Byzantine responder can fool the caller", tc.name)
		}
	}

	// Flag-flip attack: the responder relabels a stable share as
	// tentative (or vice versa) to reach a tier it lacks shares for.
	// The flag is under the MAC, so the flipped share must not count.
	flipped := mkShare(1, false)
	flipped.Tentative = true
	attack := &ReplyBundle{ReqID: reqID, Target: "t", Payload: payload,
		Shares: []Share{mkShare(0, true), flipped, mkShare(2, true)}}
	if err := VerifyBundle(ks[callerDriver], target, attack); err == nil {
		t.Error("bundle with a flag-flipped share reached the quorum tier")
	}
	back := mkShare(1, true)
	back.Tentative = false
	attack2 := &ReplyBundle{ReqID: reqID, Target: "t", Payload: payload,
		Shares: []Share{mkShare(0, false), back}}
	if err := VerifyBundle(ks[callerDriver], target, attack2); err == nil {
		t.Error("bundle with a tentative share relabeled stable reached the stable tier")
	}
}
