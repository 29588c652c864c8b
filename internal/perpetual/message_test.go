package perpetual

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"testing"
	"testing/quick"

	"perpetualws/internal/auth"
	"perpetualws/internal/clbft"
	"perpetualws/internal/wire"
)

func testKeyStores(t *testing.T, master []byte, ids ...auth.NodeID) map[auth.NodeID]*auth.KeyStore {
	t.Helper()
	out := make(map[auth.NodeID]*auth.KeyStore, len(ids))
	for _, id := range ids {
		out[id] = auth.NewDerivedKeyStore(master, id, ids)
	}
	return out
}

func TestRequestMessageRoundTrip(t *testing.T) {
	master := []byte("m")
	driver := auth.DriverID("c", 1)
	voters := []auth.NodeID{auth.VoterID("t", 0), auth.VoterID("t", 1)}
	ks := testKeyStores(t, master, append([]auth.NodeID{driver}, voters...)...)

	req := &RequestMsg{
		ReqID: "c:7", Caller: "c", Target: "t",
		Responder: 1, Attempt: 2, Payload: []byte("<body/>"),
	}
	a, err := auth.NewAuthenticator(ks[driver], requestAuthMsg(req.ReqID, req.Digest()).Bytes(), voters)
	if err != nil {
		t.Fatalf("NewAuthenticator: %v", err)
	}
	req.Auth = a

	m := &Message{Kind: KindRequest, Request: req}
	got, err := DecodeMessage(m.Encode())
	if err != nil {
		t.Fatalf("DecodeMessage: %v", err)
	}
	if !reflect.DeepEqual(got.Request, req) {
		t.Errorf("got %+v\nwant %+v", got.Request, req)
	}
	// The decoded authenticator must still verify.
	if err := got.Request.Auth.VerifyFor(ks[voters[0]], requestAuthMsg(req.ReqID, got.Request.Digest()).Bytes()); err != nil {
		t.Errorf("decoded authenticator failed verification: %v", err)
	}
}

func TestReplyShareAndBundleRoundTrip(t *testing.T) {
	digest := ReplyDigest("c:9", []byte("payload"))
	voter := auth.VoterID("t", 3)
	ks := testKeyStores(t, []byte("m"), voter, auth.DriverID("c", 0), auth.VoterID("c", 0))
	a, err := auth.NewAuthenticator(ks[voter], []byte("endorsed"), []auth.NodeID{auth.DriverID("c", 0), auth.VoterID("c", 0)})
	if err != nil {
		t.Fatal(err)
	}
	share := Share{Replica: 3, Auth: a}
	rs := &Message{Kind: KindReplyShare, ReplyShare: &ReplyShare{
		ReqID: "c:9", Caller: "c", Digest: digest, Share: share, Payload: []byte("payload"),
	}}
	got, err := DecodeMessage(rs.Encode())
	if err != nil {
		t.Fatalf("share decode: %v", err)
	}
	if !reflect.DeepEqual(got.ReplyShare, rs.ReplyShare) {
		t.Errorf("share: got %+v\nwant %+v", got.ReplyShare, rs.ReplyShare)
	}

	rb := &Message{Kind: KindReplyBundle, ReplyBundle: &ReplyBundle{
		ReqID: "c:9", Target: "t", Payload: []byte("payload"), Shares: []Share{share, share},
	}}
	got, err = DecodeMessage(rb.Encode())
	if err != nil {
		t.Fatalf("bundle decode: %v", err)
	}
	if !reflect.DeepEqual(got.ReplyBundle, rb.ReplyBundle) {
		t.Errorf("bundle: got %+v\nwant %+v", got.ReplyBundle, rb.ReplyBundle)
	}

	fw := &Message{Kind: KindResultForward, ResultForward: rb.ReplyBundle}
	got, err = DecodeMessage(fw.Encode())
	if err != nil {
		t.Fatalf("forward decode: %v", err)
	}
	if !reflect.DeepEqual(got.ResultForward, rb.ReplyBundle) {
		t.Errorf("forward mismatch")
	}
}

func TestControlMessagesRoundTrip(t *testing.T) {
	bft := &Message{Kind: KindBFT, BFT: []byte{9, 8, 7}}
	got, err := DecodeMessage(bft.Encode())
	if err != nil || !bytes.Equal(got.BFT, bft.BFT) {
		t.Errorf("bft round trip: %v %v", got, err)
	}
	pf := &Message{Kind: KindPayloadFetch, PayloadFetch: &PayloadFetch{ReqID: "c:1", Digest: ReplyDigest("c:1", []byte("x"))}}
	got, err = DecodeMessage(pf.Encode())
	if err != nil || *got.PayloadFetch != *pf.PayloadFetch {
		t.Errorf("payload fetch round trip: %v %v", got, err)
	}
	bz := &Message{Kind: KindBusy, Busy: &BusyReply{ReqID: "c:2", Replica: 3, RetryAfterMillis: 7, Read: true}}
	got, err = DecodeMessage(bz.Encode())
	if err != nil || *got.Busy != *bz.Busy {
		t.Errorf("busy round trip: %v %v", got, err)
	}
}

func TestDecodeMessageRejectsGarbage(t *testing.T) {
	if _, err := DecodeMessage(nil); err == nil {
		t.Error("decoded empty")
	}
	if _, err := DecodeMessage([]byte{0xEE}); err == nil {
		t.Error("decoded unknown kind")
	}
	m := &Message{Kind: KindPayloadFetch, PayloadFetch: &PayloadFetch{ReqID: "c:1"}}
	enc := m.Encode()
	for i := 1; i < len(enc); i++ {
		if _, err := DecodeMessage(enc[:i]); err == nil {
			t.Errorf("decoded truncation to %d", i)
		}
	}
}

func TestDecodeMessageNeverPanics(t *testing.T) {
	f := func(input []byte) bool {
		_, _ = DecodeMessage(input)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestOpsRoundTrip: an operation decodes to what was encoded. A share
// whose authenticator has no entries is built with a nil vector and
// decodes to one: the empty vector has a single form on both sides.
func TestOpsRoundTrip(t *testing.T) {
	share := Share{Replica: 1, Auth: auth.Authenticator{Sender: auth.VoterID("t", 1)}}
	signer := auth.DriverID("c", 0)
	ks := testKeyStores(t, []byte("m"), signer, auth.VoterID("t", 0), auth.VoterID("t", 1))
	a, err := auth.NewAuthenticator(ks[signer], []byte("endorsed"), []auth.NodeID{auth.VoterID("t", 0), auth.VoterID("t", 1)})
	if err != nil {
		t.Fatal(err)
	}
	signed := Share{Replica: 0, Auth: a}
	ops := []*Op{
		{Kind: OpRequest, ReqID: "c:1", Caller: "c", Responder: 2, Payload: []byte("p"), Shares: []Share{share, signed}},
		{Kind: OpReply, ReqID: "c:1", Target: "t", Payload: []byte("r"), Shares: []Share{share, signed}},
		{Kind: OpAbort, ReqID: "c:2"},
		{Kind: OpUtil, K: 9, Value: -12345},
	}
	for _, op := range ops {
		got, err := DecodeOp(op.Encode())
		if err != nil {
			t.Fatalf("%s: %v", op.Kind, err)
		}
		if !reflect.DeepEqual(got, op) {
			t.Errorf("%s: got %+v\nwant %+v", op.Kind, got, op)
		}
	}
}

func TestDecodeOpRejectsGarbage(t *testing.T) {
	if _, err := DecodeOp(nil); err == nil {
		t.Error("decoded empty op")
	}
	if _, err := DecodeOp([]byte{0xCC, 1}); err == nil {
		t.Error("decoded unknown op kind")
	}
}

func TestOpIDsDistinct(t *testing.T) {
	ids := map[string]bool{
		RequestOpID("x:1"): true,
		ReplyOpID("x:1"):   true,
		AbortOpID("x:1"):   true,
		UtilOpID(1):        true,
	}
	if len(ids) != 4 {
		t.Errorf("op id namespaces collide: %v", ids)
	}
}

func TestRequestDigestExcludesRoutingFields(t *testing.T) {
	a := RequestMsg{ReqID: "c:1", Caller: "c", Target: "t", Payload: []byte("p"), Responder: 0, Attempt: 0}
	b := a
	b.Responder, b.Attempt = 3, 5
	if a.Digest() != b.Digest() {
		t.Error("retransmission with rotated responder changed the request digest")
	}
	c := a
	c.Payload = []byte("q")
	if a.Digest() == c.Digest() {
		t.Error("digest insensitive to payload")
	}
}

func TestVerifyBundle(t *testing.T) {
	master := []byte("m")
	target := ServiceInfo{Name: "t", N: 4}
	callerDriver := auth.DriverID("c", 0)
	all := append(target.VoterIDs(), callerDriver)
	ks := testKeyStores(t, master, all...)

	payload := []byte("the reply")
	reqID := "c:33"
	digest := ReplyDigest(reqID, payload)
	pos := clbft.Position(5, 1)
	msg := replyAuthMsg(reqID, digest, false, 0, pos).Bytes()

	mkShare := func(i int) Share {
		a, err := auth.NewAuthenticator(ks[auth.VoterID("t", i)], msg, []auth.NodeID{callerDriver})
		if err != nil {
			t.Fatalf("share %d: %v", i, err)
		}
		return Share{Replica: i, Auth: a}
	}

	good := &ReplyBundle{ReqID: reqID, Target: "t", Payload: payload, Pos: pos,
		Shares: []Share{mkShare(0), mkShare(2)}}
	if err := VerifyBundle(ks[callerDriver], target, good); err != nil {
		t.Errorf("valid bundle rejected: %v", err)
	}

	// A position changed after minting breaks every share, so a responder
	// cannot raise (or lower) the lease a write settles at.
	for _, p := range []uint64{0, clbft.Position(5, 2), clbft.Position(6, 1)} {
		moved := *good
		moved.Pos = p
		if err := VerifyBundle(ks[callerDriver], target, &moved); err == nil {
			t.Errorf("bundle minted at position %#x accepted at %#x", pos, p)
		}
	}

	// f+1 = 2 needed; one share is insufficient.
	short := &ReplyBundle{ReqID: reqID, Target: "t", Payload: payload, Pos: pos, Shares: []Share{mkShare(0)}}
	if err := VerifyBundle(ks[callerDriver], target, short); err == nil {
		t.Error("bundle with 1 share accepted")
	}

	// Duplicate replica indices must count once.
	dup := &ReplyBundle{ReqID: reqID, Target: "t", Payload: payload, Pos: pos,
		Shares: []Share{mkShare(1), mkShare(1)}}
	if err := VerifyBundle(ks[callerDriver], target, dup); err == nil {
		t.Error("bundle with duplicate shares accepted")
	}

	// Tampered payload invalidates all endorsements.
	tampered := &ReplyBundle{ReqID: reqID, Target: "t", Payload: []byte("forged"), Pos: pos,
		Shares: good.Shares}
	if err := VerifyBundle(ks[callerDriver], target, tampered); err == nil {
		t.Error("tampered bundle accepted")
	}

	// A share claiming a voter identity it does not hold keys for.
	forged := mkShare(0)
	forged.Replica = 3
	wrongID := &ReplyBundle{ReqID: reqID, Target: "t", Payload: payload, Pos: pos,
		Shares: []Share{forged, mkShare(1)}}
	if err := VerifyBundle(ks[callerDriver], target, wrongID); err == nil {
		t.Error("bundle with mismatched share identity accepted")
	}

	// Out-of-range replica index.
	oob := mkShare(0)
	oob.Replica = 9
	oobBundle := &ReplyBundle{ReqID: reqID, Target: "t", Payload: payload, Pos: pos,
		Shares: []Share{oob, mkShare(1)}}
	if err := VerifyBundle(ks[callerDriver], target, oobBundle); err == nil {
		t.Error("bundle with out-of-range share accepted")
	}

	if err := VerifyBundle(ks[callerDriver], target, nil); err == nil {
		t.Error("nil bundle accepted")
	}
}

func TestReplyDigestBinding(t *testing.T) {
	d1 := ReplyDigest("a", []byte("x"))
	d2 := ReplyDigest("a", []byte("y"))
	d3 := ReplyDigest("b", []byte("x"))
	if d1 == d2 || d1 == d3 {
		t.Error("ReplyDigest does not bind request and payload")
	}
	var zero [sha256.Size]byte
	if d1 == zero {
		t.Error("zero digest")
	}
}

// rawRequest hand-encodes a request message whose authenticator claims
// entries entries and carries one, with a MAC of macLen bytes.
func rawRequest(entries uint64, macLen int) []byte {
	w := wire.NewWriter(160)
	w.PutUint8(uint8(KindRequest))
	w.PutUvarint(0) // epoch
	w.PutString("c:1")
	w.PutString("c")
	w.PutString("t")
	w.PutUvarint(0) // responder
	w.PutUvarint(0) // attempt
	w.PutUvarint(0) // expiry
	w.PutBytes([]byte("p"))
	w.PutString(auth.DriverID("c", 0).String())
	w.PutUvarint(entries)
	w.PutString(auth.VoterID("t", 0).String())
	w.PutBytes(bytes.Repeat([]byte{5}, macLen))
	return w.Bytes()
}

// TestDecodeRejectsMalformedAuthenticator: a MAC entry of any length
// but MACSize is a decode error (it used to be carried until the
// comparison failed), and an entry count the input cannot hold is
// refused before it sizes an allocation.
func TestDecodeRejectsMalformedAuthenticator(t *testing.T) {
	m, err := DecodeMessage(rawRequest(1, auth.MACSize))
	if err != nil {
		t.Fatalf("well-formed request rejected: %v", err)
	}
	if mac, ok := m.Request.Auth.EntryFor(auth.VoterID("t", 0)); m.Request.Auth.Len() != 1 || !ok || mac[0] != 5 {
		t.Fatalf("decoded %d entries: %+v", m.Request.Auth.Len(), m.Request.Auth)
	}
	for _, macLen := range []int{0, 1, auth.MACSize - 1, auth.MACSize + 1, 2 * auth.MACSize} {
		if _, err := DecodeMessage(rawRequest(1, macLen)); err == nil {
			t.Errorf("request with a %d-byte MAC entry decoded", macLen)
		}
	}
	for _, entries := range []uint64{2, 1 << 20, 1 << 62} {
		if _, err := DecodeMessage(rawRequest(entries, auth.MACSize)); err == nil {
			t.Errorf("request claiming %d entries and carrying one decoded", entries)
		}
	}
}

// TestCodecAllocBudget pins the allocation counts of the codecs on the
// agreement path, so a regression is caught here rather than as noise in
// the timed benchmark.
func TestCodecAllocBudget(t *testing.T) {
	master := []byte("alloc-budget")
	caller := ServiceInfo{Name: "c", N: 4}
	target := ServiceInfo{Name: "t", N: 4}
	principals := append(caller.DriverIDs(), caller.VoterIDs()...)
	principals = append(principals, target.VoterIDs()...)
	ks := testKeyStores(t, master, principals...)
	driver, voters := auth.DriverID("c", 0), target.VoterIDs()
	a, err := auth.NewAuthenticator(ks[driver], []byte("msg"), voters)
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(512)
	encodeAuthenticator(w, &a)
	encAuth := w.Bytes()
	// An OpRequest with f+1 driver shares.
	shares := make([]Share, caller.F()+1)
	for i := range shares {
		sa, err := auth.NewAuthenticator(ks[auth.DriverID("c", i)], []byte("msg"), voters)
		if err != nil {
			t.Fatal(err)
		}
		shares[i] = Share{Replica: i, Auth: sa}
	}
	op := &Op{Kind: OpRequest, ReqID: "c:123456", Caller: "c", Responder: 1,
		Payload: bytes.Repeat([]byte{1}, 300), Shares: shares}
	encOp := op.Encode()
	// A reply bundle of 4 shares × 8 entries (the caller's drivers and voters).
	b := &ReplyBundle{ReqID: "c:123456", Target: "t", Payload: bytes.Repeat([]byte{2}, 300)}
	for i, v := range voters {
		sa, err := auth.NewAuthenticator(ks[v], []byte("reply"), caller.principals())
		if err != nil {
			t.Fatal(err)
		}
		b.Shares = append(b.Shares, Share{Replica: i, Auth: sa})
	}
	if n := b.Shares[0].Auth.Len(); n != 8 {
		t.Fatalf("share vectors of %d entries, want 8", n)
	}
	frame := (&Message{Kind: KindReplyBundle, ReplyBundle: b}).Encode()

	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"encodeAuthenticator into a pooled writer", 0, func() {
			w := wire.GetWriter(512)
			encodeAuthenticator(w, &a)
			w.Free()
		}},
		{"decodeAuthenticator, copying (the vector)", 1, func() {
			if got := decodeAuthenticator(wire.NewReader(encAuth), false); got.Len() != len(voters) {
				t.Fatalf("decoded %d entries", got.Len())
			}
		}},
		{"decodeAuthenticator, aliasing", 0, func() {
			if got := decodeAuthenticator(wire.NewReader(encAuth), true); got.Len() != len(voters) {
				t.Fatalf("decoded %d entries", got.Len())
			}
		}},
		// The Op, its request id and the share list; the payload and the
		// share vectors alias the input.
		{"DecodeOp of an OpRequest with f+1 shares", 3, func() {
			if _, err := DecodeOp(encOp); err != nil {
				t.Fatal(err)
			}
		}},
		// The message, the bundle, its request id, its payload and its
		// share list; the share vectors alias the frame.
		{"driver-side decode of a 4×8 reply bundle", 5, func() {
			if _, err := decodeMessage(frame, true); err != nil {
				t.Fatal(err)
			}
		}},
		// As above, plus one copy per share vector.
		{"DecodeMessage of a 4×8 reply bundle", 5 + 4, func() {
			if _, err := DecodeMessage(frame); err != nil {
				t.Fatal(err)
			}
		}},
		{"Op.Encode (one buffer)", 1, func() { op.Encode() }},
		{"RequestMsg.Digest", 0, func() {
			r := RequestMsg{ReqID: op.ReqID, Caller: op.Caller, Target: "t", Payload: op.Payload}
			r.Digest()
		}},
	} {
		if got := testing.AllocsPerRun(200, c.f); got > c.max {
			t.Errorf("%s: %.0f allocs per run, budget %.0f", c.name, got, c.max)
		}
	}
}

// TestDecodeOpAliasesItsInput states DecodeOp's ownership contract: the
// payload points into the input (no copy), capped so that appending to
// it cannot write over the rest of the operation.
func TestDecodeOpAliasesItsInput(t *testing.T) {
	signer := auth.DriverID("c", 1)
	ks := testKeyStores(t, []byte("m"), signer, auth.VoterID("t", 0))
	a, err := auth.NewAuthenticator(ks[signer], []byte("endorsed"), []auth.NodeID{auth.VoterID("t", 0)})
	if err != nil {
		t.Fatal(err)
	}
	op := &Op{Kind: OpRequest, ReqID: "c:1", Caller: "c", Payload: []byte("payload"),
		Shares: []Share{{Replica: 1, Auth: a}}}
	enc := op.Encode()
	orig := bytes.Clone(enc)
	got, err := DecodeOp(enc)
	if err != nil {
		t.Fatal(err)
	}
	if i := bytes.Index(enc, []byte("payload")); &got.Payload[0] != &enc[i] {
		t.Error("DecodeOp copied the payload")
	}
	if i := bytes.Index(enc, a.Vector); &got.Shares[0].Auth.Vector[0] != &enc[i] {
		t.Error("DecodeOp copied the share vector")
	}
	_ = append(got.Payload, "overrun"...)
	_ = append(got.Shares[0].Auth.Vector, "overrun"...)
	if !bytes.Equal(enc, orig) {
		t.Error("appending to a decoded field wrote into the operation's buffer")
	}
}
