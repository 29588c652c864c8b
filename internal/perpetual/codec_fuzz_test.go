package perpetual

import (
	"bytes"
	"slices"
	"testing"

	"perpetualws/internal/auth"
)

// fuzzAuth is a real authenticator from sender for receivers.
func fuzzAuth(sender auth.NodeID, receivers ...auth.NodeID) auth.Authenticator {
	ks := auth.NewDerivedKeyStore([]byte("fuzz"), sender, receivers)
	a, err := auth.NewAuthenticator(ks, []byte("fuzz seed"), receivers)
	if err != nil {
		panic(err)
	}
	return a
}

// fuzzBundle is a reply bundle as a responder would assemble it.
func fuzzBundle() *ReplyBundle {
	return &ReplyBundle{ReqID: "c:9", Target: "t", Payload: []byte("<reply/>"), Primary: 1, Epoch: 2, Pos: 0x70003,
		Shares: []Share{
			{Replica: 0, Auth: fuzzAuth(auth.VoterID("t", 0), auth.DriverID("c", 0), auth.VoterID("c", 0))},
			{Replica: 2, Tentative: true, Auth: fuzzAuth(auth.VoterID("t", 2), auth.DriverID("c", 0))},
		}}
}

// fuzzMessageSeeds is one encoded message of every kind, plus the other
// flag settings of a read reply and a busy, from the encoder.
func fuzzMessageSeeds() [][]byte {
	digest := ReplyDigest("c:9", []byte("<reply/>"))
	msgs := []*Message{
		{Kind: KindRequest, Epoch: 1, Request: &RequestMsg{ReqID: "c:9", Caller: "c", Target: "t", Responder: 2, Attempt: 1,
			Expiry: 1700000000000, Payload: []byte("<inc/>"),
			Auth: fuzzAuth(auth.DriverID("c", 0), ServiceInfo{Name: "t", N: 4}.VoterIDs()...)}},
		{Kind: KindBFT, BFT: []byte{2, 0, 0, 0, 7}},
		{Kind: KindReplyShare, ReplyShare: &ReplyShare{ReqID: "c:9", Caller: "c", Digest: digest,
			Share: fuzzBundle().Shares[0], Payload: []byte("<reply/>")}},
		{Kind: KindReplyBundle, Epoch: 2, ReplyBundle: fuzzBundle()},
		{Kind: KindResultForward, ResultForward: fuzzBundle()},
		{Kind: KindPayloadFetch, PayloadFetch: &PayloadFetch{ReqID: "c:9", Digest: digest}},
		{Kind: KindReadRequest, ReadRequest: &ReadRequest{ReqID: "c:10", Caller: "c", Target: "t", Responder: 1,
			MinSeq: 0x70003, Payload: []byte("<home/>")}},
		{Kind: KindReadReply, ReadReply: &ReadReply{ReqID: "c:10", Replica: 1, Seq: 7, Digest: digest, Payload: []byte("<page/>")}},
		{Kind: KindBusy, Busy: &BusyReply{ReqID: "c:11", Replica: 3, RetryAfterMillis: 20, Expired: true, Read: true}},
		{Kind: KindReadReply, ReadReply: &ReadReply{ReqID: "c:12", Replica: 2, Behind: true}},
		{Kind: KindBusy, Busy: &BusyReply{ReqID: "c:13", Replica: 0, RetryAfterMillis: 5}},
	}
	seeds := make([][]byte, len(msgs))
	for i, m := range msgs {
		seeds[i] = m.Encode()
	}
	return seeds
}

// fuzzOpSeeds is an encoded operation of every kind (two membership
// changes), from the encoder.
func fuzzOpSeeds() [][]byte {
	b := fuzzBundle()
	ops := []*Op{
		{Kind: OpRequest, ReqID: "c:9", Caller: "c", Responder: 2, Payload: []byte("<inc/>"),
			Shares: []Share{{Replica: 0, Auth: fuzzAuth(auth.DriverID("c", 0), ServiceInfo{Name: "t", N: 4}.VoterIDs()...)}}},
		{Kind: OpReply, ReqID: b.ReqID, Target: b.Target, Epoch: b.Epoch, Pos: b.Pos, Payload: b.Payload, Shares: b.Shares},
		{Kind: OpAbort, ReqID: "c:9"},
		{Kind: OpUtil, K: 9, Value: -12345},
		{Kind: OpMembership, Payload: (&MembershipChange{Group: "t", Slot: 1, NewEpoch: 1}).Encode()},
		{Kind: OpMembership, Payload: (&MembershipChange{Group: "store#2", Slot: 3, NewEpoch: 3}).Encode()},
	}
	seeds := make([][]byte, len(ops))
	for i, o := range ops {
		seeds[i] = o.Encode()
	}
	return seeds
}

// scribble overwrites every byte of b.
func scribble(b []byte) {
	for i := range b {
		b[i] ^= 0xA5
	}
}

// FuzzDecodeMessage: the decoder never panics; whatever it accepts
// re-encodes to bytes that decode to the same encoding (decode∘encode is
// the identity on accepted input); and the result keeps nothing of the
// input — the frame is a pooled transport buffer, overwritten as soon as
// the handler returns — except a KindBFT body, which is documented to
// alias it.
func FuzzDecodeMessage(f *testing.F) {
	for _, seed := range fuzzMessageSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := DecodeMessage(in)
		if err != nil {
			return
		}
		if kind, reqID := peekClientReqID(in); kind == KindRequest && reqID != m.Request.ReqID ||
			kind == KindReadRequest && reqID != m.ReadRequest.ReqID {
			t.Fatalf("lane classifier read request id %q off a frame that decodes to another", reqID)
		}
		enc := m.Encode()
		again, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-encoding of accepted input rejected: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("decode∘encode is not the identity:\n first %x\nsecond %x", enc, again.Encode())
		}
		if m.Kind == KindBFT {
			return
		}
		scribble(in)
		if !bytes.Equal(m.Encode(), enc) {
			t.Fatal("decoded message changed when the input buffer was overwritten")
		}
	})
}

// FuzzPeekClientReqID: the client lane classifies frames before
// anything decodes them (isClientKind, peekClientReqID), and answers
// busy on what it read. For every input DecodeMessage accepts, it must
// read the kind and the request id the full decode reads.
func FuzzPeekClientReqID(f *testing.F) {
	for _, seed := range fuzzMessageSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		kind, reqID := peekClientReqID(in)
		client := isClientKind(in)
		m, err := DecodeMessage(in)
		if err != nil {
			return
		}
		want := ""
		switch m.Kind {
		case KindRequest:
			want = m.Request.ReqID
		case KindReadRequest:
			want = m.ReadRequest.ReqID
		}
		if kind != m.Kind || reqID != want {
			t.Fatalf("lane classifier read (%v, %q), the decoder (%v, %q)", kind, reqID, m.Kind, want)
		}
		if isClient := m.Kind == KindRequest || m.Kind == KindReadRequest; client != isClient {
			t.Fatalf("isClientKind = %v for a %v", client, m.Kind)
		}
	})
}

// withoutVectors is a copy of shares with their vectors emptied.
func withoutVectors(shares []Share) []Share {
	out := slices.Clone(shares)
	for i := range out {
		out[i].Auth.Vector = nil
	}
	return out
}

// FuzzDecodeOp: never a panic; decode∘encode is the identity on accepted
// input; and ownership as DecodeOp documents it — Payload and the share
// vectors alias the input, everything else (ids, names, signers, share
// lists) is a copy that survives the input being overwritten.
func FuzzDecodeOp(f *testing.F) {
	for _, seed := range fuzzOpSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		o, err := DecodeOp(in)
		if err != nil {
			return
		}
		enc := o.Encode()
		again, err := DecodeOp(enc)
		if err != nil {
			t.Fatalf("re-encoding of accepted input rejected: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("decode∘encode is not the identity:\n first %x\nsecond %x", enc, again.Encode())
		}
		// Everything but the aliased payload and vectors, before and after.
		copied := func() []byte {
			c := *o
			c.Payload = nil
			c.Shares = withoutVectors(c.Shares)
			return c.Encode()
		}
		before := copied()
		scribble(in)
		if !bytes.Equal(copied(), before) {
			t.Fatal("a copied field of the decoded operation changed when the input buffer was overwritten")
		}
	})
}
