package clbft

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzSeeds is one encoded message of every type, from the encoder.
func fuzzSeeds() [][]byte {
	req := Request{OpID: "req:client:7", Op: []byte("operation body")}
	batch := encodeBatch([]*Request{&req, {OpID: "req:client:8", Op: []byte("another")}})
	d := req.Digest()
	commits := []Vote{{Phase: PhaseCommit, View: 1, Seq: 5, Digest: d}, {Phase: PhaseCommit, View: 1, Seq: 6, Digest: d}}
	prepare := Vote{Phase: PhasePrepare, View: 1, Seq: 7, Digest: d}
	vc := ViewChange{NewView: 2, LastStable: 4, StateD: d, Replica: 1,
		Prepared: []PreparedEntry{{View: 1, Seq: 5, Digest: d, Request: req}, {View: 1, Seq: 6, Request: *NullRequest()}}}
	msgs := []*Message{
		{Type: MsgRequest, Request: &req},
		{Type: MsgPrePrepare, PrePrepare: &PrePrepare{View: 1, Seq: 7, Digest: batch.Digest(), Request: *batch, Piggy: commits}},
		votesMsg(append([]Vote{prepare}, commits...)...),
		votesMsg(commits...),
		votesMsg(),
		{Type: MsgCheckpoint, Checkpoint: &Checkpoint{Seq: 64, State: d, Replica: 2}},
		{Type: MsgViewChange, ViewChange: &vc},
		{Type: MsgNewView, NewView: &NewView{View: 2, ViewChanges: []ViewChange{vc, {NewView: 2, Replica: 2}},
			PrePrepares: []PrePrepare{{View: 2, Seq: 5, Digest: d, Request: req}}}},
		{Type: MsgFetch, Fetch: &Fetch{From: 3, To: 12, Replica: 1}},
		{Type: MsgFetchReply, FetchReply: &FetchReply{From: 3, To: 5,
			Ops: []FetchedOp{{Seq: 4, Request: req}, {Seq: 5, Request: *NullRequest()}}}},
	}
	seeds := make([][]byte, len(msgs))
	for i, m := range msgs {
		seeds[i] = m.Encode()
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
// the identity on accepted input); and, as documented, the result does
// not alias the input — overwriting the frame afterwards (transports
// reuse it) changes nothing. decodeVotes, which ReceiveEncoded uses,
// accepts exactly the votes frames DecodeMessage accepts, with the same
// votes in the same order.
func FuzzDecodeMessage(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := DecodeMessage(in)
		if len(in) > 0 && MsgType(in[0]) == MsgVotes {
			votes, ok := decodeVotes(in, nil)
			if ok != (err == nil) {
				t.Fatalf("decodeVotes accepts: %v, DecodeMessage: %v", ok, err)
			}
			if err == nil && !reflect.DeepEqual(votes, m.Votes) {
				t.Fatalf("decodeVotes yields %v, DecodeMessage %v", votes, m.Votes)
			}
		}
		if err != nil {
			return
		}
		enc := m.Encode()
		again, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-encoding of accepted input rejected: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("decode∘encode is not the identity:\n first %x\nsecond %x", enc, again.Encode())
		}
		scribble(in)
		if !bytes.Equal(m.Encode(), enc) {
			t.Fatal("decoded message changed when the input buffer was overwritten")
		}
	})
}

// FuzzDecodeBatch feeds arbitrary bodies under the OpID their content
// hashes to, so the body parser is what is exercised: never a panic; an
// accepted batch re-encodes to itself; entries alias the body (their Ops
// are documented to) but their OpIDs are copies that survive the body
// being overwritten.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(encodeBatch([]*Request{{OpID: "a", Op: []byte("first")}, {OpID: "b", Op: []byte("second")}}).Op)
	f.Add(encodeBatch([]*Request{{OpID: "solo", Op: bytes.Repeat([]byte{7}, 300)}}).Op)
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, body []byte) {
		id := batchID(body)
		req := &Request{OpID: string(id[:]), Op: body}
		ops, err := decodeBatch(req)
		if err != nil {
			if got := carriedOps(req); len(got) != 1 || got[0].OpID != req.OpID {
				t.Fatalf("undecodable batch carries %d operations", len(got))
			}
			return
		}
		inner := make([]*Request, len(ops))
		ids := make([]string, len(ops))
		for i := range ops {
			inner[i] = &Request{OpID: ops[i].OpID, Op: bytes.Clone(ops[i].Op)}
			ids[i] = ops[i].OpID
		}
		re := encodeBatch(inner)
		reOps, err := decodeBatch(re)
		if err != nil || len(reOps) != len(ops) {
			t.Fatalf("re-encoded batch: %d operations, %v", len(reOps), err)
		}
		for i := range reOps {
			if reOps[i].OpID != ops[i].OpID || !bytes.Equal(reOps[i].Op, ops[i].Op) {
				t.Fatalf("entry %d changed across re-encoding", i)
			}
		}
		scribble(body)
		for i := range ops {
			if ops[i].OpID != ids[i] {
				t.Fatalf("entry %d OpID changed when the body was overwritten", i)
			}
		}
	})
}
