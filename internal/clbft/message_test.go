package clbft

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	got, err := DecodeMessage(m.Encode())
	if err != nil {
		t.Fatalf("DecodeMessage(%s): %v", m.Type, err)
	}
	return got
}

func TestRequestCodec(t *testing.T) {
	m := &Message{Type: MsgRequest, Request: &Request{OpID: "svc/driver/0#42", Op: []byte{1, 2, 3}}}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got.Request, m.Request) {
		t.Errorf("got %+v, want %+v", got.Request, m.Request)
	}
}

func TestPrePrepareCodec(t *testing.T) {
	req := Request{OpID: "x", Op: []byte("body")}
	m := &Message{Type: MsgPrePrepare, PrePrepare: &PrePrepare{
		View: 3, Seq: 77, Digest: req.Digest(), Request: req,
	}}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got.PrePrepare, m.PrePrepare) {
		t.Errorf("got %+v, want %+v", got.PrePrepare, m.PrePrepare)
	}
}

func TestPrepareCommitCodec(t *testing.T) {
	d := (&Request{OpID: "q"}).Digest()
	m := votesMsg(Vote{Phase: PhasePrepare, View: 1, Seq: 2, Digest: d}, Vote{Phase: PhaseCommit, View: 1, Seq: 1, Digest: d})
	if got := roundTrip(t, m); !reflect.DeepEqual(got.Votes, m.Votes) {
		t.Errorf("votes: got %+v", got.Votes)
	}
	bad := votesMsg(Vote{Phase: PhaseCommit + 1, View: 1, Seq: 2, Digest: d})
	if _, err := DecodeMessage(bad.Encode()); err == nil {
		t.Error("a vote of unknown phase decoded")
	}
}

func TestCheckpointCodec(t *testing.T) {
	var d Digest
	copy(d[:], bytes.Repeat([]byte{0xCD}, len(d)))
	m := &Message{Type: MsgCheckpoint, Checkpoint: &Checkpoint{Seq: 64, State: d, Replica: 2}}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got.Checkpoint, m.Checkpoint) {
		t.Errorf("got %+v", got.Checkpoint)
	}
}

func TestViewChangeCodec(t *testing.T) {
	req := Request{OpID: "vc-op", Op: []byte("z")}
	m := &Message{Type: MsgViewChange, ViewChange: &ViewChange{
		NewView:    9,
		LastStable: 128,
		StateD:     req.Digest(),
		Prepared: []PreparedEntry{
			{View: 8, Seq: 129, Digest: req.Digest(), Request: req},
			{View: 7, Seq: 130, Digest: Digest{}, Request: *NullRequest()},
		},
		Replica: 1,
	}}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got.ViewChange, m.ViewChange) {
		t.Errorf("got %+v, want %+v", got.ViewChange, m.ViewChange)
	}
}

func TestNewViewCodec(t *testing.T) {
	req := Request{OpID: "nv-op", Op: []byte("w")}
	vc := ViewChange{NewView: 2, LastStable: 0, Replica: 0,
		Prepared: []PreparedEntry{{View: 1, Seq: 1, Digest: req.Digest(), Request: req}}}
	m := &Message{Type: MsgNewView, NewView: &NewView{
		View:        2,
		ViewChanges: []ViewChange{vc, {NewView: 2, Replica: 1}, {NewView: 2, Replica: 2}},
		PrePrepares: []PrePrepare{{View: 2, Seq: 1, Digest: req.Digest(), Request: req}},
	}}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got.NewView, m.NewView) {
		t.Errorf("got %+v, want %+v", got.NewView, m.NewView)
	}
}

func TestFetchCodec(t *testing.T) {
	m := &Message{Type: MsgFetch, Fetch: &Fetch{From: 3, To: 12, Replica: 1}}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got.Fetch, m.Fetch) {
		t.Errorf("got %+v", got.Fetch)
	}
	fr := &Message{Type: MsgFetchReply, FetchReply: &FetchReply{
		From: 3, To: 5,
		Ops: []FetchedOp{
			{Seq: 4, Request: Request{OpID: "a", Op: []byte("1")}},
			{Seq: 5, Request: *NullRequest()},
		},
	}}
	got = roundTrip(t, fr)
	if !reflect.DeepEqual(got.FetchReply, fr.FetchReply) {
		t.Errorf("got %+v, want %+v", got.FetchReply, fr.FetchReply)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeMessage(nil); err == nil {
		t.Error("decoded empty message")
	}
	if _, err := DecodeMessage([]byte{0xFF, 1, 2, 3}); err == nil {
		t.Error("decoded unknown message type")
	}
	// Truncations of a valid message must all fail cleanly.
	req := Request{OpID: "trunc", Op: []byte("body")}
	m := &Message{Type: MsgPrePrepare, PrePrepare: &PrePrepare{View: 1, Seq: 2, Digest: req.Digest(), Request: req}}
	enc := m.Encode()
	for i := 1; i < len(enc); i++ {
		if _, err := DecodeMessage(enc[:i]); err == nil {
			t.Errorf("decoded truncation to %d bytes", i)
		}
	}
}

func TestDecodeNeverPanicsOnFuzzInput(t *testing.T) {
	f := func(input []byte) bool {
		_, _ = DecodeMessage(input)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRequestDigestDistinguishesFields(t *testing.T) {
	// OpID/Op boundary must be unambiguous: ("ab","c") != ("a","bc").
	d1 := (&Request{OpID: "ab", Op: []byte("c")}).Digest()
	d2 := (&Request{OpID: "a", Op: []byte("bc")}).Digest()
	if d1 == d2 {
		t.Error("digest collision across OpID/Op boundary")
	}
}

func TestNullRequest(t *testing.T) {
	if !NullRequest().IsNull() {
		t.Error("NullRequest is not null")
	}
	if (&Request{OpID: "x"}).IsNull() {
		t.Error("non-empty request reported null")
	}
}

// TestMessageStringCoversTypes: every message type has its own name.
func TestMessageStringCoversTypes(t *testing.T) {
	seen := make(map[string]bool)
	for mt := MsgRequest; mt <= MsgFetchReply; mt++ {
		s := mt.String()
		if strings.HasPrefix(s, "msgtype(") || seen[s] {
			t.Errorf("type %d is named %q", mt, s)
		}
		seen[s] = true
	}
}

// Property: request codec round-trips arbitrary content.
func TestRequestCodecProperty(t *testing.T) {
	f := func(opID string, op []byte) bool {
		m := &Message{Type: MsgRequest, Request: &Request{OpID: opID, Op: op}}
		got, err := DecodeMessage(m.Encode())
		if err != nil {
			return false
		}
		return got.Request.OpID == opID && bytes.Equal(got.Request.Op, op)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
