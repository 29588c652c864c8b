// Micro-benchmark bodies shared between the root go-test benchmarks
// (BenchmarkBroadcastEncode and friends) and `perpetualctl bench
// -json`, which runs them via testing.Benchmark so the published
// figures and the CI smoke step exercise identical code.
package bench

import (
	"testing"

	"perpetualws/internal/auth"
	"perpetualws/internal/clbft"
	"perpetualws/internal/perpetual"
	"perpetualws/internal/transport"
	"perpetualws/internal/wire"
)

// nullConn discards frames, isolating encode and MAC costs from
// delivery.
type nullConn struct{ id auth.NodeID }

func (c nullConn) Send(auth.NodeID, []byte) error { return nil }
func (c nullConn) SetHandler(func([]byte))        {}
func (c nullConn) LocalID() auth.NodeID           { return c.id }
func (c nullConn) Close() error                   { return nil }

// microAdapter builds a ChannelAdapter over a null connection for a
// voter group of n, returning the adapter and the n-1 peers.
func microAdapter(n int) (*transport.ChannelAdapter, []auth.NodeID) {
	self := auth.VoterID("t", 0)
	peers := make([]auth.NodeID, 0, n-1)
	all := []auth.NodeID{self}
	for i := 1; i < n; i++ {
		peers = append(peers, auth.VoterID("t", i))
		all = append(all, auth.VoterID("t", i))
	}
	ks := auth.NewDerivedKeyStore([]byte("bench"), self, all)
	return transport.NewChannelAdapter(ks, nullConn{id: self}), peers
}

// microPrePrepare builds a representative CLBFT pre-prepare: the
// piggybacked request is an OpRequest with an f+1 share certificate,
// the shape every agreement broadcast in Figure 7 carries.
func microPrePrepare() *clbft.Message {
	op := perpetual.Op{
		Kind:    perpetual.OpRequest,
		ReqID:   "c:12345",
		Caller:  "c",
		Payload: make([]byte, 256),
	}
	for i := 0; i < 2; i++ {
		share := perpetual.Share{Replica: i, Auth: auth.Authenticator{Sender: auth.DriverID("c", i)}}
		for j := 0; j < 4; j++ {
			share.Auth.Entries = append(share.Auth.Entries, auth.Entry{
				Receiver: auth.VoterID("t", j),
			})
		}
		op.Shares = append(op.Shares, share)
	}
	req := clbft.Request{OpID: "req:c:12345", Op: op.Encode()}
	return &clbft.Message{Type: clbft.MsgPrePrepare, PrePrepare: &clbft.PrePrepare{
		View: 0, Seq: 1, Digest: req.Digest(), Request: req,
	}}
}

// MicroBroadcastEncodePerReceiver is the legacy broadcast path: one
// full re-encode plus MAC per receiver of an n=4 group.
func MicroBroadcastEncodePerReceiver(b *testing.B) {
	m := microPrePrepare()
	ad, peers := microAdapter(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range peers {
			msg := &perpetual.Message{Kind: perpetual.KindBFT, BFT: m.Encode()}
			if err := ad.Send(p, msg.Encode()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// MicroBroadcastEncodeMulticast is the encode-once multicast path the
// voter's BFT transport now uses: serialize once into pooled writers,
// MAC per receiver.
func MicroBroadcastEncodeMulticast(b *testing.B) {
	m := microPrePrepare()
	ad, peers := microAdapter(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inner := wire.GetWriter(256)
		m.EncodeTo(inner)
		msg := &perpetual.Message{Kind: perpetual.KindBFT, BFT: inner.Bytes()}
		outer := wire.GetWriter(msg.SizeHint())
		msg.EncodeTo(outer)
		if err := ad.SendMulti(peers, outer.Bytes()); err != nil {
			b.Fatal(err)
		}
		outer.Free()
		inner.Free()
	}
}

func microReplyShare(payload []byte) *perpetual.ReplyShare {
	share := perpetual.Share{Replica: 0, Auth: auth.Authenticator{Sender: auth.VoterID("t", 0)}}
	for j := 0; j < 2; j++ {
		share.Auth.Entries = append(share.Auth.Entries, auth.Entry{
			Receiver: auth.DriverID("c", j),
		})
	}
	return &perpetual.ReplyShare{
		ReqID:  "c:12345",
		Caller: "c",
		Digest: perpetual.ReplyDigest("c:12345", payload),
		Share:  share,
	}
}

// MicroReplyShareWithPayload encodes and sends a legacy stage-5 share
// carrying a 1 KiB reply payload.
func MicroReplyShareWithPayload(b *testing.B) {
	ad, peers := microAdapter(4)
	payload := make([]byte, 1024)
	rs := microReplyShare(payload)
	rs.Payload = payload
	msg := &perpetual.Message{Kind: perpetual.KindReplyShare, ReplyShare: rs}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := wire.GetWriter(msg.SizeHint())
		msg.EncodeTo(w)
		if err := ad.Send(peers[0], w.Bytes()); err != nil {
			b.Fatal(err)
		}
		w.Free()
	}
}

// MicroReplyShareDigestOnly encodes and sends the digest-only share the
// responder now receives for the same 1 KiB reply.
func MicroReplyShareDigestOnly(b *testing.B) {
	ad, peers := microAdapter(4)
	rs := microReplyShare(make([]byte, 1024))
	msg := &perpetual.Message{Kind: perpetual.KindReplyShare, ReplyShare: rs}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := wire.GetWriter(msg.SizeHint())
		msg.EncodeTo(w)
		if err := ad.Send(peers[0], w.Bytes()); err != nil {
			b.Fatal(err)
		}
		w.Free()
	}
}

// MicroAuthenticatorBuild measures building a reply authenticator (MAC
// vector) for the 8 receivers of an n=4 calling service (4 drivers + 4
// voters), the stage-4 cost every executed request pays at every target
// voter.
func MicroAuthenticatorBuild(b *testing.B) {
	self := auth.VoterID("t", 0)
	receivers := make([]auth.NodeID, 0, 8)
	all := []auth.NodeID{self}
	for i := 0; i < 4; i++ {
		receivers = append(receivers, auth.DriverID("c", i), auth.VoterID("c", i))
	}
	all = append(all, receivers...)
	ks := auth.NewDerivedKeyStore([]byte("bench"), self, all)
	msg := make([]byte, 64) // replyAuthMsg shape: tag + reqID + digest
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := auth.NewAuthenticator(ks, msg, receivers); err != nil {
			b.Fatal(err)
		}
	}
}
