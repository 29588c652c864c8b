package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"perpetualws/internal/auth"
	"perpetualws/internal/clbft"
	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/tpcw"
	"perpetualws/internal/transport"
	"perpetualws/internal/wire"
	"perpetualws/internal/wsengine"
)

// Stand-alone timings of each layer's public functions on the
// workload's own message shapes. They are the unit costs that explain
// the ladder rows: transport.msgs_per_req x (auth.mac_ns +
// auth.verify_ns) is the MAC share of a request, and so on.

// sink keeps results alive so the compiler cannot drop a timed call.
var sink any

// timeNs reports the median nanoseconds per call of fn: it doubles a
// batch until one batch fills a tenth of budget, then takes the median
// of seven batches.
func timeNs(budget time.Duration, fn func()) float64 {
	batch := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return time.Since(start)
	}
	n := 1
	for batch(n) < budget/10 && n < 1<<22 {
		n *= 2
	}
	var per []float64
	for i := 0; i < 7; i++ {
		per = append(per, float64(batch(n).Nanoseconds())/float64(n))
	}
	return median(per)
}

// discardConn is a transport.Connection that drops every frame: the
// adapter timings measure MAC + framing, not delivery.
type discardConn struct{ id auth.NodeID }

func (discardConn) Send(auth.NodeID, []byte) error { return nil }
func (discardConn) SetHandler(func([]byte))        {}
func (c discardConn) LocalID() auth.NodeID         { return c.id }
func (discardConn) Close() error                   { return nil }

type discardSender struct{}

func (discardSender) Send(*wsengine.MessageContext) error { return nil }

type discardReceiver struct{}

func (discardReceiver) Receive(*wsengine.MessageContext) error { return nil }

// hopNs times frames pipelined one way from a to b, per frame. At most
// half a default link queue is in flight, so nothing is dropped.
func hopNs(budget time.Duration, a, b transport.Connection, frame []byte) (float64, error) {
	const burst = 256
	var got atomic.Int64
	b.SetHandler(func([]byte) { got.Add(1) })
	a.SetHandler(func([]byte) {})
	sent := int64(0)
	batch := func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < burst; i++ {
			if err := a.Send(b.LocalID(), frame); err != nil {
				return 0, err
			}
		}
		sent += burst
		for got.Load() < sent {
			if time.Since(start) > 2*time.Second {
				return 0, fmt.Errorf("hop %s -> %s: %d of %d frames arrived", a.LocalID(), b.LocalID(), got.Load(), sent)
			}
			runtime.Gosched()
		}
		return time.Since(start), nil
	}
	if _, err := batch(); err != nil { // connects and warms the link
		return 0, err
	}
	var per []float64
	for deadline := time.Now().Add(budget); len(per) < 3 || time.Now().Before(deadline); {
		d, err := batch()
		if err != nil {
			return 0, err
		}
		per = append(per, float64(d.Nanoseconds())/burst)
	}
	return median(per), nil
}

func microTimings(m map[string]float64, w *workload, seed int64, budget time.Duration) error {
	reqEnv, replyEnv := w.shapes()
	reqBytes, _ := reqEnv.Marshal()
	replyBytes, _ := replyEnv.Marshal()

	// soap
	m["soap.envelope_bytes"] = float64(len(reqBytes)+len(replyBytes)) / 2
	m["soap.marshal_ns"] = timeNs(budget, func() {
		b, _ := reqEnv.Marshal()
		sink, _ = replyEnv.Marshal()
		sink = b
	}) / 2
	m["soap.parse_ns"] = timeNs(budget, func() {
		e, _ := soap.Parse(reqBytes)
		sink, _ = soap.Parse(replyBytes)
		sink = e
	}) / 2

	// wsengine: the engine as core.NewNode assembles it, minus perpetual.
	engine := wsengine.NewEngine()
	engine.OutPipe.Add(wsengine.AddressingOutHandler())
	engine.InPipe.Add(wsengine.AddressingInHandler())
	engine.SetSender(discardSender{})
	engine.SetReceiver(discardReceiver{})
	out := wsengine.NewMessageContext()
	out.Options.To, out.Options.Action = reqEnv.Header.To, reqEnv.Header.Action
	out.Envelope.Body = reqEnv.Body
	m["wsengine.sendout_ns"] = timeNs(budget, func() {
		out.Envelope.Header = soap.Header{}
		sink = engine.SendOut(out)
	})
	in := wsengine.NewMessageContext()
	in.Envelope = reqEnv
	m["wsengine.receivein_ns"] = timeNs(budget, func() { sink = engine.ReceiveIn(in) })

	// wire: two strings, 512 B of bytes, four uvarints.
	blob := make([]byte, 512)
	encodeRecord := func() *wire.Writer {
		wr := wire.GetWriter(640)
		wr.PutString("client:123456")
		wr.PutString("target")
		wr.PutBytes(blob)
		for v := uint64(1); v <= 4; v++ {
			wr.PutUvarint(v << (7 * v))
		}
		return wr
	}
	m["wire.encode_ns"] = timeNs(budget, func() { encodeRecord().Free() })
	record := append([]byte(nil), encodeRecord().Bytes()...)
	m["wire.decode_ns"] = timeNs(budget, func() {
		r := wire.NewReader(record)
		_, _, _ = r.String(), r.String(), r.Bytes()
		sink = r.Uvarint() + r.Uvarint() + r.Uvarint() + r.Uvarint()
	})

	// auth: one 64 B MAC each way, and an authenticator for 8 receivers.
	master := []byte("benchmark-micro")
	self := auth.DriverID("client", 0)
	var peers []auth.NodeID
	for i := 0; i < 8; i++ {
		peers = append(peers, auth.VoterID("target", i))
	}
	ks := auth.NewDerivedKeyStore(master, self, peers)
	peerKS := auth.NewDerivedKeyStore(master, peers[0], []auth.NodeID{self})
	msg64 := make([]byte, 64)
	mac, err := ks.SignDomain(peers[0], auth.DomainFrameRaw, msg64)
	if err != nil {
		return err
	}
	m["auth.mac_ns"] = timeNs(budget, func() { sink, _ = ks.SignDomain(peers[0], auth.DomainFrameRaw, msg64) })
	m["auth.verify_ns"] = timeNs(budget, func() { sink = peerKS.VerifyDomain(self, auth.DomainFrameRaw, msg64, mac) })
	m["auth.authenticator_build8_ns"] = timeNs(budget, func() { sink, _ = auth.NewAuthenticator(ks, reqBytes, peers) })
	authn, err := auth.NewAuthenticator(ks, reqBytes, peers)
	if err != nil {
		return err
	}
	if err := authn.VerifyFor(peerKS, reqBytes); err != nil {
		return err
	}
	m["auth.authenticator_verify_ns"] = timeNs(budget, func() { sink = authn.VerifyFor(peerKS, reqBytes) })

	// perpetual: the request message a driver sends to a group of four.
	reqAuth, err := auth.NewAuthenticator(ks, reqBytes, peers[:groupSize])
	if err != nil {
		return err
	}
	pmsg := &perpetual.Message{Kind: perpetual.KindRequest, Request: &perpetual.RequestMsg{
		ReqID: "client:123456", Caller: "client", Target: "target", Payload: reqBytes, Auth: reqAuth,
	}}
	m["perpetual.msg_encode_ns"] = timeNs(budget, func() {
		wr := wire.GetWriter(pmsg.SizeHint())
		pmsg.EncodeTo(wr)
		wr.Free()
	})
	pbytes := pmsg.Encode()
	m["perpetual.msg_decode_ns"] = timeNs(budget, func() { sink, _ = perpetual.DecodeMessage(pbytes) })

	// clbft: a pre-prepare carrying that request as its operation.
	op := clbft.Request{OpID: "client:123456", Op: pbytes}
	cmsg := &clbft.Message{Type: clbft.MsgPrePrepare, PrePrepare: &clbft.PrePrepare{Seq: 123456, Digest: op.Digest(), Request: op}}
	m["clbft.msg_encode_ns"] = timeNs(budget, func() {
		wr := wire.GetWriter(len(pbytes) + 128)
		cmsg.EncodeTo(wr)
		wr.Free()
	})
	cbytes := cmsg.Encode()
	m["clbft.msg_decode_ns"] = timeNs(budget, func() { sink, _ = clbft.DecodeMessage(cbytes) })

	// transport: MAC + framing through the adapter, then the two wires.
	adapter := transport.NewChannelAdapter(ks, discardConn{id: self})
	m["transport.adapter_send_ns"] = timeNs(budget, func() { sink = adapter.Send(peers[0], pbytes) })
	m["transport.adapter_multicast3_ns"] = timeNs(budget, func() { sink = adapter.SendMulti(peers[1:4], cbytes) })

	frame := make([]byte, 512)
	a, b := auth.VoterID("hop", 0), auth.VoterID("hop", 1)
	network := transport.NewNetwork()
	if m["transport.memnet_hop_ns"], err = hopNs(budget, network.Port(a), network.Port(b), frame); err != nil {
		return err
	}
	if err := network.Close(); err != nil {
		return err
	}
	book := transport.NewAddressBook()
	ta, err := transport.ListenTCP(a, "127.0.0.1:0", book)
	if err != nil {
		return err
	}
	defer ta.Close()
	tb, err := transport.ListenTCP(b, "127.0.0.1:0", book)
	if err != nil {
		return err
	}
	defer tb.Close()
	book.Set(a, ta.Addr())
	book.Set(b, tb.Addr())
	if m["transport.tcp_hop_ns"], err = hopNs(budget, ta, tb, frame); err != nil {
		return err
	}

	// tpcw: the store's page logic on a local DB over the browse mix, and
	// the two tiers' body codecs.
	store := tpcw.NewBookstore(tpcw.NewDB(storeItems, storeCustomers), nil)
	session := &browseSession{session: tpcw.Session{CustomerID: 1}, rng: rand.New(rand.NewSource(seed)), cart: map[int]bool{}}
	m["tpcw.execute_ns"] = timeNs(budget, func() {
		kind, arg := session.next()
		sink, _ = store.Execute(kind, &session.session, arg)
	})
	page := tpcw.Page{Interaction: tpcw.ProductDetail, Size: 3507, Detail: "Book #42"}
	m["tpcw.page_codec_ns"] = timeNs(budget, func() { sink, _ = tpcw.DecodePage(tpcw.EncodePage(page)) })
	m["tpcw.authorize_codec_ns"] = timeNs(budget, func() {
		card, amount, _ := tpcw.DecodeAuthorize(tpcw.EncodeAuthorize("4111-0001-0007", 12345))
		ok, txn, _ := tpcw.DecodeAuthorization(tpcw.EncodeAuthorization(amount > 0, card))
		sink = ok
		sink = txn
	})
	return nil
}
