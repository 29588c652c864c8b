package perpetual

import (
	"slices"
	"strconv"
	"testing"
	"time"

	"perpetualws/internal/auth"
	"perpetualws/internal/clbft"
	"perpetualws/internal/transport"
)

// TestVoterRequestRecord walks one request record through the lifecycle
// events that create, complete, evict and re-arm it, on a bare voter
// (replica 0 of t, the responder) with a CLBFT instance that orders
// nothing by itself: deliveries are fed by hand.
func TestVoterRequestRecord(t *testing.T) {
	type fixture struct {
		v      *voter
		stores map[auth.NodeID]*auth.KeyStore
		// frames the calling driver c/0 and the peer voter t/1 received
		driver, peer chan *Message
	}
	setup := func(t *testing.T) *fixture {
		net := transport.NewNetwork()
		t.Cleanup(func() { net.Close() })
		v, reg, stores := newBareVoterOn(t, net)
		v.bftp.Store((&verdictFixture{t: t, v: v, stores: stores}).start(&clbft.Bootstrap{}))
		v.driver = newDriver(v.svc, 0, reg, nil, nil, v, nil)
		listen := func(id auth.NodeID) chan *Message {
			ch := make(chan *Message, 16)
			transport.NewChannelAdapter(stores[id], net.Port(id)).SetHandler(func(_ auth.NodeID, p []byte) {
				if m, err := DecodeMessage(p); err == nil {
					ch <- m
				}
			})
			return ch
		}
		return &fixture{v: v, stores: stores, driver: listen(auth.DriverID("c", 0)), peer: listen(auth.VoterID("t", 1))}
	}
	deliver := func(v *voter, seq uint64, id string, responder int) {
		v.onDeliver(clbft.Delivery{Seq: seq, Pos: clbft.Position(seq, 0), OpID: RequestOpID(id),
			Parsed: &Op{Kind: OpRequest, ReqID: id, Caller: "c", Responder: responder, Payload: []byte("p")}})
	}
	share := func(id string, from int, payload string) *ReplyShare {
		return &ReplyShare{ReqID: id, Caller: "c", Digest: ReplyDigest(id, []byte(payload)),
			Share: Share{Replica: from, Tentative: true}}
	}
	await := func(t *testing.T, ch chan *Message, kind Kind) *Message {
		t.Helper()
		for {
			select {
			case m := <-ch:
				if m.Kind == kind {
					return m
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("no %v frame arrived", kind)
				return nil
			}
		}
	}

	for _, row := range []struct {
		name string
		run  func(t *testing.T, fx *fixture)
	}{
		{"share before delivery, own result completes the bundle", func(t *testing.T, fx *fixture) {
			v := fx.v
			v.handleReplyShare(auth.VoterID("t", 1), share("c:1", 1, "ok"))
			v.handleReplyShare(auth.VoterID("t", 2), share("c:1", 2, "ok"))
			r := v.reqs.recs["c:1"]
			if r == nil || r.collecting || r.executing || r.sent {
				t.Fatalf("share-created record: %+v", r)
			}
			deliver(v, 1, "c:1", 0)
			if v.reqs.recs["c:1"] != r || !r.executing || r.slots == nil {
				t.Fatalf("delivery replaced or emptied the record: %+v", v.reqs.recs["c:1"])
			}
			// Executed ahead of the commit horizon, the own share is
			// tentative too: three tentative shares make the quorum.
			v.handleLocalResult("c:1", []byte("ok"))
			b := await(t, fx.driver, KindReplyBundle).ReplyBundle
			var from []int
			for _, s := range b.Shares {
				from = append(from, s.Replica)
			}
			if string(b.Payload) != "ok" || !slices.Equal(from, []int{0, 1, 2}) {
				t.Errorf("bundle %q from voters %v, want \"ok\" from [0 1 2]", b.Payload, from)
			}
			if !r.minted || r.executing || !r.sent {
				t.Errorf("completed record: minted %v, executing %v, sent %v", r.minted, r.executing, r.sent)
			}
		}},
		{"floods of copies and shares evict neither agreed requests nor replies", func(t *testing.T, fx *fixture) {
			v := fx.v
			// c:1 is agreed and executing, its share bound for voter 1;
			// c:2 holds a minted reply.
			deliver(v, 1, "c:1", 1)
			deliver(v, 2, "c:2", 0)
			v.handleLocalResult("c:2", []byte("ok"))
			// One faulty driver sends single copies of fresh ids up to the
			// intake bound; one faulty voter sends shares for ids nobody
			// called, twice as many as the waiting list holds.
			drv := auth.DriverID("c", 0)
			for i := range v.reqs.maxIntake {
				v.handleExternalRequest(drv, signedRequest(t, fx.stores, 0, "c:"+strconv.Itoa(10+i), nil, 0))
			}
			for i := range reqTableSize {
				v.handleReplyShare(auth.VoterID("t", 1), share("c:"+strconv.Itoa(100000+i), 1, "x"))
			}
			v.mu.Lock()
			collecting, waiting := v.reqs.collecting.n, v.reqs.waiting.n
			eldest := v.reqs.recs["c:100000"] != nil
			newest := v.reqs.recs["c:"+strconv.Itoa(100000+reqTableSize-1)] != nil
			v.mu.Unlock()
			if collecting != v.reqs.maxIntake || v.reqs.intakeA.Load() != int64(collecting) {
				t.Errorf("intake %d (gauge %d), want every copy collecting: %d", collecting, v.reqs.intakeA.Load(), v.reqs.maxIntake)
			}
			if waiting != reqTableSize/2 || eldest || !newest {
				t.Errorf("%d share-only records (eldest kept %v, newest kept %v), want the newest %d",
					waiting, eldest, newest, reqTableSize/2)
			}
			// The agreed request still mints and sends its share, and the
			// minted reply still serves a retransmission.
			v.handleLocalResult("c:1", []byte("ok"))
			if m := await(t, fx.peer, KindReplyShare); m.ReplyShare.ReqID != "c:1" {
				t.Errorf("share for %s, want c:1", m.ReplyShare.ReqID)
			}
			v.handleExternalRequest(drv, signedRequest(t, fx.stores, 0, "c:2", []byte("p"), 1))
			if m := await(t, fx.peer, KindReplyShare); m.ReplyShare.ReqID != "c:2" {
				t.Errorf("share for %s, want c:2", m.ReplyShare.ReqID)
			}
		}},
		{"epoch flip clears shares, re-arms votes, keeps replies", func(t *testing.T, fx *fixture) {
			v := fx.v
			drv := auth.DriverID("c", 0)
			// c:1 collects f_c+1 copies and is proposed.
			v.handleExternalRequest(drv, signedRequest(t, fx.stores, 0, "c:1", []byte("p"), 0))
			v.handleExternalRequest(auth.DriverID("c", 1), signedRequest(t, fx.stores, 1, "c:1", []byte("p"), 0))
			// c:2 is executed here, and its bundle assembled.
			deliver(v, 1, "c:2", 0)
			v.handleReplyShare(auth.VoterID("t", 1), share("c:2", 1, "ok"))
			v.handleReplyShare(auth.VoterID("t", 2), share("c:2", 2, "ok"))
			v.handleLocalResult("c:2", []byte("ok"))
			await(t, fx.driver, KindReplyBundle)
			// c:3 has only a share.
			v.handleReplyShare(auth.VoterID("t", 1), share("c:3", 1, "ok"))

			v.mu.Lock()
			voted, served := v.reqs.recs["c:1"], v.reqs.recs["c:2"]
			if !voted.proposed || !served.sent {
				v.mu.Unlock()
				t.Fatalf("before the flip: c:1 proposed %v, c:2 sent %v", voted.proposed, served.sent)
			}
			v.mu.Unlock()
			v.adoptEpoch(1)
			v.mu.Lock()
			for id, r := range v.reqs.recs {
				if r.slots != nil || r.sent || r.fetched {
					t.Errorf("%s keeps share state across the flip", id)
				}
			}
			if !voted.collecting || voted.proposed || voted.count(voted.drivers[0].digest) != 2 {
				t.Errorf("c:1 after the flip: collecting %v, proposed %v", voted.collecting, voted.proposed)
			}
			if !served.minted {
				t.Error("c:2 lost its minted reply")
			}
			if v.reqs.recs["c:3"] != nil || v.reqs.waiting.n != 0 {
				t.Error("a share-only record outlived its shares")
			}
			v.mu.Unlock()

			// A retransmission naming voter 1 as responder is served from
			// the record, re-minted under the new epoch.
			v.handleExternalRequest(drv, signedRequest(t, fx.stores, 0, "c:2", []byte("p"), 1))
			m := await(t, fx.peer, KindReplyShare)
			if m.Epoch != 1 || m.ReplyShare.Digest != ReplyDigest("c:2", []byte("ok")) || m.ReplyShare.Share.Tentative {
				t.Errorf("retransmission served epoch %d, tentative %v", m.Epoch, m.ReplyShare.Share.Tentative)
			}
			v.mu.Lock()
			if served.reply.epoch != 1 {
				t.Errorf("re-minted share kept epoch %d", served.reply.epoch)
			}
			v.mu.Unlock()
		}},
	} {
		t.Run(row.name, func(t *testing.T) { row.run(t, setup(t)) })
	}
}
