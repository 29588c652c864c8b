package perpetual

import (
	"reflect"
	"testing"

	"perpetualws/internal/auth"
	"perpetualws/internal/clbft"
)

// TestVoterStep drives the callee's step directly, one row per decision,
// on a bare table: no deployment, transport, timer or goroutine is
// involved. Each row sets the record up with pre, feeds evs in order and
// checks the actions every one of them returns.
func TestVoterStep(t *testing.T) {
	const id = "c:7"
	// This voter is 0 of t (N = 4, f = 1, quorum 3); the calling group c
	// has N = 4, f = 1 unless an event says otherwise. Every copy names
	// voter 1 as responder.
	copyOf := func(reqID string, from int, payload string, now, expiry uint64) reqEvent {
		req := &RequestMsg{ReqID: reqID, Caller: "c", Target: "t", Responder: 1, Payload: []byte(payload), Expiry: expiry}
		return reqEvent{kind: inCopy, now: now, req: req, digest: req.Digest(), from: from, callerN: 4, callerF: 1}
	}
	cp := func(from int, payload string) reqEvent { return copyOf(id, from, payload, 100, 0) }
	with := func(ev reqEvent, set func(*reqEvent)) reqEvent { set(&ev); return ev }
	// proposeStamped is the proposal of payload whose completing copy carries
	// expiry, endorsed by drivers.
	proposeStamped := func(payload string, expiry uint64, drivers ...int) []reqAction {
		shares := make([]Share, len(drivers))
		for i, d := range drivers {
			shares[i] = Share{Replica: d}
		}
		return []reqAction{{kind: doPropose, shares: shares,
			req: &RequestMsg{ReqID: id, Caller: "c", Target: "t", Responder: 1, Payload: []byte(payload), Expiry: expiry}}}
	}
	propose := func(payload string, drivers ...int) []reqAction { return proposeStamped(payload, 0, drivers...) }
	busyFor := func(reqID string, driver int, expired bool) reqAction {
		return reqAction{kind: doBusy, id: reqID, to: auth.DriverID("c", driver), expired: expired}
	}
	busy := func(driver int, expired bool) []reqAction { return []reqAction{busyFor(id, driver, expired)} }

	// The request is agreed at sequence 5, as the second operation of its
	// batch, with voter 2 as responder.
	pos := clbft.Position(5, 1)
	op := &Op{Kind: OpRequest, ReqID: id, Caller: "c", Responder: 2, Payload: []byte("p")}
	agreed := reqEvent{kind: inAgreed, op: op, pos: pos}
	execute := []reqAction{{kind: doExecute, op: op, pos: pos}}

	reply := func(payload string, tentative bool, epoch uint64) replyRecord {
		return replyRecord{digest: ReplyDigest(id, []byte(payload)), payload: []byte(payload),
			share: Share{Replica: 0, Tentative: tentative}, epoch: epoch}
	}
	tentOK, stableOK := reply("ok", true, 0), reply("ok", false, 0)
	executed := func(now uint64, rec replyRecord) reqEvent {
		return reqEvent{kind: inExecuted, now: now, id: id, reply: rec}
	}
	reminted := func(now uint64, rec replyRecord) reqEvent {
		return reqEvent{kind: inExecuted, now: now, id: id, reply: rec, remint: true}
	}
	shareTo := func(voter int, rec replyRecord, withPayload bool) []reqAction {
		return []reqAction{{kind: doShare, id: id, caller: "c", reply: rec, voter: voter, withPayload: withPayload}}
	}
	remint := func(rec replyRecord) []reqAction {
		return []reqAction{{kind: doMint, id: id, caller: "c", reply: rec, pos: pos}}
	}

	// share is voter from's share of payload, which carries the payload
	// when bound.
	share := func(from int, payload string, tentative, bound bool) reqEvent {
		rs := ReplyShare{ReqID: id, Caller: "c", Digest: ReplyDigest(id, []byte(payload)),
			Share: Share{Replica: from, Tentative: tentative}}
		if bound {
			rs.Payload = []byte(payload)
		}
		return reqEvent{kind: inShare, share: rs, from: from, bound: bound}
	}
	tent := func(i int) Share { return Share{Replica: i, Tentative: true} }
	stable := func(i int) Share { return Share{Replica: i} }
	bundle := func(payload string, shares ...Share) []reqAction {
		return []reqAction{{kind: doBundle, id: id, caller: "c", payload: []byte(payload), shares: shares, pos: pos}}
	}
	fetch := func(voters ...int) []reqAction {
		var acts []reqAction
		for _, v := range voters {
			acts = append(acts, reqAction{kind: doFetch, id: id, voter: v, digest: ReplyDigest(id, []byte("ok"))})
		}
		return acts
	}
	fetchEv := func(from int, payload string) reqEvent {
		return reqEvent{kind: inFetch, id: id, from: from, digest: ReplyDigest(id, []byte(payload))}
	}

	rows := []struct {
		name   string
		intake int // the intake bound, if not the default
		pre    []reqEvent
		evs    []reqEvent
		want   [][]reqAction
		check  func(tb *reqTable, r *inReq) bool
	}{
		// Copies.
		{
			name: "first copy opens a collecting record sized to the caller group",
			evs:  []reqEvent{cp(0, "p")},
			want: [][]reqAction{nil},
			check: func(tb *reqTable, r *inReq) bool {
				return r.collecting && len(r.drivers) == 4 && tb.collecting.n == 1 && tb.intakeA.Load() == 1
			},
		},
		{
			name:  "f_c+1 matching copies propose once, with their drivers' shares",
			evs:   []reqEvent{cp(0, "p"), cp(2, "p"), cp(3, "p")},
			want:  [][]reqAction{nil, propose("p", 0, 2), nil},
			check: func(_ *reqTable, r *inReq) bool { return r.collecting && r.proposed },
		},
		{
			name:  "a duplicate copy counts once",
			evs:   []reqEvent{cp(0, "p"), cp(0, "p")},
			want:  [][]reqAction{nil, nil},
			check: func(_ *reqTable, r *inReq) bool { return r.count(r.drivers[0].digest) == 1 && !r.proposed },
		},
		{
			name: "pre-admission: a copy past its own stamp is refused as expired and opens nothing",
			evs:  []reqEvent{copyOf(id, 0, "p", 200, 150)},
			want: [][]reqAction{busy(0, true)},
			check: func(tb *reqTable, r *inReq) bool {
				return r == nil && tb.expiredDrops.Load() == 1
			},
		},
		{
			name:  "the proposal stamps the record with the matching copies' latest deadline",
			evs:   []reqEvent{copyOf(id, 0, "p", 100, 150), copyOf(id, 1, "p", 100, 400)},
			want:  [][]reqAction{nil, proposeStamped("p", 400, 0, 1)},
			check: func(_ *reqTable, r *inReq) bool { return r.proposed && r.expiry == 400 },
		},
		{
			name: "proposer-queue gate: a full backlog defers the proposal to a later copy",
			evs: []reqEvent{cp(0, "p"), with(cp(1, "p"), func(ev *reqEvent) { ev.backlogFull = true }),
				cp(2, "p")},
			want:  [][]reqAction{nil, busy(1, false), propose("p", 0, 1, 2)},
			check: func(tb *reqTable, r *inReq) bool { return r.proposed && tb.shedProposer.Load() == 1 },
		},
		{
			name:   "intake bound: the eldest unproposed record is evicted and its drivers busied",
			intake: 2,
			pre: []reqEvent{copyOf("c:1", 0, "a", 100, 0), copyOf("c:1", 2, "b", 100, 0),
				copyOf("c:2", 0, "p", 100, 0), copyOf("c:2", 1, "p", 100, 0)},
			evs:  []reqEvent{cp(0, "p")},
			want: [][]reqAction{{busyFor("c:1", 0, false), busyFor("c:1", 2, false)}},
			check: func(tb *reqTable, r *inReq) bool {
				return tb.recs["c:1"] == nil && tb.recs["c:2"] != nil && r.collecting &&
					tb.collecting.n == 2 && tb.shedIntake.Load() == 1
			},
		},
		{
			name:   "intake bound: a copy is refused when every collecting record is proposed",
			intake: 1,
			pre:    []reqEvent{copyOf("c:2", 0, "p", 100, 0), copyOf("c:2", 1, "p", 100, 0)},
			evs:    []reqEvent{cp(0, "p")},
			want:   [][]reqAction{busy(0, false)},
			check: func(tb *reqTable, r *inReq) bool {
				return r == nil && tb.collecting.n == 1 && tb.shedIntake.Load() == 1
			},
		},
		{
			name:   "intake bound: an evicted record that holds share slots is released to wait",
			intake: 1,
			pre:    []reqEvent{share(1, "ok", true, false), cp(0, "p")},
			evs:    []reqEvent{copyOf("c:8", 0, "q", 100, 0)},
			want:   [][]reqAction{busy(0, false)},
			check: func(tb *reqTable, r *inReq) bool {
				return r != nil && !r.collecting && r.drivers == nil && !r.proposed && r.on == &tb.waiting &&
					r.slots[1].have && tb.collecting.n == 1 && tb.recs["c:8"].collecting
			},
		},
		{
			name:  "a copy on a share-only record starts collecting and keeps the slots",
			pre:   []reqEvent{share(1, "ok", true, false)},
			evs:   []reqEvent{cp(0, "p")},
			want:  [][]reqAction{nil},
			check: func(tb *reqTable, r *inReq) bool { return r.collecting && r.slots[1].have && tb.waiting.n == 0 },
		},

		// Agreement.
		{
			name: "agreement ends the collection and hands the request to the executor",
			pre:  []reqEvent{cp(0, "p")},
			evs:  []reqEvent{agreed},
			want: [][]reqAction{execute},
			check: func(tb *reqTable, r *inReq) bool {
				return r.executing && !r.collecting && r.drivers == nil && r.responder == 2 && r.pos == pos &&
					tb.collecting.n == 0 && tb.executing.n == 1
			},
		},
		{
			name:  "a copy on an executing record only moves the responder, and agreement keeps the move",
			pre:   []reqEvent{agreed},
			evs:   []reqEvent{cp(0, "p"), agreed},
			want:  [][]reqAction{nil, execute},
			check: func(_ *reqTable, r *inReq) bool { return r.executing && !r.collecting && r.responder == 1 },
		},
		{
			name:  "agreement on a share-only record keeps its slots",
			pre:   []reqEvent{share(1, "ok", true, false)},
			evs:   []reqEvent{agreed},
			want:  [][]reqAction{execute},
			check: func(tb *reqTable, r *inReq) bool { return r.executing && r.slots[1].have && tb.waiting.n == 0 },
		},

		// Execution.
		{
			name: "execution keeps the reply and sends its share to the responder",
			pre:  []reqEvent{agreed},
			evs:  []reqEvent{executed(100, tentOK)},
			want: [][]reqAction{shareTo(2, tentOK, false)},
			check: func(tb *reqTable, r *inReq) bool {
				return r.minted && !r.executing && r.reply.digest == tentOK.digest && tb.minted.n == 1 && tb.executing.n == 0
			},
		},
		{
			name: "pre-reply: execution past the record's stamp keeps the reply and sends nothing",
			pre:  []reqEvent{copyOf(id, 0, "p", 100, 150), copyOf(id, 1, "p", 100, 150), agreed},
			evs:  []reqEvent{executed(200, tentOK)},
			want: [][]reqAction{nil},
			check: func(tb *reqTable, r *inReq) bool {
				return r.minted && tb.replySuppress.Load() == 1
			},
		},
		{
			name:  "pre-reply: a record this voter never proposed keeps no stamp",
			pre:   []reqEvent{copyOf(id, 0, "p", 100, 150), agreed},
			evs:   []reqEvent{executed(200, tentOK)},
			want:  [][]reqAction{shareTo(2, tentOK, false)},
			check: func(tb *reqTable, r *inReq) bool { return r.minted && tb.replySuppress.Load() == 0 },
		},
		{
			name:  "a result for an id that is not executing is dropped",
			pre:   []reqEvent{cp(0, "p")},
			evs:   []reqEvent{executed(100, tentOK), reminted(100, stableOK)},
			want:  [][]reqAction{nil, nil},
			check: func(_ *reqTable, r *inReq) bool { return r.collecting && !r.minted },
		},
		{
			name:  "a result for an unknown id is dropped",
			evs:   []reqEvent{executed(100, tentOK)},
			want:  [][]reqAction{nil},
			check: func(tb *reqTable, r *inReq) bool { return r == nil && len(tb.recs) == 0 },
		},
		{
			name:  "a second result for a minted record is dropped",
			pre:   []reqEvent{agreed, executed(100, tentOK)},
			evs:   []reqEvent{executed(100, reply("other", false, 0))},
			want:  [][]reqAction{nil},
			check: func(_ *reqTable, r *inReq) bool { return r.reply.digest == tentOK.digest },
		},
		{
			name:  "a re-mint replaces the minted reply and is never suppressed",
			pre:   []reqEvent{copyOf(id, 0, "p", 100, 150), copyOf(id, 1, "p", 100, 150), agreed, executed(100, tentOK)},
			evs:   []reqEvent{reminted(300, stableOK)},
			want:  [][]reqAction{shareTo(2, stableOK, false)},
			check: func(_ *reqTable, r *inReq) bool { return reflect.DeepEqual(r.reply, stableOK) },
		},
		{
			name:  "a re-mint of a record with no reply is dropped",
			pre:   []reqEvent{agreed},
			evs:   []reqEvent{reminted(100, stableOK)},
			want:  [][]reqAction{nil},
			check: func(_ *reqTable, r *inReq) bool { return r.executing && !r.minted },
		},

		// Retransmissions of an executed request.
		{
			name:  "a retransmission is answered from the minted reply at its responder",
			pre:   []reqEvent{agreed, executed(100, stableOK)},
			evs:   []reqEvent{cp(3, "p")},
			want:  [][]reqAction{shareTo(1, stableOK, false)},
			check: func(_ *reqTable, r *inReq) bool { return r.responder == 1 && !r.collecting },
		},
		{
			name: "a tentative reply is re-minted once the commit horizon reaches it",
			pre:  []reqEvent{agreed, executed(100, tentOK)},
			evs: []reqEvent{with(cp(3, "p"), func(ev *reqEvent) { ev.committed = 4 }),
				with(cp(3, "p"), func(ev *reqEvent) { ev.committed = 5 })},
			want: [][]reqAction{shareTo(1, tentOK, false), remint(tentOK)},
		},
		{
			name: "a reply minted under another epoch is re-minted",
			pre:  []reqEvent{agreed, executed(100, stableOK)},
			evs:  []reqEvent{with(cp(3, "p"), func(ev *reqEvent) { ev.epoch = 1 })},
			want: [][]reqAction{remint(stableOK)},
		},

		// Reply shares.
		{
			name: "a share for an unknown id opens a share-only record",
			evs:  []reqEvent{share(1, "ok", true, false)},
			want: [][]reqAction{nil},
			check: func(tb *reqTable, r *inReq) bool {
				return r.on == &tb.waiting && len(r.slots) == 4 && !r.collecting && !r.executing
			},
		},
		{
			name: "a tentative quorum with this voter's payload sends the bundle once",
			pre:  []reqEvent{agreed},
			evs: []reqEvent{share(1, "ok", true, false), share(2, "ok", true, false), share(0, "ok", true, true),
				share(3, "ok", true, false)},
			want:  [][]reqAction{nil, nil, bundle("ok", tent(0), tent(1), tent(2)), nil},
			check: func(_ *reqTable, r *inReq) bool { return r.sent && r.executing },
		},
		{
			name: "f_t+1 stable shares certify, and the bundle waits for this voter's payload",
			pre:  []reqEvent{agreed},
			evs:  []reqEvent{share(1, "ok", false, false), share(2, "ok", false, false), share(0, "ok", true, true)},
			want: [][]reqAction{nil, nil, bundle("ok", tent(0), stable(1), stable(2))},
			check: func(tb *reqTable, r *inReq) bool {
				return r.sent && r.executing && tb.executing.n == 1 && tb.waiting.n == 0
			},
		},
		{
			name: "a certified reply waits for its position: an unagreed record never bundles, and keeps collecting",
			pre:  []reqEvent{cp(0, "p")},
			evs:  []reqEvent{share(1, "ok", false, true), share(2, "ok", false, false), share(3, "ok", false, false)},
			want: [][]reqAction{nil, nil, nil},
			check: func(tb *reqTable, r *inReq) bool {
				return !r.sent && r.collecting && tb.collecting.n == 1 && tb.waiting.n == 0
			},
		},
		{
			name:  "shares on a minted record still assemble the bundle",
			pre:   []reqEvent{agreed, executed(100, tentOK)},
			evs:   []reqEvent{share(0, "ok", true, true), share(1, "ok", true, false), share(2, "ok", true, false)},
			want:  [][]reqAction{nil, nil, bundle("ok", tent(0), tent(1), tent(2))},
			check: func(tb *reqTable, r *inReq) bool { return r.sent && r.minted && tb.minted.n == 1 },
		},
		{
			name: "a diverged own result fetches the winning payload once from its endorsers",
			pre:  []reqEvent{agreed},
			evs: []reqEvent{share(0, "bad", false, true), share(1, "ok", false, false), share(2, "ok", false, false),
				share(3, "ok", false, false), share(1, "ok", false, true)},
			want:  [][]reqAction{nil, nil, fetch(1, 2), nil, bundle("ok", stable(1), stable(2), stable(3))},
			check: func(_ *reqTable, r *inReq) bool { return r.fetched && r.sent },
		},

		// Payload fetches.
		{
			name: "a fetch is answered with the payload once the reply with its digest is minted",
			pre:  []reqEvent{agreed},
			evs:  []reqEvent{fetchEv(3, "ok"), executed(100, tentOK), fetchEv(3, "other"), fetchEv(3, "ok")},
			want: [][]reqAction{nil, shareTo(2, tentOK, false), nil, shareTo(3, tentOK, true)},
		},
		{
			name:  "a fetch for an unknown id opens nothing",
			evs:   []reqEvent{fetchEv(3, "ok")},
			want:  [][]reqAction{nil},
			check: func(tb *reqTable, r *inReq) bool { return len(tb.recs) == 0 },
		},

		// Caller containment: a Byzantine minority of the calling group
		// can neither get a payload the correct drivers did not send
		// proposed, nor get an agreed id executed twice, nor use its
		// deadline stamp to drop a correct request or suppress its reply.
		{
			name:  "equivocating caller driver: the proposal carries only the correct digest's payload and shares",
			evs:   []reqEvent{cp(3, "evil"), cp(0, "good"), cp(1, "good")},
			want:  [][]reqAction{nil, nil, propose("good", 0, 1)},
			check: func(_ *reqTable, r *inReq) bool { return r.proposed },
		},
		{
			name:  "equivocating caller driver: a changed copy replaces its vote instead of adding one",
			evs:   []reqEvent{cp(3, "good"), cp(3, "evil"), cp(0, "good"), cp(1, "good")},
			want:  [][]reqAction{nil, nil, nil, propose("good", 0, 1)},
			check: func(_ *reqTable, r *inReq) bool { return r.proposed },
		},
		{
			name: "faulty driver's early stamp: the correct copies carry none, and the request is proposed and answered",
			evs: []reqEvent{copyOf(id, 3, "p", 100, 150), copyOf(id, 0, "p", 200, 0), copyOf(id, 1, "p", 200, 0),
				agreed, executed(300, tentOK)},
			want: [][]reqAction{nil, propose("p", 0, 3), nil, execute, shareTo(2, tentOK, false)},
			check: func(tb *reqTable, r *inReq) bool {
				return r.minted && r.expiry == 0 && tb.expiredDrops.Load() == 0 && tb.replySuppress.Load() == 0
			},
		},
		{
			name: "faulty driver's early stamp: a correct copy's later stamp holds the reply",
			evs: []reqEvent{copyOf(id, 3, "p", 100, 150), copyOf(id, 0, "p", 200, 500),
				agreed, executed(300, tentOK)},
			want:  [][]reqAction{nil, proposeStamped("p", 500, 0, 3), execute, shareTo(2, tentOK, false)},
			check: func(tb *reqTable, r *inReq) bool { return r.expiry == 500 && tb.replySuppress.Load() == 0 },
		},
		{
			name: "faulty driver's early stamp on another digest never joins the quorum's deadline",
			evs: []reqEvent{copyOf(id, 3, "evil", 100, 150), copyOf(id, 0, "p", 100, 0), copyOf(id, 1, "p", 100, 0),
				agreed, executed(300, tentOK)},
			want:  [][]reqAction{nil, nil, propose("p", 0, 1), execute, shareTo(2, tentOK, false)},
			check: func(tb *reqTable, r *inReq) bool { return r.expiry == 0 && tb.replySuppress.Load() == 0 },
		},
		{
			name:  "a replayed id with a fresh payload on an executing record never proposes again",
			pre:   []reqEvent{agreed},
			evs:   []reqEvent{cp(0, "fresh"), cp(1, "fresh"), cp(2, "fresh")},
			want:  [][]reqAction{nil, nil, nil},
			check: func(_ *reqTable, r *inReq) bool { return r.executing && !r.collecting && !r.proposed },
		},
		{
			name:  "a replayed id with a fresh payload on a minted record is answered from the minted reply",
			pre:   []reqEvent{agreed, executed(100, stableOK)},
			evs:   []reqEvent{cp(0, "fresh"), cp(1, "fresh")},
			want:  [][]reqAction{shareTo(1, stableOK, false), shareTo(1, stableOK, false)},
			check: func(_ *reqTable, r *inReq) bool { return r.minted && !r.collecting && !r.proposed },
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var tb reqTable
			tb.init(0, ServiceInfo{Name: "t", N: 4})
			if row.intake > 0 {
				tb.maxIntake = row.intake
			}
			for _, ev := range row.pre {
				tb.step(nil, &ev)
			}
			for i, ev := range row.evs {
				got := tb.step(nil, &ev)
				if len(got) == 0 {
					got = nil
				}
				if !reflect.DeepEqual(got, row.want[i]) {
					t.Fatalf("event %d: got %+v, want %+v", i, got, row.want[i])
				}
			}
			if row.check != nil && !row.check(&tb, tb.recs[id]) {
				t.Fatalf("record after the events: %+v", tb.recs[id])
			}
		})
	}
}

// TestVoterLocalResultReadsTheRecord checks that an executor result is
// minted for the caller and sequence the agreed record holds, and that a
// result with no executing record advances no read horizon.
func TestVoterLocalResultReadsTheRecord(t *testing.T) {
	v, _, stores := newBareVoter(t)
	v.bftp.Store((&verdictFixture{t: t, v: v, stores: stores}).start(&clbft.Bootstrap{}))
	v.reqs.step(nil, &reqEvent{kind: inCopy, now: 100, req: &RequestMsg{ReqID: "c:4", Caller: "c", Target: "t"},
		from: 0, callerN: 4, callerF: 1})
	v.handleLocalResult("c:4", []byte("x")) // collecting, not executing
	v.handleLocalResult("c:9", []byte("x")) // unknown
	if v.execPos.Load() != 0 || v.reqs.recs["c:4"].minted {
		t.Fatalf("a result with no executing record moved the horizon to %#x or minted", v.execPos.Load())
	}

	pos := clbft.Position(3, 2)
	v.reqs.step(nil, &reqEvent{kind: inAgreed, pos: pos,
		op: &Op{Kind: OpRequest, ReqID: "c:2", Caller: "c", Responder: 0, Payload: []byte("p")}})
	v.handleLocalResult("c:2", []byte("ok"))
	r := v.reqs.recs["c:2"]
	if v.execPos.Load() != pos || !r.minted || !r.reply.share.Tentative {
		t.Fatalf("horizon %#x, minted %v tentative %v; want %#x, a tentative share",
			v.execPos.Load(), r.minted, r.reply.share.Tentative, pos)
	}
	// The share MACs the record's position, and no other.
	for _, p := range []uint64{pos, clbft.Position(3, 0)} {
		msg := replyAuthMsg("c:2", r.reply.digest, true, 0, p)
		err := r.reply.share.Auth.VerifyFor(stores[auth.DriverID("c", 0)], msg.Bytes())
		msg.Free()
		if (err == nil) != (p == pos) {
			t.Errorf("share minted at %#x: verifying at %#x gives %v", pos, p, err)
		}
	}
}

// TestVoterOnRollback covers both arms of the CLBFT rollback handler: a
// revoked ordinary delivery stays consumed and its record untouched; a
// revoked membership change is forgotten and re-buffered.
func TestVoterOnRollback(t *testing.T) {
	v, _, _ := newBareVoter(t)
	v.reqs.step(nil, &reqEvent{kind: inAgreed, pos: clbft.Position(3, 0),
		op: &Op{Kind: OpRequest, ReqID: "c:1", Caller: "c", Responder: 2, Payload: []byte("p")}})
	r := v.reqs.recs["c:1"]
	before := *r
	if v.onRollback(clbft.Delivery{Seq: 3, OpID: RequestOpID("c:1")}) {
		t.Error("a rolled-back request asked to be re-delivered")
	}
	if v.reqs.recs["c:1"] != r || !reflect.DeepEqual(*r, before) {
		t.Errorf("rollback changed the record: %+v, was %+v", *r, before)
	}

	v.pendingMC = &MembershipChange{Group: "t", Slot: 1, NewEpoch: 1}
	if !v.onRollback(clbft.Delivery{Seq: 4, OpID: MembershipOpID("t", 1)}) {
		t.Error("a rolled-back membership change was not re-buffered")
	}
	if v.pendingMC != nil {
		t.Error("a rolled-back membership change stayed pending")
	}
}

// TestVoterReadGate checks the one read gate on a bare voter: a read is
// served only once the horizon reaches the session's lease, the position
// of the last write the session saw complete. Each row agrees two writes
// of caller c, executes only the first, and asks for a read leased on
// the second, which must wait; once the second executes it is served.
//   - cross-session: c:10 and c:9 come from two sessions of one driver
//     and are agreed in reverse request order, so the executed c:10
//     carries the higher request number;
//   - same batch: c:10 and c:9 are operations 0 and 1 of one agreed
//     batch, so both carry its sequence.
func TestVoterReadGate(t *testing.T) {
	for _, row := range []struct {
		name      string
		ten, nine uint64 // the positions c:10 and c:9 are agreed at
	}{
		{"cross-session writes agreed in reverse request order", clbft.Position(3, 0), clbft.Position(4, 0)},
		{"the second operation of a batch", clbft.Position(3, 0), clbft.Position(3, 1)},
	} {
		t.Run(row.name, func(t *testing.T) {
			v, _, stores := newBareVoter(t)
			v.bftp.Store((&verdictFixture{t: t, v: v, stores: stores}).start(&clbft.Bootstrap{}))
			v.readExec = func(p []byte) ([]byte, error) { return p, nil }
			for _, w := range []struct {
				id  string
				pos uint64
			}{{"c:10", row.ten}, {"c:9", row.nine}} {
				v.reqs.step(nil, &reqEvent{kind: inAgreed, pos: w.pos,
					op: &Op{Kind: OpRequest, ReqID: w.id, Caller: "c", Payload: []byte(w.id)}})
			}
			v.handleLocalResult("c:10", []byte("ok"))
			rr := &ReadRequest{ReqID: "c:11", Caller: "c", Target: "t", MinSeq: row.nine}
			if !v.readBehind(rr) {
				t.Fatalf("horizon %#x served a read leased on c:9 at %#x before c:9 executed", v.execPos.Load(), row.nine)
			}
			v.handleLocalResult("c:9", []byte("ok"))
			if v.readBehind(rr) || v.execPos.Load() != row.nine {
				t.Fatalf("horizon %#x after c:9 executed at %#x: the read still waits", v.execPos.Load(), row.nine)
			}
		})
	}
}
