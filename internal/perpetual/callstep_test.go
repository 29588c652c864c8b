package perpetual

import (
	"reflect"
	"testing"
	"time"
)

// TestCallStep drives step directly, one row per settle rule: no
// deployment, transport, timer or goroutine is involved. Each row feeds
// its events in order and checks the actions every one of them returns.
func TestCallStep(t *testing.T) {
	const (
		id       = "c:7"
		interval = 100 * time.Millisecond
	)
	fast := func() *call { return &call{id: id, target: "t", fast: true} }
	agreed := func() *call { return &call{id: id, target: "t"} }
	expiring := func() *call { return &call{id: id, target: "t", fast: true, expiry: 1} }

	bundle := &ReplyBundle{ReqID: id, Target: "t", Payload: []byte("ok"), Pos: 23}
	foreign := &ReplyBundle{ReqID: id, Target: "u", Payload: []byte("ok")}
	reply := Reply{ReqID: id, Payload: []byte("ok")}

	// Inputs every event carries: this caller's replica count and the
	// target group's shape (n = 4, f = 1 unless a row says otherwise).
	in := func(callerN int, ev callEvent) callEvent {
		ev.callerN = callerN
		if ev.interval == 0 {
			ev.interval = interval
		}
		if ev.targetN == 0 {
			ev.targetN, ev.targetF = 4, 1
		}
		return ev
	}
	busy := func(callerN, replica int, hint uint64) callEvent {
		return in(callerN, callEvent{kind: evBusy, from: "t", replica: replica, hint: hint})
	}
	settle := func(r Reply) []callAction { return []callAction{{kind: actSettle, reply: r}} }
	// settled is the settle from bundle, which raises the session's lease
	// to the bundle's position.
	settled := []callAction{{kind: actSettle, reply: reply, seq: bundle.Pos}}
	abort := []callAction{{kind: actAbort}}
	// fanOut is what a first retransmission of a call whose responder
	// was voter 0 asks for: attempt 1, the next voter as responder, and
	// the re-arm after twice the interval (a jitter draw of j leaves it
	// unjittered).
	fanOut := []callAction{
		{kind: actResend, attempt: 1, responder: 1},
		{kind: actArmRetry, after: 2 * interval},
	}
	j := int64(2*interval) / 5

	// aRead is a fast-path read from an unreplicated caller to t: its
	// responder is replica 1, it asked replicas 1 and 2 first, and its
	// session floor is 5.
	aRead := func() *call {
		c := &call{id: id, target: "t", fast: true, responder: 1, expiry: 99,
			read: readState{need: 2, minSeq: 5, replicas: make([]readReplica, 4)}}
		c.read.replicas[1].asked, c.read.replicas[2].asked = true, true
		return c
	}
	dOK, dNo := ReplyDigest(id, []byte("ok")), ReplyDigest(id, []byte("no"))
	// answer is replica's endorsement of digest at seq; bound ones carry
	// the payload dOK digests.
	answer := func(replica int, digest [32]byte, seq uint64, bound bool) callEvent {
		ev := in(1, callEvent{kind: evReadAnswer, from: "t", replica: replica, digest: digest, seq: seq, bound: bound})
		if bound {
			ev.payload = []byte("ok")
		}
		return ev
	}
	behind := func(replica int) callEvent {
		return in(1, callEvent{kind: evReadAnswer, from: "t", replica: replica, behind: true})
	}
	busyRead := func(replica int, hint uint64) callEvent {
		return in(1, callEvent{kind: evBusyRead, from: "t", replica: replica, hint: hint})
	}
	window := in(1, callEvent{kind: evWindow})
	widen := []callAction{{kind: actWiden, replicas: []int{0, 3}}}
	fallBack := func(responder int) []callAction { return []callAction{{kind: actFallBack, responder: responder}} }
	fellBack := func(responder int) func(c *call) bool {
		return func(c *call) bool {
			return !c.reading() && c.fast && c.responder == responder && c.expiry == 99 && c.attempt == 0
		}
	}

	rows := []struct {
		name  string
		c     *call
		evs   []callEvent
		want  [][]callAction
		check func(c *call) bool
	}{
		// Bundles.
		{
			name: "bundle settles a fast call",
			c:    fast(),
			evs:  []callEvent{in(1, callEvent{kind: evBundle, bundle: bundle})},
			want: [][]callAction{settled},
		},
		{
			name: "bundle is forwarded on an agreed call",
			c:    agreed(),
			evs:  []callEvent{in(4, callEvent{kind: evBundle, bundle: bundle})},
			want: [][]callAction{{{kind: actForward, bundle: bundle}}},
		},
		{
			name: "bundle from another target is ignored",
			c:    fast(),
			evs:  []callEvent{in(1, callEvent{kind: evBundle, bundle: foreign})},
			want: [][]callAction{nil},
		},

		// Agreed outcomes.
		{
			name: "agreed outcome is dropped on a fast call",
			c:    fast(),
			evs:  []callEvent{in(4, callEvent{kind: evAgreed, reply: Reply{ReqID: id, Aborted: true}})},
			want: [][]callAction{nil},
		},
		{
			name: "agreed outcome settles an agreed call",
			c:    agreed(),
			evs:  []callEvent{in(4, callEvent{kind: evAgreed, reply: reply})},
			want: [][]callAction{settle(reply)},
		},

		// Outcomes parked before the issue.
		{
			name: "parked bundle settles a fast call",
			c:    fast(),
			evs:  []callEvent{in(1, callEvent{kind: evParked, bundle: bundle})},
			want: [][]callAction{settled},
		},
		{
			name: "parked agreed outcome settles an agreed call",
			c:    agreed(),
			evs:  []callEvent{in(4, callEvent{kind: evParked, bundle: bundle, reply: reply, agreed: true})},
			want: [][]callAction{settle(reply)},
		},
		{
			name: "parked agreed outcome is dropped on a fast call",
			c:    fast(),
			evs:  []callEvent{in(4, callEvent{kind: evParked, reply: reply, agreed: true})},
			want: [][]callAction{nil},
		},
		{
			name: "parked bundle is dropped on an agreed call",
			c:    agreed(),
			evs:  []callEvent{in(4, callEvent{kind: evParked, bundle: bundle})},
			want: [][]callAction{nil},
		},

		// Busy replies.
		{
			name: "first busy below quorum fans out once, a second does not",
			c:    agreed(),
			evs: []callEvent{
				in(4, callEvent{kind: evBusy, from: "t", replica: 1, hint: 5, targetN: 7, targetF: 2, jitter: j}),
				in(4, callEvent{kind: evBusy, from: "t", replica: 2, hint: 5, targetN: 7, targetF: 2, jitter: j}),
			},
			want: [][]callAction{fanOut, nil},
		},
		{
			name: "duplicate busy from one replica does not count",
			c:    fast(),
			evs: []callEvent{
				in(1, callEvent{kind: evBusy, from: "t", replica: 3, hint: 5, targetN: 4, targetF: 1, jitter: j}),
				busy(1, 3, 5),
			},
			want:  [][]callAction{fanOut, nil},
			check: func(c *call) bool { return len(c.busy) == 1 },
		},
		{
			name: "busy quorum settles locally with N = 1, largest hint and Expired",
			c:    fast(),
			evs: []callEvent{
				in(1, callEvent{kind: evBusy, from: "t", replica: 2, hint: 5, refusedExpired: true, targetN: 4, targetF: 1, expired: true}),
				busy(1, 3, 10),
			},
			want: [][]callAction{nil, settle(Reply{ReqID: id, Aborted: true, Overloaded: true, Expired: true, RetryAfterMillis: 10})},
		},
		{
			name:  "busy quorum on a fast call with N > 1 re-arms after the hint",
			c:     &call{id: id, target: "t", fast: true, busyFanned: true},
			evs:   []callEvent{busy(4, 2, 5), busy(4, 3, 40)},
			want:  [][]callAction{nil, {{kind: actArmRetry, after: 40 * time.Millisecond}}},
			check: func(c *call) bool { return c.busy == nil && c.busyExpired == 0 },
		},
		{
			name: "busy quorum with hint 0 re-arms after the retransmission interval",
			c:    &call{id: id, target: "t", fast: true, busyFanned: true},
			evs:  []callEvent{busy(4, 2, 0), busy(4, 3, 0)},
			want: [][]callAction{nil, {{kind: actArmRetry, after: interval}}},
		},
		{
			name: "busy quorum on an agreed call with N > 1 proposes the abort",
			c:    &call{id: id, target: "t", busyFanned: true},
			evs:  []callEvent{busy(4, 2, 5), busy(4, 3, 5)},
			want: [][]callAction{nil, abort},
		},
		{
			name: "busy from another target or outside the group is ignored",
			c:    fast(),
			evs: []callEvent{
				in(1, callEvent{kind: evBusy, from: "u", replica: 1}),
				in(1, callEvent{kind: evBusy, from: "t", replica: 4}),
			},
			want:  [][]callAction{nil, nil},
			check: func(c *call) bool { return len(c.busy) == 0 },
		},

		// Retry timer.
		{
			name: "retry after expiry is a no-op",
			c:    expiring(),
			evs:  []callEvent{in(1, callEvent{kind: evRetry, expired: true})},
			want: [][]callAction{nil},
		},
		{
			name:  "retry rotates the responder and backs off",
			c:     fast(),
			evs:   []callEvent{in(1, callEvent{kind: evRetry, jitter: j})},
			want:  [][]callAction{fanOut},
			check: func(c *call) bool { return c.attempt == 1 && c.responder == 1 },
		},
		{
			// Its responder is the voter fnv64a(id)+1 names, the one a
			// rotation keyed on the id and the attempt would pick again
			// on attempt 1; stepping from the responder moves on.
			name:  "retry never re-asks the responder that stayed silent",
			c:     &call{id: id, target: "t", fast: true, responder: int((fnv64a([]byte(id)) + 1) % 4)},
			evs:   []callEvent{in(1, callEvent{kind: evRetry, jitter: j})},
			want:  [][]callAction{{{kind: actResend, attempt: 1, responder: int((fnv64a([]byte(id)) + 2) % 4)}, {kind: actArmRetry, after: 2 * interval}}},
			check: func(c *call) bool { return c.responder != int((fnv64a([]byte(id))+1)%4) },
		},
		{
			name: "retry jitter stays within 20 percent",
			c:    &call{id: id, target: "t", attempt: 1},
			evs:  []callEvent{in(1, callEvent{kind: evRetry}), in(1, callEvent{kind: evRetry, jitter: 2 * int64(8*interval) / 5})},
			want: [][]callAction{
				{{kind: actResend, attempt: 2, responder: 1}, {kind: actArmRetry, after: 4*interval - 4*interval/5}},
				{{kind: actResend, attempt: 3, responder: 2}, {kind: actArmRetry, after: 8*interval + 8*interval/5}},
			},
		},
		{
			name: "retry backoff is capped at maxRetransmitBackoff",
			c:    &call{id: id, target: "t", attempt: 9},
			evs:  []callEvent{in(1, callEvent{kind: evRetry, interval: time.Second, jitter: int64(maxRetransmitBackoff) / 5})},
			want: [][]callAction{{
				{kind: actResend, attempt: 10, responder: 1},
				{kind: actArmRetry, after: maxRetransmitBackoff},
			}},
		},

		// Deadline.
		{
			name: "deadline settles a fast call locally",
			c:    fast(),
			evs:  []callEvent{in(1, callEvent{kind: evDeadline})},
			want: [][]callAction{settle(Reply{ReqID: id, Aborted: true})},
		},
		{
			name: "deadline on an agreed call proposes the abort",
			c:    agreed(),
			evs:  []callEvent{in(4, callEvent{kind: evDeadline})},
			want: [][]callAction{abort},
		},

		// Cancel.
		{
			name:  "cancel settles a fast call locally and silently",
			c:     fast(),
			evs:   []callEvent{in(4, callEvent{kind: evCancel})},
			want:  [][]callAction{settle(Reply{ReqID: id, Aborted: true})},
			check: func(c *call) bool { return c.silent },
		},
		{
			name: "cancel on an agreed call proposes an abort whose outcome never surfaces",
			c:    agreed(),
			evs: []callEvent{
				in(4, callEvent{kind: evCancel}),
				in(4, callEvent{kind: evCancel}),
				in(4, callEvent{kind: evAgreed, reply: Reply{ReqID: id, Aborted: true}}),
			},
			want:  [][]callAction{abort, nil, settle(Reply{ReqID: id, Aborted: true})},
			check: func(c *call) bool { return c.silent },
		},

		// Fast-path reads.
		{
			name: "read certifies on f_t+1 matching bound endorsements",
			c:    aRead(),
			evs:  []callEvent{answer(2, dOK, 6, false), answer(1, dOK, 7, true)},
			want: [][]callAction{nil, {{kind: actCertify, reply: reply, seq: 6, replicas: []int{2, 1}}}},
		},
		{
			name: "read never counts a Behind decline or an endorsement below MinSeq",
			c:    aRead(),
			evs:  []callEvent{answer(1, dOK, 7, true), behind(2), answer(3, dOK, 4, false), answer(0, dOK, 3, false)},
			want: [][]callAction{nil, widen, nil, fallBack(1)},
		},
		{
			name: "read sheds on f_t+1 busy reads with the largest hint",
			c:    aRead(),
			evs:  []callEvent{busyRead(1, 5), busyRead(2, 40)},
			want: [][]callAction{nil, {{kind: actShed, reply: Reply{ReqID: id, Aborted: true, Overloaded: true, RetryAfterMillis: 40}}}},
		},
		{
			name: "read awaits while the replicas pending could complete a certificate or a busy quorum",
			c:    aRead(),
			evs:  []callEvent{answer(2, dNo, 6, false), busyRead(0, 5)},
			want: [][]callAction{nil, nil},
		},
		{
			name: "read widens once when its responder answered",
			c:    aRead(),
			evs:  []callEvent{answer(2, dNo, 6, false), answer(1, dOK, 7, true), answer(0, dNo, 6, false), answer(3, dNo, 6, false)},
			want: [][]callAction{nil, widen, nil, fallBack(1)},
		},
		{
			name:  "read falls back on a silent responder at window expiry, to its first answerer, keeping its expiry",
			c:     aRead(),
			evs:   []callEvent{answer(2, dOK, 6, false), window, answer(1, dOK, 7, true), in(1, callEvent{kind: evBundle, bundle: bundle})},
			want:  [][]callAction{nil, fallBack(2), nil, settled},
			check: fellBack(2),
		},
		{
			name:  "read falls back on a responder that answered with no payload and no busy",
			c:     aRead(),
			evs:   []callEvent{answer(1, dOK, 7, false)},
			want:  [][]callAction{fallBack(1)},
			check: fellBack(1),
		},
		{
			name: "read deadline settles it as aborted",
			c:    aRead(),
			evs:  []callEvent{in(1, callEvent{kind: evDeadline})},
			want: [][]callAction{settle(Reply{ReqID: id, Aborted: true})},
		},
		{
			name:  "read cancel settles it silently, and a second cancel does nothing",
			c:     aRead(),
			evs:   []callEvent{in(1, callEvent{kind: evCancel}), in(1, callEvent{kind: evCancel})},
			want:  [][]callAction{settle(Reply{ReqID: id, Aborted: true}), nil},
			check: func(c *call) bool { return c.silent },
		},
		{
			name: "read ignores foreign, out-of-group and repeated answers, and agreement-path events",
			c:    aRead(),
			evs: []callEvent{
				in(1, callEvent{kind: evReadAnswer, from: "u", replica: 1, digest: dOK, seq: 7, bound: true}),
				answer(4, dOK, 7, true),
				answer(1, dOK, 7, true),
				answer(1, dOK, 7, true),
				in(1, callEvent{kind: evBundle, bundle: bundle}),
				busy(1, 2, 5),
				in(1, callEvent{kind: evRetry}),
			},
			want:  [][]callAction{nil, nil, nil, nil, nil, nil, nil},
			check: func(c *call) bool { return c.reading() && c.read.answers == 1 },
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for i, ev := range row.evs {
				got := step(row.c, ev)
				if len(got) == 0 {
					got = nil
				}
				if !reflect.DeepEqual(got, row.want[i]) {
					t.Fatalf("event %d: got %+v, want %+v", i, got, row.want[i])
				}
			}
			if row.check != nil && !row.check(row.c) {
				t.Fatalf("call state after the events: %+v", row.c)
			}
		})
	}
}
