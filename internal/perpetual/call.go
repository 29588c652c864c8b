package perpetual

import (
	"crypto/sha256"
	"time"

	"perpetualws/internal/auth"
)

// call is one request this driver issued and awaits: an ordinary call, a
// shard fan-out leg, or a fast-path read. How it settles is decided by
// step alone; the executor (Driver.run) owns its due times and performs
// what step asks for.
type call struct {
	id        string
	target    string
	payload   []byte
	responder int
	attempt   int
	timeout   time.Duration
	// expiry is the absolute unix-milli deadline stamped into the
	// request envelope (0 = none): replicas drop the request at every
	// pre-agreement stage once it passes, and retransmission stops.
	expiry uint64
	// fast marks a reply fast-path call (see Driver.fastPath): no
	// caller-side agreement ever orders its outcome.
	fast     bool
	blocking bool // Request.Blocking, copied onto the settled Reply
	// silent marks a call its caller gave up on (ctx cancel, failed
	// fan-out): it still settles, but its outcome never surfaces.
	silent bool
	// sink is the outcome's one consumer, chosen at issue: the channel a
	// waiting Do receives on, or nil for the agreed-order event queue.
	sink chan Reply
	// busy maps each distinct target voter that refused the request to
	// its retry-after hint; busyExpired counts expired-deadline refusals.
	busy        map[int]uint64
	busyExpired int
	// busyFanned records the one-shot whole-group retransmit of the first
	// below-quorum busy: first attempts are primary-routed, so without it
	// only the primary could refuse and no busy quorum would ever form.
	busyFanned bool
	counted    bool // holds an in-flight window slot (Driver.maxOutstanding)
	// read is a fast-path read's state while read.need > 0 (see
	// Driver.issueRead); the fallback to agreement zeroes it, turning the
	// call into an ordinary one in place.
	read readState
	// deadline and retryAt are the due times the executor sets (zero =
	// none): the caller's timeout, and the next retransmission or, while
	// a read, its fast window. slot is the call's index in the due heap.
	deadline, retryAt time.Time
	slot              int
	acts              [2]callAction // backs step's result, so steps allocate none
}

// readState is the fast-path part of a read call: which replicas of the
// target group it asked and what each answered.
type readState struct {
	need   int    // f_t+1: matching endorsements certify, busys shed
	minSeq uint64 // the session's lease toward the target (Driver.readFloor)
	// widened marks every replica of the group asked: the read widened
	// past its first f_t+1, or the group has no others.
	widened    bool
	replicas   []readReplica // indexed by target replica
	answers    int           // replicas heard from, incl. Behind declines and busys
	busy       int           // busy-read refusals among them
	retryAfter uint64        // largest busy-read backoff hint
	// partners is the group's last certified endorser order at issue (see
	// askFirst); a certify reuses its array for the new order.
	partners []int
}

// readReplica is one target replica's part in a fast-path read.
type readReplica struct {
	asked bool
	rank  int // answer order, from 1; 0 = not heard from
	// endorsed marks a current endorsement of digest: not a Behind
	// decline, stamped at or above the read's lease.
	endorsed bool
	digest   [sha256.Size]byte
	seq      uint64
	// bound marks payload as hashing to digest; normally only the
	// responder attaches one.
	bound   bool
	payload []byte
}

// reading reports whether c is still a fast-path read.
func (c *call) reading() bool { return c.read.need > 0 }

// due is c's earliest due time, its deadline or its retryAt, whichever
// is set and sooner; zero when neither is.
func (c *call) due() time.Time {
	if c.retryAt.IsZero() || (!c.deadline.IsZero() && c.deadline.Before(c.retryAt)) {
		return c.deadline
	}
	return c.retryAt
}

// callEventKind discriminates what happened to a call.
type callEventKind uint8

const (
	evBundle     callEventKind = iota + 1 // a verified reply bundle from a target voter
	evAgreed                              // the caller group's agreed reply or abort
	evParked                              // outcomes that arrived before the call was issued
	evBusy                                // one target voter refused the request under overload
	evRetry                               // the next retransmission came due
	evDeadline                            // the caller's deadline passed
	evCancel                              // the caller gave up on the call
	evReadAnswer                          // one target replica's speculative read answer
	evBusyRead                            // one target replica refused a read under overload
	evWindow                              // a read's fast window expired
)

// callEvent is one event fed to step, with the inputs step may not
// fetch itself: the group sizes, the clock's verdict on the call's
// expiry, the retransmission jitter, and whether a read answer's payload
// hashes to its digest. now is when the executor's shell took the
// event; step never reads it.
type callEvent struct {
	kind   callEventKind
	now    time.Time
	bundle *ReplyBundle // evBundle; evParked's parked bundle, if any
	// reply is evAgreed's outcome, or evParked's when agreed is set.
	reply  Reply
	agreed bool
	// evBusy, evBusyRead, evReadAnswer: the sending voter's group and
	// index; evBusy, evBusyRead: its retry-after hint; evBusy: whether it
	// refused because the deadline had passed.
	from           string
	replica        int
	hint           uint64
	refusedExpired bool
	// evReadAnswer: a Behind decline, or an endorsement of digest at seq,
	// with payload when bound (it hashes to digest).
	behind  bool
	seq     uint64
	digest  [sha256.Size]byte
	bound   bool
	payload []byte

	callerN  int           // this service's replica count
	interval time.Duration // the driver's initial retransmission interval
	targetN  int           // evBusy, evRetry: the target group's size
	targetF  int           // evBusy: the target group's f
	expired  bool          // evBusy, evRetry: the call's expiry stamp has passed
	jitter   int64         // evBusy, evRetry: a uniform non-negative random draw
}

// callActionKind discriminates what step asks the executor to do.
type callActionKind uint8

const (
	actSettle   callActionKind = iota + 1 // end the call with reply
	actForward                            // forward bundle to this group's primary voter
	actResend                             // resend to the whole target group (attempt, responder)
	actAbort                              // propose the agreed abort
	actArmRetry                           // set the next retransmission due `after` from now
	actCertify                            // end a read with reply; seq and replicas update the session
	actShed                               // end a read as shed by its target group
	actWiden                              // ask replicas too and re-arm the read's window
	actFallBack                           // send the read, now an ordinary call, through agreement
)

// callAction is one thing step asks the executor to do.
type callAction struct {
	kind      callActionKind
	reply     Reply
	bundle    *ReplyBundle
	attempt   int
	responder int
	after     time.Duration
	// seq raises the session's lease toward the target: actCertify's
	// stamp, or the position of actSettle's bundle. replicas is
	// actCertify's endorsers in answer order, or actWiden's newly asked
	// replicas.
	seq      uint64
	replicas []int
}

// step is the whole settle policy of an agreement-path call: it applies
// one event to c and returns the actions that follow, and it touches no
// lock, timer, clock, randomness or network. One row per rule:
//
//   - evBundle: a bundle from another target is ignored; a fast call
//     settles with its payload, raising the lease to its position; any
//     other call forwards it for agreement (stage 7).
//   - evAgreed: dropped on a fast call — no correct replica proposes an
//     outcome for one, so an agreed one (a faulty voter's abort) must
//     not race the certified reply; it settles any other call.
//   - evParked: a parked bundle settles a fast call and a parked agreed
//     outcome any other call; the other kind is dropped, and the call
//     goes out as usual.
//   - evBusy: ignored from another target or from outside the group.
//     Below the f_t+1 quorum of distinct refusers the first refusal fans
//     the request out to the whole group once. At the quorum an
//     unreplicated caller (N = 1) settles the call as overloaded with
//     the largest hint. Each replica of a replicated caller sees its
//     own quorum at its own time, so it never settles locally: it
//     retries a fast call after the hint (or the retransmission
//     interval when the hint is 0) on a fresh quorum, and proposes the
//     abort of any other.
//   - evRetry: a no-op once the expiry stamp has passed; otherwise the
//     request is resent to the whole group with the responder moved on
//     by one voter, so attempt k asks (first + k) mod n and never the
//     voter that just stayed silent; the retry backs off exponentially,
//     capped at maxRetransmitBackoff, with ±20% jitter.
//   - evDeadline: a fast call settles as aborted; any other proposes the
//     abort.
//   - evCancel: as evDeadline, but the outcome never surfaces; a second
//     cancel does nothing.
//
// A read (see stepRead) takes only evReadAnswer, evBusyRead and evWindow
// besides evDeadline and evCancel, which settle it as they do any fast
// call; every other event is dropped until it falls back.
//
// The actions are settle(reply), forward-bundle-to-primary,
// resend-to-group(attempt, responder), propose-abort, arm-retry(after),
// and for reads certify(reply, seq, endorsers), shed(reply),
// widen(replicas) and fall-back(responder).
func step(c *call, ev callEvent) []callAction {
	acts := c.acts[:0]
	if c.reading() && ev.kind != evDeadline && ev.kind != evCancel {
		return c.stepRead(acts, ev)
	}
	switch ev.kind {
	case evBundle:
		switch {
		case ev.bundle.Target != c.target:
			return nil
		case c.fast:
			return append(acts, callAction{kind: actSettle, reply: Reply{ReqID: c.id, Payload: ev.bundle.Payload}, seq: ev.bundle.Pos})
		}
		return append(acts, callAction{kind: actForward, bundle: ev.bundle})
	case evAgreed:
		if c.fast {
			return nil
		}
		return append(acts, callAction{kind: actSettle, reply: ev.reply})
	case evParked:
		switch {
		case c.fast && ev.bundle != nil && ev.bundle.Target == c.target:
			return append(acts, callAction{kind: actSettle, reply: Reply{ReqID: c.id, Payload: ev.bundle.Payload}, seq: ev.bundle.Pos})
		case !c.fast && ev.agreed:
			return append(acts, callAction{kind: actSettle, reply: ev.reply})
		}
		return nil
	case evBusy:
		if ev.from != c.target || ev.replica >= ev.targetN {
			return nil
		}
		if c.busy == nil {
			c.busy = make(map[int]uint64)
		}
		c.busy[ev.replica] = ev.hint
		if ev.refusedExpired {
			c.busyExpired++
		}
		if len(c.busy) < ev.targetF+1 {
			if c.busyFanned {
				return nil
			}
			c.busyFanned = true
			return c.retransmit(acts, ev)
		}
		var hint uint64
		for _, h := range c.busy {
			hint = max(hint, h)
		}
		switch {
		case ev.callerN > 1 && c.fast:
			c.busy, c.busyExpired = nil, 0
			wait := time.Duration(hint) * time.Millisecond
			if wait <= 0 {
				wait = ev.interval
			}
			return append(acts, callAction{kind: actArmRetry, after: wait})
		case ev.callerN > 1:
			return append(acts, callAction{kind: actAbort})
		}
		return append(acts, callAction{kind: actSettle, reply: Reply{
			ReqID: c.id, Aborted: true,
			Overloaded: true, Expired: c.busyExpired > 0, RetryAfterMillis: hint,
		}})
	case evRetry:
		return c.retransmit(acts, ev)
	case evDeadline, evCancel:
		if ev.kind == evCancel {
			if c.silent {
				return nil
			}
			c.silent = true
		}
		if c.fast {
			return append(acts, callAction{kind: actSettle, reply: Reply{ReqID: c.id, Aborted: true}})
		}
		return append(acts, callAction{kind: actAbort})
	}
	return nil
}

// retransmit appends a resend to the whole group, with the responder
// moved on to the next voter, and the backed-off re-arm of the next
// retransmission — unless the expiry stamp has passed, when nothing
// downstream would serve the request and the deadline settles it.
func (c *call) retransmit(acts []callAction, ev callEvent) []callAction {
	if ev.expired {
		return nil
	}
	c.attempt++
	c.responder = (c.responder + 1) % ev.targetN
	backoff := min(ev.interval<<uint(min(c.attempt, 6)), maxRetransmitBackoff)
	// ±20% jitter decorrelates retransmission fan-outs across drivers:
	// without it, every caller that issued during the same outage
	// retransmits to the whole group on the same beat forever.
	if j := int64(backoff) / 5; j > 0 {
		backoff += time.Duration(ev.jitter%(2*j+1) - j)
	}
	return append(acts,
		callAction{kind: actResend, attempt: c.attempt, responder: c.responder},
		callAction{kind: actArmRetry, after: backoff})
}

// askFirst marks the f_t+1 replicas a read asks first and returns their
// voter ids: the responder, then as its f partners the endorsers of this
// driver's last certified read of the group, in the order they
// answered, topped up with responder+1, responder+2, … Which replicas
// partner never matters for safety — certification still takes f_t+1
// matching endorsements — only for speed: a partner that just answered a
// read is unlikely to be the silent one, so a crashed replica stops
// costing a widening window after its first.
func (c *call) askFirst() []auth.NodeID {
	r := &c.read
	n := len(r.replicas)
	ids := make([]auth.NodeID, 0, r.need)
	ask := func(i int) {
		if i < n && !r.replicas[i].asked && len(ids) < r.need {
			r.replicas[i].asked = true
			ids = append(ids, auth.VoterID(c.target, i))
		}
	}
	ask(c.responder)
	for _, i := range r.partners {
		ask(i)
	}
	for k := 1; k < n; k++ {
		ask((c.responder + k) % n)
	}
	r.widened = len(ids) == n
	return ids
}

// readRequest builds the read's wire request.
func (c *call) readRequest(caller string) *ReadRequest {
	return &ReadRequest{
		ReqID:     c.id,
		Caller:    caller,
		Target:    c.target,
		Responder: c.responder,
		MinSeq:    c.read.minSeq,
		Payload:   c.payload,
	}
}

// stepRead is step for a fast-path read, one row per rule:
//
//   - evReadAnswer, evBusyRead: counted once per replica of the target
//     group, asked or not; a Behind decline and an endorsement below
//     the lease never endorse, and a busy counts toward the shed quorum.
//     Then f_t+1 busys shed the read with the largest hint, and a bound
//     payload with f_t+1 matching endorsements certifies it. Nothing is
//     decided while the replicas asked but not heard from could still
//     complete a certificate or a busy quorum. Otherwise the read widens,
//     unless it already asked the whole group, or the responder answered
//     with no payload and no busy needs company — only the responder
//     attaches the payload, so then no endorsement from the rest of the
//     group could complete it — when it falls back.
//   - evWindow: if the responder answered, the silence is a partner's
//     and the first window widens; otherwise — a silent responder, whose
//     payload no other replica sends, or the widened window — the read
//     falls back.
//
// Widening asks every replica not asked yet, once. Falling back turns c
// into a fast call in place — reads take the fast path only from an
// unreplicated caller — keeping its id, sink, window slot, expiry and
// deadline, with the first answerer as responder if the responder
// stayed silent.
func (c *call) stepRead(acts []callAction, ev callEvent) []callAction {
	r := &c.read
	switch ev.kind {
	case evReadAnswer, evBusyRead:
		if ev.from != c.target || ev.replica < 0 || ev.replica >= len(r.replicas) || r.replicas[ev.replica].rank != 0 {
			return nil
		}
		s := &r.replicas[ev.replica]
		r.answers++
		s.rank = r.answers
		switch {
		case ev.kind == evBusyRead:
			r.busy++
			r.retryAfter = max(r.retryAfter, ev.hint)
		case !ev.behind:
			s.digest, s.seq, s.endorsed = ev.digest, ev.seq, ev.seq >= r.minSeq
			s.payload, s.bound = ev.payload, ev.bound
		}
		return c.decideRead(acts)
	case evWindow:
		if !r.widened && r.replicas[c.responder].rank != 0 {
			return c.widen(acts)
		}
		return c.fallBack(acts)
	}
	return nil
}

// decideRead is what a read's answers so far call for (see stepRead).
func (c *call) decideRead(acts []callAction) []callAction {
	r := &c.read
	if r.busy >= r.need {
		return append(acts, callAction{kind: actShed, reply: Reply{
			ReqID: c.id, Aborted: true, Overloaded: true, RetryAfterMillis: r.retryAfter,
		}})
	}
	pending, best := 0, 0
	for i := range r.replicas {
		s := &r.replicas[i]
		if s.asked && s.rank == 0 {
			pending++
		}
		if s.bound && r.endorsements(s.digest) >= r.need {
			return c.certify(acts, s)
		}
		if s.endorsed {
			best = max(best, r.endorsements(s.digest))
		}
	}
	// The most matching endorsements a digest with an obtainable payload
	// could still gather among the replicas asked.
	resp := &r.replicas[c.responder]
	possible := 0
	switch {
	case resp.rank == 0:
		possible = best + pending
	case resp.bound:
		possible = r.endorsements(resp.digest) + pending
	}
	if possible >= r.need || r.busy+pending >= r.need {
		return nil
	}
	if r.widened || (resp.rank != 0 && !resp.bound && r.busy == 0) {
		return c.fallBack(acts)
	}
	return c.widen(acts)
}

// endorsements counts the current endorsements of digest.
func (r *readState) endorsements(digest [sha256.Size]byte) int {
	n := 0
	for i := range r.replicas {
		if r.replicas[i].endorsed && r.replicas[i].digest == digest {
			n++
		}
	}
	return n
}

// certify settles the read with cert's bound payload. The new floor is
// the *minimum* sequence over the matching endorsers: at least one of
// them is correct, so a faulty endorser inflating its stamp cannot push
// the floor past state a correct replica actually reached. The
// endorsers, in answer order, partner the group's next read.
func (c *call) certify(acts []callAction, cert *readReplica) []callAction {
	r := &c.read
	seq := ^uint64(0)
	partners := r.partners[:0]
	for rank := 1; rank <= r.answers; rank++ {
		for i := range r.replicas {
			if e := &r.replicas[i]; e.rank == rank && e.endorsed && e.digest == cert.digest {
				partners = append(partners, i)
				seq = min(seq, e.seq)
			}
		}
	}
	return append(acts, callAction{kind: actCertify, reply: Reply{ReqID: c.id, Payload: cert.payload}, seq: seq, replicas: partners})
}

// widen asks every replica of the group not asked yet.
func (c *call) widen(acts []callAction) []callAction {
	r := &c.read
	var ask []int
	for i := range r.replicas {
		if s := &r.replicas[i]; !s.asked {
			s.asked = true
			ask = append(ask, i)
		}
	}
	r.widened = true
	return append(acts, callAction{kind: actWiden, replicas: ask})
}

// fallBack turns the read into a fast call bound for agreement. A
// silent responder would leave the agreed reply unbundled until a
// retransmission rotates the role, so the replica that answered the read
// first takes it instead.
func (c *call) fallBack(acts []callAction) []callAction {
	r := &c.read
	if r.replicas[c.responder].rank == 0 {
		for i := range r.replicas {
			if r.replicas[i].rank == 1 {
				c.responder = i
			}
		}
	}
	c.read, c.fast = readState{}, true
	return append(acts, callAction{kind: actFallBack, responder: c.responder})
}
