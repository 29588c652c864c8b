package perpetual

import "time"

// call is one agreement-path request this driver issued and awaits: an
// ordinary call, a shard fan-out leg, or a 2PC or handoff leg. How it
// settles is decided by step alone; the executor (Driver.run) owns its
// timers and performs what step asks for.
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
	class  uint8 // transport stats class override (ClassTxn, ClassHandoff)
	// txn marks a 2PC or handoff leg (see txn.go, handoff.go).
	txn bool
	// fast marks a reply fast-path call (see Driver.fastPath): no
	// caller-side agreement ever orders its outcome.
	fast     bool
	blocking bool // Request.Blocking, copied onto the settled Reply
	// silent marks a call its caller gave up on (ctx cancel, failed
	// fan-out): it still settles, but its outcome never surfaces.
	silent bool
	// sink is the outcome's one consumer, chosen at issue: the channel a
	// waiting Do, txn leg or handoff leg receives on, or nil for the
	// agreed-order event queue.
	sink chan outcome
	// busy maps each distinct target voter that refused the request to
	// its retry-after hint; busyExpired counts expired-deadline refusals.
	busy        map[int]uint64
	busyExpired int
	// busyFanned records the one-shot whole-group retransmit of the first
	// below-quorum busy: first attempts are primary-routed, so without it
	// only the primary could refuse and no busy quorum would ever form.
	busyFanned bool
	counted    bool // holds an in-flight window slot (Driver.maxOutstanding)
	// retryTmr and abortTmr are armed and stopped by the executor only.
	retryTmr, abortTmr *time.Timer
	acts               [2]callAction // backs step's result, so steps allocate none
}

// outcome is what a settled call hands its consumer: the reply, and for
// a txn call's agreed reply the bundle that certifies it (the 2PC vote
// or handoff certificate).
type outcome struct {
	reply Reply
	cert  *ReplyBundle
}

// callEventKind discriminates what happened to a call.
type callEventKind uint8

const (
	evBundle   callEventKind = iota + 1 // a verified reply bundle from a target voter
	evAgreed                            // the caller group's agreed reply or abort
	evParked                            // outcomes that arrived before the call was issued
	evBusy                              // one target voter refused the request under overload
	evRetry                             // the retransmission timer fired
	evDeadline                          // the caller's deadline passed
	evCancel                            // the caller gave up on the call
)

// callEvent is one event fed to step, with the inputs step may not
// fetch itself: the group sizes, the clock's verdict on the call's
// expiry and the retransmission jitter.
type callEvent struct {
	kind   callEventKind
	bundle *ReplyBundle // evBundle; evParked's parked bundle, if any
	// reply, with its certificate's shares and roster attestation, is
	// evAgreed's outcome, or evParked's when agreed is set.
	reply  Reply
	agreed bool
	shares []Share
	epoch  uint64
	groupN int
	// evBusy: the refusing voter's group and index, its retry-after hint,
	// and whether it refused because the deadline had passed.
	from           string
	replica        int
	hint           uint64
	refusedExpired bool

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
	actSettle   callActionKind = iota + 1 // end the call with reply (and cert)
	actForward                            // forward bundle to this group's primary voter
	actResend                             // resend to the whole target group (attempt, responder)
	actAbort                              // propose the agreed abort
	actArmRetry                           // re-arm the retransmission timer after `after`
)

// callAction is one thing step asks the executor to do.
type callAction struct {
	kind      callActionKind
	reply     Reply
	cert      *ReplyBundle
	bundle    *ReplyBundle
	attempt   int
	responder int
	after     time.Duration
}

// step is the whole settle policy of an agreement-path call: it applies
// one event to c and returns the actions that follow, and it touches no
// lock, timer, clock, randomness or network. One row per rule:
//
//   - evBundle: a bundle from another target is ignored; a fast call
//     settles with its payload; any other call forwards it for
//     agreement (stage 7).
//   - evAgreed: dropped on a fast call — no correct replica proposes an
//     outcome for one, so an agreed one (a faulty voter's abort) must
//     not race the certified reply; it settles any other call, and a
//     txn call keeps the reply's shares as its certificate.
//   - evParked: a parked bundle settles a fast call and a parked agreed
//     outcome any other call; the other kind is dropped, and the call
//     goes out as usual.
//   - evBusy: ignored on a txn call, from another target, or from
//     outside the group. Below the f_t+1 quorum of distinct refusers the
//     first refusal fans the request out to the whole group once. At the
//     quorum an unreplicated caller (N = 1) settles the call as
//     overloaded with the largest hint. Each replica of a replicated
//     caller sees its own quorum at its own time, so it never settles
//     locally: it retries a fast call after the hint (or the
//     retransmission interval when the hint is 0) on a fresh quorum,
//     and proposes the abort of any other.
//   - evRetry: a no-op once the expiry stamp has passed; otherwise the
//     request is resent to the whole group with the responder rotated,
//     and the timer backs off exponentially, capped at
//     maxRetransmitBackoff, with ±20% jitter.
//   - evDeadline: a fast call settles as aborted; any other proposes the
//     abort.
//   - evCancel: as evDeadline, but the outcome never surfaces; a second
//     cancel does nothing.
//
// The actions are settle(reply, cert), forward-bundle-to-primary,
// resend-to-group(attempt, responder), propose-abort and
// arm-retry(after).
func step(c *call, ev callEvent) []callAction {
	acts := c.acts[:0]
	switch ev.kind {
	case evBundle:
		switch {
		case ev.bundle.Target != c.target:
			return nil
		case c.fast:
			return append(acts, callAction{kind: actSettle, reply: Reply{ReqID: c.id, Payload: ev.bundle.Payload}})
		}
		return append(acts, callAction{kind: actForward, bundle: ev.bundle})
	case evAgreed:
		if c.fast {
			return nil
		}
		return append(acts, c.settleAgreed(ev))
	case evParked:
		switch {
		case c.fast && ev.bundle != nil && ev.bundle.Target == c.target:
			return append(acts, callAction{kind: actSettle, reply: Reply{ReqID: c.id, Payload: ev.bundle.Payload}})
		case !c.fast && ev.agreed:
			return append(acts, c.settleAgreed(ev))
		}
		return nil
	case evBusy:
		if c.txn || ev.from != c.target || ev.replica >= ev.targetN {
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

// settleAgreed is the settle action for an agreed outcome.
func (c *call) settleAgreed(ev callEvent) callAction {
	a := callAction{kind: actSettle, reply: ev.reply}
	if c.txn && !ev.reply.Aborted && len(ev.shares) > 0 {
		a.cert = &ReplyBundle{ReqID: c.id, Target: c.target, Epoch: ev.epoch, GroupN: ev.groupN, Payload: ev.reply.Payload, Shares: ev.shares}
	}
	return a
}

// retransmit appends a resend to the whole group, with the responder
// rotated, and the backed-off re-arm of the retry timer — unless the
// expiry stamp has passed, when nothing downstream would serve the
// request and the deadline timer settles it instead.
func (c *call) retransmit(acts []callAction, ev callEvent) []callAction {
	if ev.expired {
		return nil
	}
	c.attempt++
	c.responder = int((fnv64a([]byte(c.id)) + uint64(c.attempt)) % uint64(ev.targetN))
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
