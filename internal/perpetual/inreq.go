package perpetual

import (
	"crypto/sha256"
	"sync/atomic"

	"perpetualws/internal/auth"
	"perpetualws/internal/clbft"
)

// Bounds of the voter's request table and of its delivered-outcome
// dedup (see voter.delivered).
const (
	reqTableSize       = 8192
	deliveredCacheSize = 16384
)

// inReq is one request id's life at the callee voter: the copies
// collected for agreement, the agreed position, the minted reply kept
// for retransmissions and, at the responder, the reply shares. A request
// copy, an agreed delivery or a reply share that beats the delivery
// creates it. voter.mu guards it.
type inReq struct {
	id         string
	caller     string
	prev, next *inReq
	on         *reqList // the table list r sits on, nil while unfiled
	collecting bool

	// Vote collection (stage 2).
	drivers  []driverVote // by caller replica index
	proposed bool
	expiry   uint64 // the proposal quorum's deadline stamp, 0 = none

	// Agreement and execution (stages 3-4).
	executing bool   // agreed, and no reply minted since
	pos       uint64 // agreement position that ordered the request, 0 until agreed
	responder int    // the voter this replica's share goes to

	// The minted reply (stage 5).
	minted bool
	reply  replyRecord

	// Reply shares, collected at the responder (stage 6).
	slots   []shareSlot // by voter index
	sent    bool        // the bundle went out
	fetched bool        // payload-fetch fired for the winning digest
}

// driverVote is one calling driver's current copy of a request; req is
// nil until the driver has voted.
type driverVote struct {
	req    *RequestMsg
	digest [sha256.Size]byte
}

// replyRecord is this voter's executed reply. The share's tier and the
// epoch it was minted at let a retransmission re-mint it stable once the
// commit horizon passes the request, or under a new epoch's keys (see
// the inCopy row of step).
type replyRecord struct {
	digest  [sha256.Size]byte
	payload []byte
	share   Share
	epoch   uint64
}

// shareSlot is one target voter's latest share, and the latest payload
// it sent that hashes to the digest it came with (payloads come from the
// responder's own execution, or from payload-fetch answers).
type shareSlot struct {
	have          bool
	share         Share
	digest        [sha256.Size]byte // the digest the share endorses
	bound         bool              // payload hashes to payloadDigest
	payload       []byte
	payloadDigest [sha256.Size]byte
}

// count counts distinct drivers whose current copy has digest.
func (r *inReq) count(digest [sha256.Size]byte) int {
	n := 0
	for i := range r.drivers {
		if d := &r.drivers[i]; d.req != nil && d.digest == digest {
			n++
		}
	}
	return n
}

// deadline is the stamp a request with digest is held to: the latest
// stamp among the copies that carry digest, or none (0) if one of them
// carries none. At f_c+1 matching copies one comes from a correct
// driver, so a faulty driver's early stamp never suppresses a reply that
// a correct driver still waits for.
func (r *inReq) deadline(digest [sha256.Size]byte) uint64 {
	var stamp uint64
	for i := range r.drivers {
		if d := &r.drivers[i]; d.req != nil && d.digest == digest {
			if d.req.Expiry == 0 {
				return 0
			}
			stamp = max(stamp, d.req.Expiry)
		}
	}
	return stamp
}

// shares lists the authenticators of the drivers whose current copy has
// digest, one per driver, in driver index order.
func (r *inReq) shares(digest [sha256.Size]byte) []Share {
	out := make([]Share, 0, len(r.drivers))
	for i := range r.drivers {
		if d := &r.drivers[i]; d.req != nil && d.digest == digest {
			out = append(out, Share{Replica: i, Auth: d.req.Auth})
		}
	}
	return out
}

// certified finds a certifiable digest: f_t+1 stable endorsements, or
// a full agreement quorum of endorsements in any tier (the two
// acceptance tiers of VerifyBundle — under tentative execution the
// common case is every voter endorsing tentatively, which certifies at
// quorum without waiting for commits; short tentative sets wait for the
// retransmission-driven stable upgrade). Ties go to the lowest voter
// index.
func (r *inReq) certified(f, quorum int) ([sha256.Size]byte, bool) {
	for i := range r.slots {
		s := &r.slots[i]
		if !s.have {
			continue
		}
		count, stable := 0, 0
		for j := range r.slots {
			if o := &r.slots[j]; o.have && o.digest == s.digest {
				count++
				if !o.share.Tentative {
					stable++
				}
			}
		}
		if stable >= f+1 || count >= quorum {
			return s.digest, true
		}
	}
	return [sha256.Size]byte{}, false
}

// payloadFor returns a payload some voter sent bound to digest.
func (r *inReq) payloadFor(digest [sha256.Size]byte) ([]byte, bool) {
	for i := range r.slots {
		if s := &r.slots[i]; s.bound && s.payloadDigest == digest {
			return s.payload, true
		}
	}
	return nil, false
}

// endorsements lists the shares endorsing digest in voter index order,
// so identical runs assemble identical bundles.
func (r *inReq) endorsements(digest [sha256.Size]byte) []Share {
	out := make([]Share, 0, len(r.slots))
	for i := range r.slots {
		if s := &r.slots[i]; s.have && s.digest == digest {
			out = append(out, s.share)
		}
	}
	return out
}

// reqTable is the voter's one table of request records. Each record sits
// on the intrusive list, eldest first, that its state names: collecting,
// executing (agreed, no reply minted yet), minted, or waiting (share
// slots only). The intake gate (maxIntake) bounds the collecting list,
// which is never evicted here; every other list evicts its own eldest
// when full. Copies and shares from a faulty member reach only the
// collecting and waiting lists, so they never evict agreed work.
// The caller holds voter.mu throughout.
type reqTable struct {
	recs                                   map[string]*inReq
	collecting, executing, minted, waiting reqList
	intakeA                                atomic.Int64 // collecting.n, read without voter.mu

	self         int // this voter's index in its group
	n, f, quorum int // this voter's group shape, fixed at deployment
	maxIntake    int // bound on collecting records

	// The admission outcomes step counts (see OverloadStats).
	shedIntake    atomic.Uint64 // copies refused or evicted at the intake bound
	shedProposer  atomic.Uint64 // proposals deferred at the proposer-queue gate
	expiredDrops  atomic.Uint64 // requests dropped pre-agreement for an expired deadline
	replySuppress atomic.Uint64 // executed replies whose share send was suppressed
}

// reqList is a circular intrusive list around a sentinel, holding at
// most max records (0: no bound here).
type reqList struct {
	root   inReq
	n, max int
}

func (t *reqTable) init(self int, svc ServiceInfo) {
	t.recs = make(map[string]*inReq)
	t.self, t.n, t.f, t.quorum, t.maxIntake = self, svc.N, svc.F(), svc.Quorum(), reqTableSize
	t.executing.max, t.minted.max, t.waiting.max = reqTableSize, reqTableSize, reqTableSize/2
	for _, l := range []*reqList{&t.collecting, &t.executing, &t.minted, &t.waiting} {
		l.root.prev, l.root.next = &l.root, &l.root
	}
}

// at returns id's record, creating one if there is none. A new record is
// on no list: the caller sets its state and refiles it.
func (t *reqTable) at(id, caller string) *inReq {
	r := t.recs[id]
	if r == nil {
		r = &inReq{id: id, caller: caller}
		t.recs[id] = r
	}
	return r
}

// refile moves r to the tail of the list its state names, unless it is
// already there, first evicting that list's eldest if it is full.
func (t *reqTable) refile(r *inReq) {
	l := &t.waiting
	switch {
	case r.collecting:
		l = &t.collecting
	case r.executing:
		l = &t.executing
	case r.minted:
		l = &t.minted
	}
	if r.on == l {
		return
	}
	t.unlink(r)
	for l.max > 0 && l.n >= l.max {
		t.drop(l.root.next)
	}
	r.prev, r.next, r.on = l.root.prev, &l.root, l
	r.prev.next, l.root.prev = r, r
	l.n++
	t.intakeA.Store(int64(t.collecting.n))
}

func (t *reqTable) drop(r *inReq) {
	t.unlink(r)
	delete(t.recs, r.id)
}

// unlink takes r off its list, if it is on one.
func (t *reqTable) unlink(r *inReq) {
	if l := r.on; l != nil {
		r.prev.next, r.next.prev = r.next, r.prev
		r.on = nil
		l.n--
		t.intakeA.Store(int64(t.collecting.n))
	}
}

// release ends r's vote collection without agreement (a shed or a passed
// deadline). The record goes, unless it already collects reply shares.
func (t *reqTable) release(r *inReq) {
	if r.slots == nil {
		t.drop(r)
		return
	}
	r.collecting, r.drivers, r.proposed = false, nil, false
	t.refile(r)
}

// resetShares starts every share collection afresh under a new
// membership epoch (mixed-epoch shares never certify) and re-arms the
// collecting records: proposals above the install barrier died with the
// old instance, so the callers' retransmissions must re-propose them.
// Minted replies stay, re-minted on retransmission.
func (t *reqTable) resetShares() {
	for _, r := range t.recs {
		r.slots, r.sent, r.fetched, r.proposed = nil, false, false, false
	}
	for w := &t.waiting; w.n > 0; { // share slots were all they held
		t.drop(w.root.next)
	}
}

// reqEventKind discriminates what happened to a request at the callee.
type reqEventKind uint8

const (
	inCopy     reqEventKind = iota + 1 // a caller driver's copy, its authenticator checked
	inAgreed                           // agreement delivered the request
	inExecuted                         // this voter minted its reply, or re-minted it
	inShare                            // a group voter's reply share
	inFetch                            // a group voter asks for the payload of a digest
)

// reqEvent is one event fed to step, with the facts step may not fetch
// itself. Each kind fills the fields its row reads.
type reqEvent struct {
	kind   reqEventKind
	now    uint64            // inCopy, inExecuted: the local clock, unix ms
	req    *RequestMsg       // inCopy
	digest [sha256.Size]byte // inCopy: req's digest; inFetch: the digest asked for
	from   int               // inCopy: the driver's index; inShare, inFetch: the voter's
	op     *Op               // inAgreed, with its position
	pos    uint64
	id     string      // inExecuted, inFetch
	reply  replyRecord // inExecuted
	remint bool        // inExecuted: a retransmission's re-mint, not the first
	share  ReplyShare  // inShare, with whether its payload hashes to its digest
	bound  bool

	callerN, callerF int    // inCopy: the calling group's shape
	committed        uint64 // inCopy: the agreement's commit horizon
	epoch            uint64 // inCopy, inShare: the installed membership epoch
	backlogFull      bool   // inCopy: the proposer backlog is at its bound
}

// reqActionKind discriminates what step asks the voter to do.
type reqActionKind uint8

const (
	doPropose reqActionKind = iota + 1 // submit req for agreement, endorsed by shares
	doExecute                          // hand op, agreed at pos, to the executor
	doMint                             // re-mint reply, agreed at pos, stable, then feed inExecuted
	doShare                            // send reply's share to voter, with the payload if withPayload
	doBundle                           // send payload and shares, minted under epoch and pos, to the caller
	doFetch                            // ask voter for the payload of digest
	doBusy                             // refuse id to driver to, expired or overloaded
)

// reqAction is one thing step asks the voter to do once v.mu is
// released. It holds values, not messages, so that the voter builds
// each message on its own stack.
type reqAction struct {
	kind        reqActionKind
	id, caller  string
	req         *RequestMsg
	op          *Op
	pos         uint64
	reply       replyRecord
	voter       int
	withPayload bool
	digest      [sha256.Size]byte
	payload     []byte
	shares      []Share
	epoch       uint64
	to          auth.NodeID
	expired     bool
}

// passed reports whether a deadline stamp (0 = none) is before now.
func passed(stamp, now uint64) bool { return stamp != 0 && now > stamp }

// shareAction is the action that sends r's minted share to voter. Remote
// shares are digest-only unless withPayload (a payload-fetch answer):
// the responder executed the same agreed request and bundles its own
// payload, so shipping the payload n−1 times would multiply reply
// bandwidth by the replication degree for nothing.
func (t *reqTable) shareAction(r *inReq, voter int, withPayload bool) reqAction {
	return reqAction{kind: doShare, id: r.id, caller: r.caller, reply: r.reply, voter: voter,
		withPayload: withPayload || voter == t.self}
}

// step is every decision the voter makes about a request made to its
// group: it applies one event to the table and appends the actions that
// follow to acts. It takes no lock, reads no clock, and does no crypto or
// network work; the event carries what it needs. It works on the table,
// not the record, because the intake shed evicts another record and
// busies that record's drivers. DESIGN.md ("The callee's request
// record") has the table of rows; the deadline gates are:
//
//   - pre-admission: a copy whose own stamp has passed is busied as
//     expired;
//   - pre-reply: a first mint past the record's stamp (the deadline of
//     the copies it was proposed on) is kept but its share is not sent.
//     The agreed operation has executed (skipping it on a local clock
//     would diverge replicated state), and the kept reply still serves
//     a late retransmission.
//
// There is no pre-proposal gate: the proposal quorum's deadline is never
// before the completing copy's own stamp, which pre-admission has just
// checked against the same now.
func (t *reqTable) step(acts []reqAction, ev *reqEvent) []reqAction {
	switch ev.kind {
	case inCopy:
		acts = t.stepCopy(acts, ev)
	case inAgreed:
		r := t.at(ev.op.ReqID, ev.op.Caller)
		r.collecting, r.drivers, r.proposed = false, nil, false
		if !r.executing { // else a retransmission may have moved the responder
			r.responder = ev.op.Responder
		}
		r.caller, r.pos, r.executing = ev.op.Caller, ev.pos, true
		t.refile(r)
		acts = append(acts, reqAction{kind: doExecute, op: ev.op, pos: ev.pos})
	case inExecuted:
		r := t.recs[ev.id]
		if r == nil || (ev.remint && !r.minted) || (!ev.remint && !r.executing) {
			break
		}
		r.executing, r.minted, r.reply = false, true, ev.reply
		t.refile(r)
		if !ev.remint && passed(r.expiry, ev.now) {
			t.replySuppress.Add(1)
		} else {
			acts = append(acts, t.shareAction(r, r.responder, false))
		}
	case inShare:
		acts = t.stepShare(acts, ev)
	case inFetch:
		if r := t.recs[ev.id]; r != nil && r.minted && r.reply.digest == ev.digest {
			acts = append(acts, t.shareAction(r, ev.from, true))
		}
	}
	return acts
}

// stepCopy is step's inCopy row.
func (t *reqTable) stepCopy(acts []reqAction, ev *reqEvent) []reqAction {
	req := ev.req
	busy := reqAction{kind: doBusy, id: req.ReqID, to: auth.DriverID(req.Caller, ev.from)}
	if passed(req.Expiry, ev.now) {
		t.expiredDrops.Add(1)
		busy.expired = true
		return append(acts, busy)
	}
	r := t.recs[req.ReqID]
	if r != nil && (r.executing || r.minted) {
		r.responder = req.Responder
		switch {
		case !r.minted:
			return acts
		case (r.reply.share.Tentative && ev.committed >= clbft.SeqOf(r.pos)) || r.reply.epoch != ev.epoch:
			// A stable re-mint lets f_t+1 upgraded shares certify a reply
			// that stalled below the tentative quorum. A pre-flip share can
			// never enter a post-flip bundle, and post-flip the commit floor
			// is the install barrier, so that re-mint is stable too.
			return append(acts, reqAction{kind: doMint, id: r.id, caller: r.caller, reply: r.reply, pos: r.pos})
		}
		return append(acts, t.shareAction(r, r.responder, false))
	}
	if r == nil || !r.collecting {
		if t.collecting.n >= t.maxIntake {
			// Shed eldest-first, CoDel style; the evicted record's callers
			// settle it as shed instead of waiting out their timers.
			t.shedIntake.Add(1)
			eldest := t.collecting.root.next
			for eldest != &t.collecting.root && eldest.proposed {
				eldest = eldest.next
			}
			if eldest == &t.collecting.root {
				return append(acts, busy)
			}
			for i, d := range eldest.drivers {
				if d.req != nil {
					acts = append(acts, reqAction{kind: doBusy, id: eldest.id, to: auth.DriverID(eldest.caller, i)})
				}
			}
			t.release(eldest)
		}
		r = t.at(req.ReqID, req.Caller)
		r.caller, r.drivers, r.collecting = req.Caller, make([]driverVote, ev.callerN), true
		t.refile(r)
	}
	slot := &r.drivers[ev.from]
	if slot.req != nil && slot.digest == ev.digest {
		return acts // a duplicate; a changed digest replaces the driver's vote
	}
	*slot = driverVote{req: req, digest: ev.digest}
	if r.proposed || r.count(ev.digest) < ev.callerF+1 {
		return acts
	}
	if ev.backlogFull {
		t.shedProposer.Add(1)
		return append(acts, busy)
	}
	r.proposed, r.expiry = true, r.deadline(ev.digest)
	return append(acts, reqAction{kind: doPropose, req: req, shares: r.shares(ev.digest)})
}

// stepShare is step's inShare row.
func (t *reqTable) stepShare(acts []reqAction, ev *reqEvent) []reqAction {
	rs := &ev.share
	r := t.at(rs.ReqID, rs.Caller) // a share may beat the delivery here
	t.refile(r)
	if r.slots == nil {
		r.slots = make([]shareSlot, t.n)
	}
	s := &r.slots[ev.from]
	s.have, s.share, s.digest = true, rs.Share, rs.Digest
	if ev.bound {
		s.bound, s.payload, s.payloadDigest = true, rs.Payload, rs.Digest
	}
	winner, found := r.certified(t.f, t.quorum)
	if !found || r.sent || r.pos == 0 { // the shares MAC a position this voter must know
		return acts
	}
	if payload, have := r.payloadFor(winner); have {
		r.sent = true
		return append(acts, reqAction{kind: doBundle, id: r.id, caller: r.caller, payload: payload,
			shares: r.endorsements(winner), epoch: ev.epoch, pos: r.pos})
	}
	// No payload yet: usually this voter's own share, which carries it,
	// is still to come. If it came and endorses another digest, fetch.
	if own := &r.slots[t.self]; !own.have || own.digest == winner || r.fetched {
		return acts
	}
	r.fetched = true
	for i := range r.slots {
		if o := &r.slots[i]; i != t.self && o.have && o.digest == winner {
			acts = append(acts, reqAction{kind: doFetch, id: r.id, voter: i, digest: winner})
		}
	}
	return acts
}
