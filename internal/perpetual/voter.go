package perpetual

import (
	"crypto/sha256"
	"log"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perpetualws/internal/auth"
	"perpetualws/internal/clbft"
	"perpetualws/internal/inbox"
	"perpetualws/internal/transport"
	"perpetualws/internal/wire"
)

// voter is the passive half of a Perpetual replica: a CLBFT group member
// that orders external requests, replies, aborts, and utility values,
// and runs the responder/share machinery of the reply path.
type voter struct {
	svc      ServiceInfo
	index    int
	registry *Registry
	adapter  *transport.ChannelAdapter
	ks       *auth.KeyStore
	// bftp holds the current CLBFT instance. It is a swappable pointer
	// because a membership install rebuilds the instance under the new
	// epoch while the transport keeps delivering: readers always see
	// either the old (stopped, inert) or the new instance, never nil.
	bftp   atomic.Pointer[clbft.Replica]
	driver *Driver // co-located; set during replica assembly
	logger *log.Logger

	// memEpoch is the installed membership epoch of this voter's group
	// (see membership.go). Outbound messages are stamped with it;
	// intra-group traffic carrying any other stamp is dropped.
	memEpoch atomic.Uint64
	// staleEpochDrops counts intra-group messages rejected for a stale
	// (or future) epoch stamp — the deterministic observable that a
	// departed incarnation's traffic is being refused.
	staleEpochDrops atomic.Uint64
	// membershipHook is the deployment's install callback: invoked (on a
	// fresh goroutine) once an agreed membership change's barrier
	// sequence commits. Voters without a hook reject OpMembership in
	// validation — a group nobody can rebuild must not halt itself.
	membershipHook func(mc *MembershipChange, seq uint64, state clbft.Digest)
	// pendingMC (guarded by mu) is the delivered-but-not-yet-installed
	// membership change; cleared if a view change rolls the barrier back.
	pendingMC *MembershipChange

	// Fault injection (see faults.go): fault is the flag fault set before
	// Start, if any, and faultFired counts the answers it falsified.
	fault      Behavior
	faultFired atomic.Uint64

	// stableCkpt mirrors the CLBFT group's last stable checkpoint
	// sequence (fed by the checkpoint hook; see StableCheckpointSeq).
	stableCkpt atomic.Uint64

	// execPos is the read horizon: the highest agreement position
	// (clbft.Delivery.Pos) whose result the application returned to
	// handleLocalResult. Reads are stamped with it and served against
	// leases up to it: unlike the CLBFT delivery horizon, it never runs
	// ahead of the application state a read actually observes.
	execPos atomic.Uint64

	// readMu guards the session-read state below, which is touched from
	// transport goroutines (reads execute speculatively, off the
	// agreement path) concurrently with the executor.
	readMu   sync.Mutex
	readExec func([]byte) ([]byte, error)
	// parkedReads holds reads whose lease this replica has not reached
	// yet: instead of declining immediately (forcing the caller toward
	// agreement fallback), the read waits until the horizon passes its
	// lease — normally microseconds after the write it trails — or
	// until its due time, when it is declined (see serveParked).
	parkedReads []parkedRead
	alarm       alarm

	// Overload control (see overload.go and DESIGN.md); zero disables
	// each gate. The intake bound and the request counters sit on reqs.
	maxProposer int           // bound on the CLBFT pending backlog new proposals may join
	readShedAt  int           // intake at which fast-path reads shed (reads shed first)
	retryHint   time.Duration // backoff hint carried by busy replies
	shedReads   atomic.Uint64 // fast-path reads refused under pressure

	// clientLane decouples the client plane (external requests,
	// fast-path reads) from the protocol plane (CLBFT, reply shares):
	// client frames queue here for a dedicated worker while protocol
	// frames are handled inline on the transport pump, so a request
	// flood cannot head-of-line block agreement traffic (see startLane).
	clientLane *inbox.Queue[laneItem]

	mu sync.Mutex
	// reqs holds this group's side of every call made to it, one record
	// per request id (see inreq.go).
	reqs reqTable
	// delivered dedups the agreed replies and aborts of this group's own
	// outbound calls: caller-side state, apart from reqs.
	delivered *boundedCache[struct{}]
}

func newVoter(svc ServiceInfo, index int, reg *Registry, adapter *transport.ChannelAdapter, ks *auth.KeyStore, logger *log.Logger) *voter {
	v := &voter{
		svc:       svc,
		index:     index,
		registry:  reg,
		adapter:   adapter,
		ks:        ks,
		logger:    logger,
		retryHint: DefaultRetryAfterHint,
		delivered: newBoundedCache[struct{}](deliveredCacheSize),
	}
	v.reqs.init(index, svc)
	v.alarm = newAlarm(v.fire)
	return v
}

func (v *voter) logf(format string, args ...any) {
	if v.logger != nil {
		v.logger.Printf("voter[%s/%d]: "+format, append([]any{v.svc.Name, v.index}, args...)...)
	}
}

// bft returns the current CLBFT instance (see bftp).
func (v *voter) bft() *clbft.Replica { return v.bftp.Load() }

// adoptEpoch flips the voter to a freshly installed membership epoch
// (see reqTable.resetShares).
func (v *voter) adoptEpoch(epoch uint64) {
	v.memEpoch.Store(epoch)
	v.mu.Lock()
	v.pendingMC = nil
	v.reqs.resetShares()
	v.mu.Unlock()
}

// bftTransport adapts the voter's ChannelAdapter to clbft.Transport,
// including the encode-once Multicast extension: a CLBFT broadcast to
// n−1 peers serializes the message (and its transport wrapper) exactly
// once and computes only the per-receiver pairwise MAC per destination,
// instead of re-encoding everything n−1 times.
func (v *voter) bftTransport() clbft.Transport {
	return &bftTransport{v: v}
}

type bftTransport struct {
	v *voter
	// ids is Multicast's destination list, reused: clbft calls its
	// transport from the replica's event loop only, and the adapter
	// keeps no reference to the list.
	ids []auth.NodeID
}

var _ clbft.Transport = (*bftTransport)(nil)

func (t *bftTransport) Send(to int, m *clbft.Message) {
	t.Multicast([]int{to}, m)
}

func (t *bftTransport) Multicast(tos []int, m *clbft.Message) {
	v := t.v
	inner := wire.GetWriter(256)
	m.EncodeTo(inner)
	outer := wire.GetWriter(inner.Len() + 8)
	(&Message{Kind: KindBFT, BFT: inner.Bytes(), Epoch: v.memEpoch.Load()}).EncodeTo(outer)
	if len(tos) == 1 {
		if err := v.adapter.Send(auth.VoterID(v.svc.Name, tos[0]), outer.Bytes()); err != nil {
			v.logf("bft send to %d: %v", tos[0], err)
		}
	} else {
		t.ids = t.ids[:0]
		for _, to := range tos {
			t.ids = append(t.ids, auth.VoterID(v.svc.Name, to))
		}
		if err := v.adapter.SendMulti(t.ids, outer.Bytes()); err != nil {
			v.logf("bft multicast: %v", err)
		}
	}
	outer.Free()
	inner.Free()
}

// validateOp is the CLBFT operation validator: it re-verifies the
// authenticator certificates embedded in request and reply operations so
// a faulty voter-group primary cannot push fabricated operations through
// agreement. It returns the decoded *Op for clbft to carry to onDeliver
// (Delivery.Parsed), so an accepted operation is decoded once per
// replica. The Op aliases op, which clbft owns and never modifies.
func (v *voter) validateOp(opID string, op []byte) (any, bool) {
	o, err := DecodeOp(op)
	if err != nil {
		return nil, false
	}
	return o, v.validOp(opID, o)
}

// validOp is validateOp's verdict on a decoded operation.
func (v *voter) validOp(opID string, o *Op) bool {
	switch o.Kind {
	case OpRequest:
		// A request id names its caller (Driver.nextReqID), so no caller
		// can certify a call under another group's id and poison its dedup.
		caller, err := v.registry.Lookup(o.Caller)
		if _, bound := callerReqSeq(o.ReqID, o.Caller); err != nil || !bound {
			return false
		}
		req := RequestMsg{ReqID: o.ReqID, Caller: o.Caller, Target: v.svc.Name, Payload: o.Payload}
		msg := requestAuthMsg(o.ReqID, req.Digest())
		authDigest := sha256.Sum256(msg.Bytes()) // one hash for every share's check
		msg.Free()
		need := caller.F() + 1
		var seen [8]int // caller replicas with a valid share; spills to the heap past 8
		valid := seen[:0]
		for i := range o.Shares {
			s := &o.Shares[i]
			if s.Replica < 0 || s.Replica >= caller.N || slices.Contains(valid, s.Replica) {
				continue
			}
			if s.Auth.Sender != auth.DriverID(caller.Name, s.Replica) {
				continue
			}
			if err := s.Auth.VerifyDigestFor(v.ks, authDigest); err != nil {
				continue
			}
			valid = append(valid, s.Replica)
		}
		return len(valid) >= need
	case OpReply:
		target, err := v.registry.Lookup(o.Target)
		if err != nil {
			return false
		}
		b := &ReplyBundle{ReqID: o.ReqID, Target: o.Target, Payload: o.Payload, Shares: o.Shares,
			Epoch: o.Epoch, Pos: o.Pos}
		return VerifyBundle(v.ks, target, b) == nil
	case OpAbort:
		// Aborts carry no certificate: any single replica of the group
		// may deterministically abort an outstanding request for
		// liveness, and agreement order decides races against replies.
		return o.ReqID != ""
	case OpUtil:
		// Utility values are the primary's suggestion by design (paper
		// Section 4.2); agreement only makes them consistent.
		return true
	case OpMembership:
		// A membership change must target this very group and advance its
		// installed epoch by exactly one — every correct replica refuses
		// anything else before ordering, so a faction below the *current*
		// quorum can never install an epoch, and a replayed change from an
		// earlier epoch is rejected as stale. Groups without an install
		// hook (no deployment orchestrator wired) refuse all changes: a
		// group nobody can rebuild must not halt itself at a barrier.
		if v.membershipHook == nil {
			return false
		}
		mc, err := DecodeMembershipChange(o.Payload)
		if err != nil {
			return false
		}
		if opID != MembershipOpID(mc.Group, mc.NewEpoch) {
			return false
		}
		if err := mc.Validate(v.svc.Name, v.memEpoch.Load(), v.svc.N); err != nil {
			v.logf("membership change rejected: %v", err)
			return false
		}
		return true
	default:
		return false
	}
}

// handleTransport dispatches an authenticated inbound transport payload.
func (v *voter) handleTransport(from auth.NodeID, payload []byte) {
	// Classify on the leading kind byte BEFORE decoding: client-plane
	// frames (requests, fast-path reads) are copied raw onto the bounded
	// lane and decoded there, so a flood's decode cost never runs on the
	// transport pump where it would delay the protocol frames queued
	// behind it. Protocol kinds decode inline — KindBFT in particular
	// aliases the frame buffer, which is only valid during this call.
	if isClientKind(payload) {
		v.enqueueClient(from, payload)
		return
	}
	m, err := DecodeMessage(payload)
	if err != nil {
		v.logf("malformed message from %s: %v", from, err)
		return
	}
	// Epoch gate: intra-group protocol traffic must carry this voter's
	// installed membership epoch. A departed incarnation (whose keys no
	// longer verify) or a replayed pre-flip frame is rejected here
	// deterministically instead of corrupting protocol state. Driver-
	// originated kinds stay epoch-free: a caller with a stale roster
	// view must still reach the group to learn the new epoch.
	if from.Service == v.svc.Name && from.Role == auth.RoleVoter {
		switch m.Kind {
		case KindBFT, KindReplyShare, KindPayloadFetch:
			if m.Epoch != v.memEpoch.Load() {
				v.staleEpochDrops.Add(1)
				return
			}
		}
	}
	switch m.Kind {
	case KindBFT:
		if from.Service != v.svc.Name || from.Role != auth.RoleVoter {
			return // only group members speak CLBFT
		}
		v.bft().ReceiveEncoded(from.Index, m.BFT)
	case KindReplyShare:
		v.handleReplyShare(from, m.ReplyShare)
	case KindPayloadFetch:
		v.handlePayloadFetch(from, m.PayloadFetch)
	case KindResultForward:
		v.handleResultForward(from, m.ResultForward)
	}
}

// handleExternalRequest implements stage 2: it checks a request copy
// and feeds it to step, which collects f_c+1 matching copies for
// agreement and serves retransmissions of executed requests. It is a
// shell function: it stamps the event with the time.
func (v *voter) handleExternalRequest(from auth.NodeID, req *RequestMsg) {
	if req == nil || req.ReqID == "" {
		return
	}
	if from.Role != auth.RoleDriver || from.Service != req.Caller || req.Target != v.svc.Name {
		return
	}
	// A request id names its caller, so every copy a record collects
	// comes from one group, and from.Index fits the record's vote slots.
	caller, err := v.registry.Lookup(req.Caller)
	if _, bound := callerReqSeq(req.ReqID, req.Caller); err != nil || !bound ||
		from.Index < 0 || from.Index >= caller.N || req.Responder < 0 || req.Responder >= v.svc.N {
		return
	}
	digest := req.Digest()
	// The embedded authenticator must endorse the request for this
	// voter; otherwise the sender is lying about the content.
	msg := requestAuthMsg(req.ReqID, digest)
	err = req.Auth.VerifyFor(v.ks, msg.Bytes())
	msg.Free()
	if err != nil {
		v.logf("request %s from %s: bad authenticator: %v", req.ReqID, from, err)
		return
	}
	ev := reqEvent{kind: inCopy, now: uint64(time.Now().UnixMilli()), req: req, digest: digest, from: from.Index,
		callerN: caller.N, callerF: caller.F(), epoch: v.memEpoch.Load()}
	if b := v.bft(); b != nil {
		ev.committed = b.CommittedSeq()
		ev.backlogFull = v.maxProposer > 0 && b.PendingLen() >= v.maxProposer
	}
	v.apply(&ev)
}

// apply runs step on ev under v.mu and performs its actions after.
func (v *voter) apply(ev *reqEvent) {
	var buf [1]reqAction // the common events ask for at most one action
	v.mu.Lock()
	acts := v.reqs.step(buf[:0], ev)
	v.mu.Unlock()
	v.perform(acts)
}

// perform carries out step's actions. Minting needs this voter's keys, so
// a re-mint happens here and comes back to step as inExecuted.
func (v *voter) perform(acts []reqAction) {
	for i := range acts {
		switch a := &acts[i]; a.kind {
		case doPropose:
			// Submit via our own CLBFT replica: if we are not the primary,
			// clbft forwards the proposal, so a correct voter suffices to
			// get the request ordered regardless of which replica the
			// caller contacted.
			op := Op{Kind: OpRequest, ReqID: a.req.ReqID, Caller: a.req.Caller, Responder: a.req.Responder,
				Payload: a.req.Payload, Shares: a.shares}
			v.bft().Submit(RequestOpID(op.ReqID), op.Encode())
		case doExecute:
			v.driver.deliverRequest(IncomingRequest{ReqID: a.op.ReqID, Caller: a.op.Caller, Payload: a.op.Payload})
		case doMint:
			rec, err := v.mint(a.id, a.caller, a.reply.payload, a.reply.digest, false, a.pos)
			if err != nil {
				v.logf("re-minting share for %s: %v", a.id, err)
				continue
			}
			v.apply(&reqEvent{kind: inExecuted, id: a.id, reply: rec, remint: true})
		case doShare:
			rs := ReplyShare{ReqID: a.id, Caller: a.caller, Digest: a.reply.digest, Share: a.reply.share}
			if a.withPayload {
				rs.Payload = a.reply.payload
			}
			if a.voter == v.index {
				v.acceptShare(v.index, &rs, true)
			} else {
				v.sendTo(auth.VoterID(v.svc.Name, a.voter), &Message{Kind: KindReplyShare, ReplyShare: &rs, Epoch: v.memEpoch.Load()})
			}
		case doBundle:
			v.sendBundle(a)
		case doFetch:
			v.logf("reply %s: local result diverged from endorsed digest; fetching payload from %d", a.id, a.voter)
			v.sendTo(auth.VoterID(v.svc.Name, a.voter), &Message{Kind: KindPayloadFetch,
				PayloadFetch: &PayloadFetch{ReqID: a.id, Digest: a.digest}, Epoch: v.memEpoch.Load()})
		case doBusy:
			v.sendBusy(a.to, a.id, a.expired, false)
		}
	}
}

// onDeliver consumes agreed operations in CLBFT order (stages 3 and 9).
// The operation normally arrives already decoded by validateOp; history
// replayed by catch-up never passed the validator and is decoded here.
func (v *voter) onDeliver(d clbft.Delivery) {
	o, _ := d.Parsed.(*Op)
	if o == nil {
		var err error
		if o, err = DecodeOp(d.Op); err != nil {
			v.logf("agreed op %s undecodable: %v", d.OpID, err)
			return
		}
	}
	switch o.Kind {
	case OpRequest:
		v.apply(&reqEvent{kind: inAgreed, op: o, pos: d.Pos})
	case OpReply, OpAbort:
		// The first agreed outcome of this group's own call wins: an abort
		// after the reply, or a duplicate, is a no-op.
		v.mu.Lock()
		done := v.delivered.Contains(o.ReqID)
		v.delivered.Put(o.ReqID, struct{}{})
		v.mu.Unlock()
		switch {
		case done:
		case o.Kind == OpAbort:
			v.driver.deliverReply(Reply{ReqID: o.ReqID, Aborted: true})
		default:
			v.driver.deliverReply(Reply{ReqID: o.ReqID, Payload: o.Payload})
		}
	case OpUtil:
		v.driver.deliverUtil(o.K, o.Value)
	case OpMembership:
		// The barrier predicate has already halted execution at this very
		// sequence; stash the change and wait for the halt hook — the
		// change only installs once its own ordering is *committed*, so a
		// view change can still revoke it (see onRollback).
		mc, err := DecodeMembershipChange(o.Payload)
		if err != nil {
			v.logf("agreed membership change undecodable: %v", err)
			return
		}
		if mc.NewEpoch <= v.memEpoch.Load() {
			// Catch-up replay of an already-installed epoch (the barrier
			// predicate let it through): a no-op for this incarnation.
			return
		}
		v.mu.Lock()
		v.pendingMC = mc
		v.mu.Unlock()
		v.logf("membership change agreed at seq %d: replace slot %d, epoch %d", d.Seq, mc.Slot, mc.NewEpoch)
	}
}

// onHalt is the CLBFT halt hook: the barrier sequence of an agreed
// membership change has committed, every certificate below it is final,
// and execution is parked exactly at the install point. Hand the change
// to the deployment's installer on a fresh goroutine — the install
// stops this very CLBFT instance, which must not happen from its own
// event loop.
func (v *voter) onHalt(seq uint64, state clbft.Digest) {
	v.mu.Lock()
	mc := v.pendingMC
	v.pendingMC = nil
	v.mu.Unlock()
	if mc == nil || v.membershipHook == nil {
		return
	}
	go v.membershipHook(mc, seq, state)
}

// handleLocalResult implements stages 4-5: the co-located driver passes
// an executor result; the voter authenticates it for the caller and step
// routes the share to the responder. It is a shell function: one clock
// reading serves the parked reads and stamps the event.
func (v *voter) handleLocalResult(reqID string, payload []byte) {
	v.mu.Lock()
	r := v.reqs.recs[reqID]
	if r == nil || !r.executing {
		v.mu.Unlock()
		v.logf("result for unknown request %s dropped", reqID)
		return
	}
	caller, pos := r.caller, r.pos
	v.mu.Unlock()
	// Fault injection: a Byzantine replica endorses a wrong result.
	switch v.fault.(type) {
	case CorruptResultFault:
		payload = append([]byte("corrupted:"), payload...)
		v.faultFired.Add(1)
	case StaleResultFault:
		payload = nil
		v.faultFired.Add(1)
	}

	// Local state now provably reflects pos: advance the read horizon.
	for {
		cur := v.execPos.Load()
		if pos <= cur || v.execPos.CompareAndSwap(cur, pos) {
			break
		}
	}
	now := time.Now()
	v.serveParked(now)

	// The endorsement tier is decided here, once, against the agreement's
	// commit horizon: a result executed ahead of the horizon (tentative
	// execution) is endorsed tentatively — callers then need a full
	// quorum of matching shares instead of f_t+1 (see VerifyBundle).
	rec, err := v.mint(reqID, caller, payload, ReplyDigest(reqID, payload), v.bft().CommittedSeq() < clbft.SeqOf(pos), pos)
	if err != nil {
		v.logf("result for %s: authenticator: %v", reqID, err)
		return
	}
	v.apply(&reqEvent{kind: inExecuted, now: uint64(now.UnixMilli()), id: reqID, reply: rec})
}

// mint makes this voter's reply share for reqID, executed at pos, under
// the current membership epoch: a reply-digest endorsement MAC'd toward
// every principal that may need to verify it. The MAC'd content includes
// the tier, the epoch and pos (see replyAuthMsg).
func (v *voter) mint(reqID, callerName string, payload []byte, digest [sha256.Size]byte, tentative bool, pos uint64) (replyRecord, error) {
	caller, err := v.registry.Lookup(callerName)
	if err != nil {
		return replyRecord{}, err
	}
	epoch := v.memEpoch.Load()
	msg := replyAuthMsg(reqID, digest, tentative, epoch, pos)
	a, err := auth.NewAuthenticator(v.ks, msg.Bytes(), caller.principals())
	msg.Free()
	return replyRecord{digest: digest, payload: payload, epoch: epoch,
		share: Share{Replica: v.index, Tentative: tentative, Auth: a}}, err
}

// onRollback is the CLBFT rollback handler: a view change revoked a
// tentative delivery. The application executor cannot un-execute — by
// the time the revocation arrives the operation's effects may already
// be embedded in later state and an endorsement may have left the host —
// so the delivery stays consumed (return false: clbft keeps it marked
// executed and never re-delivers it). Safety does not depend on undoing:
// a tentative endorsement only certifies at callers with a full quorum
// behind it, and a quorum of tentative executions survives every view
// change, so any reply actually accepted by a caller is final. A replica
// whose rolled-back suffix diverges from the re-agreed order can at
// worst endorse minority results afterwards and is outvoted.
func (v *voter) onRollback(d clbft.Delivery) bool {
	if strings.HasPrefix(d.OpID, MembershipOpPrefix) {
		// A membership change has no application side effects before its
		// install, and the install waits for the commit (onHalt) that this
		// rollback just revoked — so undoing is trivial: forget the
		// pending change and let clbft re-buffer the operation. The halt
		// lifts with the rollback and re-arms if the change is re-agreed.
		v.mu.Lock()
		v.pendingMC = nil
		v.mu.Unlock()
		v.logf("membership change %s rolled back by view change; re-buffered", d.OpID)
		return true
	}
	v.logf("tentative delivery %s at seq %d rolled back by view change", d.OpID, d.Seq)
	return false
}

// sendBundle sends a certified reply bundle to its caller's drivers.
func (v *voter) sendBundle(a *reqAction) {
	caller, err := v.registry.Lookup(a.caller)
	if err != nil {
		return
	}
	b := ReplyBundle{ReqID: a.id, Target: v.svc.Name, Payload: a.payload, Shares: a.shares, Epoch: a.epoch, Pos: a.pos}
	if bft := v.bft(); bft != nil {
		b.Primary = bft.Primary() // advisory routing hint for the callers
	}
	msg := &Message{Kind: KindReplyBundle, ReplyBundle: &b, Epoch: a.epoch}
	w := wire.GetWriter(msg.SizeHint())
	msg.EncodeTo(w)
	if err := v.adapter.SendMulti(caller.DriverIDs(), w.Bytes()); err != nil {
		v.logf("bundle for %s: %v", a.id, err)
	}
	w.Free()
}

// sendTo encodes msg and sends it to one principal.
func (v *voter) sendTo(to auth.NodeID, msg *Message) {
	w := wire.GetWriter(msg.SizeHint())
	msg.EncodeTo(w)
	if err := v.adapter.Send(to, w.Bytes()); err != nil {
		v.logf("%v to %s: %v", msg.Kind, to, err)
	}
	w.Free()
}

// setReadExec installs the application's speculative read executor
// (wired by the core layer via Replica.SetReadExecutor).
func (v *voter) setReadExec(fn func([]byte) ([]byte, error)) {
	v.readMu.Lock()
	v.readExec = fn
	v.readMu.Unlock()
	// Reads that arrived before the application installed its executor
	// sit parked as behind; serve them now instead of letting them
	// expire into Behind declines. The zero time expires nothing.
	v.serveParked(time.Time{})
}

// readParkWindow bounds how long a behind replica holds a read waiting
// for its horizon to catch up before declining. It must stay well under
// DefaultReadFallback so a genuinely stuck replica still surfaces as a
// Behind decline in time for the caller's impossibility detection, not
// as a fallback timeout.
const readParkWindow = 25 * time.Millisecond

// maxParkedReads bounds the park queue; beyond it reads decline
// immediately (a flood of unservable reads must not grow memory).
const maxParkedReads = 1024

// parkedRead is one read waiting for this replica's horizon to pass its
// lease until due, readParkWindow after it parked.
type parkedRead struct {
	from auth.NodeID
	rr   *ReadRequest
	due  time.Time
}

// readBehind reports whether local state has not yet reached the read's
// session lease. Callers hold readMu (for readExec).
func (v *voter) readBehind(rr *ReadRequest) bool {
	return v.readExec == nil || v.execPos.Load() < rr.MinSeq
}

// handleReadRequest serves the session-tier read fast path: the read
// executes speculatively against last-stable local state — no agreement,
// no authenticator (the channel MAC already proves both endpoints) — and
// the reply carries a digest-only endorsement stamped with the agreement
// position the observed state reflects. Only the caller-designated
// responder attaches the payload, mirroring the digest-only reply-share
// economy of the agreement path. A replica whose state is behind the
// caller's session lease (MinSeq) parks the read briefly — the write it
// trails is normally executed microseconds later — and declines with
// Behind only if the horizon still lags at its due time, readParkWindow
// later; the caller falls back to agreement when fewer than f_t+1
// current endorsements match. It is a shell function: a read that parks
// takes its due time from the clock.
func (v *voter) handleReadRequest(from auth.NodeID, rr *ReadRequest) {
	if rr == nil || rr.ReqID == "" || rr.Target != v.svc.Name {
		return
	}
	if from.Role != auth.RoleDriver || from.Service != rr.Caller {
		return
	}
	caller, err := v.registry.Lookup(rr.Caller)
	if err != nil || from.Index < 0 || from.Index >= caller.N {
		return
	}
	// Graceful degradation: the read fast path sheds *before* the
	// agreement path (at half the intake bound) so commit goodput
	// survives a read-heavy overload. A busy-read never triggers the
	// caller's agreement fallback — falling back would add agreement
	// load exactly when the group asked for less — it settles the read
	// as overloaded once f_t+1 voters say so (see Driver.handleBusy).
	if v.readShedAt > 0 && int(v.reqs.intakeA.Load()) >= v.readShedAt {
		v.shedReads.Add(1)
		v.sendBusy(from, rr.ReqID, false, true)
		return
	}
	_, stale := v.fault.(StaleReadFault)
	v.readMu.Lock()
	behind := !stale && v.readBehind(rr)
	if behind && len(v.parkedReads) < maxParkedReads {
		now := time.Now()
		v.parkedReads = append(v.parkedReads, parkedRead{from: from, rr: rr, due: now.Add(readParkWindow)})
		v.readMu.Unlock()
		v.serveParked(now) // hands the alarm the earliest due time
		return
	}
	v.readMu.Unlock()
	v.answerRead(from, rr)
}

// answerRead builds and sends this replica's read reply: a Behind
// decline while the horizon is short of the read's lease, otherwise an
// endorsement of the read's speculative result.
func (v *voter) answerRead(from auth.NodeID, rr *ReadRequest) {
	v.readMu.Lock()
	exec, behind := v.readExec, v.readBehind(rr)
	v.readMu.Unlock()

	rp := &ReadReply{ReqID: rr.ReqID, Replica: v.index}
	_, stale := v.fault.(StaleReadFault)
	_, corrupt := v.fault.(CorruptReadFault)
	switch {
	case stale:
		// Fault injection: a Byzantine replica claims currency while
		// serving an old (here: empty) state with a forged position.
		rp.Digest = ReplyDigest(rr.ReqID, nil)
		v.faultFired.Add(1)
	case behind:
		rp.Behind = true
	default:
		// Load the horizon *before* executing: concurrent agreement may
		// advance state mid-read, so the stamp is a safe lower bound on
		// what the read observed.
		pos := v.execPos.Load()
		out, err := exec(rr.Payload)
		if err != nil {
			rp.Behind = true
		} else {
			if corrupt {
				out = append([]byte("corrupted:"), out...)
				v.faultFired.Add(1)
			}
			rp.Seq = pos
			rp.Digest = ReplyDigest(rr.ReqID, out)
			if v.index == rr.Responder {
				rp.Payload = out
			}
		}
	}
	v.sendTo(from, &Message{Kind: KindReadReply, ReadReply: rp, Epoch: v.memEpoch.Load()})
}

// serveParked answers each parked read whose lease the horizon has
// passed or whose due time is at or before now, the latter with a Behind
// decline, and sets the alarm for the earliest due time left. The zero
// time expires nothing and leaves the alarm alone.
func (v *voter) serveParked(now time.Time) {
	v.readMu.Lock()
	var served []parkedRead
	var next time.Time
	rest := v.parkedReads[:0]
	for _, p := range v.parkedReads {
		switch {
		case !v.readBehind(p.rr), !now.Before(p.due):
			served = append(served, p)
		default:
			rest = append(rest, p)
			if next.IsZero() || p.due.Before(next) {
				next = p.due
			}
		}
	}
	v.parkedReads = rest
	if !now.IsZero() {
		v.alarm.set(next, now)
	}
	v.readMu.Unlock()
	for _, p := range served {
		v.answerRead(p.from, p.rr)
	}
}

// fire is the alarm's shell function: it stamps the fire with the time.
func (v *voter) fire() { v.serveParked(time.Now()) }

// closeReads drops the parked reads unanswered on shutdown.
func (v *voter) closeReads() {
	v.readMu.Lock()
	v.parkedReads = nil
	v.alarm.t.Stop()
	v.readMu.Unlock()
}

// handleReplyShare implements the responder's side of stage 5.
func (v *voter) handleReplyShare(from auth.NodeID, rs *ReplyShare) {
	if rs == nil || from.Service != v.svc.Name || from.Role != auth.RoleVoter || rs.Share.Replica != from.Index {
		return // shares come from this voter group only, each from its minter
	}
	v.acceptShare(from.Index, rs, false)
}

// handlePayloadFetch serves a responder that lacks (or diverged from)
// the f_t+1-endorsed reply payload: if this voter's minted reply
// matches the requested digest, it re-sends its share with the payload
// attached.
func (v *voter) handlePayloadFetch(from auth.NodeID, pf *PayloadFetch) {
	if pf == nil || from.Service != v.svc.Name || from.Role != auth.RoleVoter {
		return // only group members assemble bundles
	}
	v.apply(&reqEvent{kind: inFetch, id: pf.ReqID, digest: pf.Digest, from: from.Index})
}

// acceptShare feeds a reply share to step (stage 6). Shares are
// digest-only; own marks this voter's own share, which carries the
// payload its digest was computed from. Any other payload binds to the
// share only if it hashes to the share's digest: a faulty voter must not
// attach bytes to a digest it never computed, or every caller would
// reject the bundle.
func (v *voter) acceptShare(fromIndex int, rs *ReplyShare, own bool) {
	if fromIndex < 0 || fromIndex >= v.svc.N {
		return
	}
	v.apply(&reqEvent{kind: inShare, share: *rs, from: fromIndex, bound: own || ReplyDigest(rs.ReqID, rs.Payload) == rs.Digest,
		epoch: v.memEpoch.Load()})
}

// handleResultForward implements stage 7-8 on the calling side: a
// co-located driver group member forwards a verified bundle; the voter
// re-verifies it and proposes agreement. Reply fast-path calls never get
// here: their drivers settle them from the verified bundle directly,
// and drop any outcome agreement delivers for them (step's evBundle and
// evAgreed rows).
func (v *voter) handleResultForward(from auth.NodeID, b *ReplyBundle) {
	if b == nil || from.Service != v.svc.Name {
		return // forwards come from this service's drivers (or voters relaying)
	}
	target, err := v.registry.Lookup(b.Target)
	if err != nil {
		return
	}
	if v.isDelivered(b.ReqID) {
		return
	}
	if err := VerifyBundle(v.ks, target, b); err != nil {
		v.logf("forwarded bundle for %s rejected: %v", b.ReqID, err)
		return
	}
	op := &Op{Kind: OpReply, ReqID: b.ReqID, Target: b.Target, Payload: b.Payload, Shares: b.Shares,
		Epoch: b.Epoch, Pos: b.Pos}
	v.bft().Submit(ReplyOpID(b.ReqID), op.Encode())
}

// isDelivered reports whether an outcome of this group's own call reqID
// was agreed.
func (v *voter) isDelivered(reqID string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.delivered.Contains(reqID)
}

// proposeUtil proposes ms, the co-located driver's clock reading, for
// utility slot k. Only the current primary's proposal is ordered first;
// duplicates are deduplicated by OpID.
func (v *voter) proposeUtil(k uint64, ms int64) {
	op := &Op{Kind: OpUtil, K: k, Value: ms}
	v.bft().Submit(UtilOpID(k), op.Encode())
}

// proposeAbort proposes aborting this group's own call reqID, for the
// co-located driver when the call's timeout expires.
func (v *voter) proposeAbort(reqID string) {
	if !v.isDelivered(reqID) {
		v.bft().Submit(AbortOpID(reqID), (&Op{Kind: OpAbort, ReqID: reqID}).Encode())
	}
}

// membershipBarrier is the CLBFT barrier predicate: execution halts at
// a membership change that advances past this voter's installed epoch.
// The epoch qualifier matters for joiners and late members: a replica
// bootstrapped from a checkpoint below the install point replays the
// very operation that created its epoch during catch-up, and must
// execute it as a no-op rather than halt at it a second time.
func (v *voter) membershipBarrier(opID string) bool {
	epoch, ok := parseMembershipOpID(opID)
	return ok && epoch > v.memEpoch.Load()
}

// proposeMembership submits a membership change for agreement through
// the current epoch's quorum. The change validates at every correct
// voter (validateOp), halts execution at its own sequence number
// (membershipBarrier), and triggers the deployment's install
// hook once that sequence commits. Multiple survivors proposing the
// same change deduplicate by operation id.
func (v *voter) proposeMembership(mc *MembershipChange) {
	op := &Op{Kind: OpMembership, Payload: mc.Encode()}
	v.bft().Submit(MembershipOpID(mc.Group, mc.NewEpoch), op.Encode())
}

// onStableCheckpoint records the group's latest stable checkpoint
// sequence (clbft checkpoint hook; runs on the CLBFT event loop).
func (v *voter) onStableCheckpoint(seq uint64, _ clbft.Digest) {
	v.stableCkpt.Store(seq)
}
