package clbft

// Membership bootstrap: a voter group replaces one member's incarnation
// by agreeing a membership operation through the group's quorum (the
// embedder marks it via WithBarrier), halting execution at that
// operation's sequence number, and rebuilding every member's replica
// instance from a Bootstrap snapshot once the halted sequence number
// commits (see WithHaltHook). The group's size never changes. Rebuilding
// abandons all in-flight certificates above the barrier uniformly
// (their requests stay pending and are re-agreed in the rebuilt group),
// and the new instance starts from a self-consistent (seq, state
// digest) pair that every surviving member exports identically.
//
// A joining replica has no history to export. It starts from a
// JoinBootstrap instead: the agreed (seq, digest) pair seeds a certified
// checkpoint, and the existing fetch protocol replays retained history
// from peers, rebuilding both the digest chain and the application's
// state through the normal delivery path. Until it reaches the seed
// sequence number the joiner is catch-up-only: it records protocol
// messages but emits no prepare or commit votes and proposes nothing
// (ViewChange votes excepted — a joiner must still help the group leave
// a dead view). History deeper than the peers' retention window cannot
// be replayed; such joiners adopt the checkpoint position directly
// (Bootstrap with no History), which is safe for the agreement layer —
// the digest is quorum-backed — but leaves application state to an
// application-level transfer.

// Bootstrap is the state a replica instance resumes from at a
// membership boundary.
type Bootstrap struct {
	// Seq is the install point: the last sequence number executed in
	// the previous incarnation (the membership operation's own seq).
	Seq uint64
	// StateDigest is the digest chain value at Seq.
	StateDigest Digest
	// InitialView is the view the new incarnation starts in. Members
	// must agree on it; membership installs derive it deterministically
	// from the change so the first primary is never the replica being
	// replaced.
	InitialView uint64
	// History holds retained executed operations at sequence numbers
	// <= Seq, ascending — the catch-up cache carried across the
	// boundary so the new group can still serve joiners.
	History []FetchedOp
	// Executed carries operation-ID deduplication state (opID -> seq)
	// so re-submitted pre-boundary operations are not executed twice.
	Executed map[string]uint64
	// Pending carries buffered-but-unordered requests; they are
	// re-proposed in the new group.
	Pending []Request
	// StableSeq/StableDigest are the latest quorum-certified checkpoint
	// at or below Seq (0 when none): the position a joining replica
	// adopts before fetching the remainder, since peers are only
	// guaranteed to retain replayable history above their last stable
	// checkpoint.
	StableSeq    uint64
	StableDigest Digest
	// CatchUpSeq/CatchUpDigest (when CatchUpSeq > Seq) seed a
	// quorum-certified position ahead of the restore point: the replica
	// resumes at Seq and then replays (Seq, CatchUpSeq] from peers via
	// the fetch protocol before voting. A joiner is the Seq == 0 case; a
	// member that had not yet executed the membership barrier when the
	// group rebuilt restores its own position and fetches only the gap.
	CatchUpSeq    uint64
	CatchUpDigest Digest
}

// ExportBootstrap snapshots the replica's state for a membership
// rebuild. The replica must be stopped first; calling it on a running
// replica returns nil (the event loop owns this state).
func (r *Replica) ExportBootstrap() *Bootstrap {
	select {
	case <-r.stopped:
	default:
		return nil
	}
	seq := r.lastExec
	if r.haltAt != 0 && r.haltAt < seq {
		seq = r.haltAt // defensive: execution never passes the barrier
	}
	state := r.stateDigest
	if seq != r.lastExec {
		state = r.chainAt[seq]
	}
	bs := &Bootstrap{Seq: seq, StateDigest: state, Executed: make(map[string]uint64)}
	for s, dg := range r.certifiedCkpts {
		if s <= seq && s > bs.StableSeq {
			bs.StableSeq, bs.StableDigest = s, dg
		}
	}
	for s := uint64(1); s <= seq; s++ {
		if req, ok := r.execCache[s]; ok {
			bs.History = append(bs.History, FetchedOp{Seq: s, Request: *req})
		}
	}
	for id, s := range r.executedOps {
		if s <= seq {
			bs.Executed[id] = s
		}
	}
	for _, opID := range r.pendingOrder {
		if p, ok := r.pending[opID]; ok {
			bs.Pending = append(bs.Pending, *p.req)
		}
	}
	// In-flight ordering work above the export point dies with this
	// instance (its certificates are meaningless under a new roster).
	// Re-buffer those requests so the rebuilt group re-agrees them
	// immediately instead of waiting out the callers' retransmission
	// timers.
	seen := make(map[string]bool, len(bs.Pending))
	for i := range bs.Pending {
		seen[bs.Pending[i].OpID] = true
	}
	for s, e := range r.log.entries {
		if s <= seq || e.executed || e.request == nil || e.request.IsNull() {
			continue
		}
		req := *e.request
		if _, done := r.executedOps[req.OpID]; done || seen[req.OpID] {
			continue
		}
		seen[req.OpID] = true
		bs.Pending = append(bs.Pending, req)
	}
	return bs
}

// NewFromBootstrap creates a replica resuming from bs: watermark,
// execution point, and catch-up cache restored to bs.Seq (an empty
// History adopts the position without replayable history), then — when
// bs.CatchUpSeq runs ahead — the gap up to the certified catch-up
// point is fetched from peers before the replica votes. A joiner is
// simply a Bootstrap with Seq 0 and a catch-up target.
func NewFromBootstrap(cfg Config, transport Transport, deliver func(Delivery), bs *Bootstrap, opts ...Option) (*Replica, error) {
	r, err := New(cfg, transport, deliver, opts...)
	if err != nil {
		return nil, err
	}
	if bs == nil {
		return r, nil
	}
	r.view = bs.InitialView
	r.curView.Store(bs.InitialView)
	r.h = bs.Seq
	r.lastExec = bs.Seq
	r.lastCommitted = bs.Seq
	r.seqCounter = bs.Seq
	r.stateDigest = bs.StateDigest
	if bs.Seq > 0 {
		r.chainAt[bs.Seq] = bs.StateDigest
		r.certifiedCkpts[bs.Seq] = bs.StateDigest
	}
	r.execSeq.Store(bs.Seq)
	r.commitSeq.Store(bs.Seq)
	if bs.CatchUpSeq > bs.Seq {
		r.certifiedCkpts[bs.CatchUpSeq] = bs.CatchUpDigest
		r.joinTarget = bs.CatchUpSeq
		r.joinA.Store(bs.CatchUpSeq)
	}
	for i := range bs.History {
		op := &bs.History[i]
		if op.Seq == 0 || op.Seq > bs.Seq || op.Request.IsNull() {
			continue
		}
		req := op.Request
		r.execCache[op.Seq] = &req
	}
	for id, s := range bs.Executed {
		if s <= bs.Seq {
			r.executedOps[id] = s
		}
	}
	for i := range bs.Pending {
		req := bs.Pending[i]
		if req.IsNull() {
			continue
		}
		if _, done := r.executedOps[req.OpID]; done {
			continue
		}
		if _, dup := r.pending[req.OpID]; dup {
			continue
		}
		// Not validated: whatever verdict the previous incarnation reached
		// was under the previous epoch's keys.
		r.pending[req.OpID] = &pendingReq{req: &req}
		r.pendingOrder = append(r.pendingOrder, req.OpID)
	}
	r.pubPendingLen()
	return r, nil
}

// JoinBootstrap builds the Bootstrap a joining replica starts from: the
// agreed install point and state digest, with history to be fetched
// from peers.
func JoinBootstrap(seq uint64, state Digest, view uint64) *Bootstrap {
	return &Bootstrap{InitialView: view, CatchUpSeq: seq, CatchUpDigest: state}
}

// joining reports whether the replica is still replaying history toward
// its join target; a joining replica emits no agreement votes.
func (r *Replica) joining() bool {
	return r.joinTarget != 0 && r.lastExec < r.joinTarget
}

// joinProgress clears the join gate once execution reaches the target.
func (r *Replica) joinProgress() {
	if r.joinTarget != 0 && r.lastExec >= r.joinTarget {
		r.joinTarget = 0
		r.joinA.Store(0)
	}
}

// JoinTarget returns the sequence number this replica must replay to
// before it votes, or 0 once caught up (or if it never joined).
func (r *Replica) JoinTarget() uint64 { return r.joinA.Load() }

// HaltedAt returns the barrier sequence number execution is halted at
// (0 when not halted).
func (r *Replica) HaltedAt() uint64 { return r.haltA.Load() }

// start handles evStart, the first event: a joiner opens its catch-up
// fetch, and requests carried across a membership boundary are
// re-proposed (primary) or re-forwarded. For plain New it does nothing.
func (r *Replica) start() {
	r.joinFetch()
	if len(r.pendingOrder) > 0 {
		if r.isPrimaryLocked() && !r.inViewChange {
			r.proposePending()
		} else if !r.joining() {
			r.forwardPending()
		}
		r.armTimer()
	}
}

// joinFetch asks peers for the history a joiner lacks and arms the join
// timer to ask again, since fetches ride an unreliable transport and may
// be dropped. A replica that is not joining does nothing.
func (r *Replica) joinFetch() {
	if !r.joining() {
		return
	}
	r.requestCatchUp(r.joinTarget)
	r.arm(timerJoin, r.cfg.ViewChangeTimeout/2)
}
