package clbft

import "sort"

// startViewChange abandons the current view and votes for newView. The
// timeout doubles each consecutive view change so that, per PBFT, the
// group eventually stays in a view long enough to make progress even
// under worst-case delays (the paper's liveness assumption: message
// delays do not grow faster than time).
func (r *Replica) startViewChange(newView uint64) {
	if newView <= r.view && r.inViewChange {
		return
	}
	r.logf("starting view change to %d", newView)
	// Queued commit votes still complete peers' certificates for the
	// abandoned view; flush them before the view-change vote so they
	// are not lost with the view.
	r.flushPiggy()
	r.inViewChange = true
	r.view = newView
	r.curView.Store(newView)
	r.vcCount.Add(1)
	r.vcTimeout *= 2

	vc := &ViewChange{
		NewView:    newView,
		LastStable: r.h,
		StateD:     r.certifiedCkpts[r.h],
		Prepared:   r.log.preparedAbove(r.h),
		Replica:    r.cfg.ID,
	}
	r.broadcast(&Message{Type: MsgViewChange, ViewChange: vc})
	// Wait for the new primary's new-view; if it never comes, the timer
	// pushes us to the next view.
	r.arm(timerSuspect, r.vcTimeout)
}

func (r *Replica) onViewChange(from int, vc *ViewChange) {
	if vc == nil || vc.Replica != from {
		return
	}
	if vc.NewView < r.view {
		return // stale
	}
	byReplica, ok := r.viewChanges[vc.NewView]
	if !ok {
		byReplica = make(map[int]*ViewChange)
		r.viewChanges[vc.NewView] = byReplica
	}
	byReplica[from] = vc

	// Liveness rule: if f+1 replicas vote for views above ours, join the
	// smallest such view even before our own timer fires.
	if !r.inViewChange || vc.NewView > r.view {
		if v, ok := r.smallestJoinableView(); ok && v > r.view {
			r.startViewChange(v)
		}
	}

	r.maybeAssembleNewView(vc.NewView)
}

// smallestJoinableView returns the smallest view above the current one
// for which at least f+1 distinct replicas have voted.
func (r *Replica) smallestJoinableView() (uint64, bool) {
	views := make([]uint64, 0, len(r.viewChanges))
	for v := range r.viewChanges {
		if v > r.view {
			views = append(views, v)
		}
	}
	sort.Slice(views, func(i, j int) bool { return views[i] < views[j] })
	// Count votes for "v or higher": a replica voting for view 7 also
	// justifies joining view 5 (it has abandoned everything below 7)?
	// No: PBFT counts votes per target view, but a set of f+1 votes for
	// *any* views greater than ours proves at least one correct replica
	// left our view; we then join the smallest view in that set.
	total := 0
	voted := make(map[int]struct{})
	for _, v := range views {
		for rep := range r.viewChanges[v] {
			if _, seen := voted[rep]; !seen {
				voted[rep] = struct{}{}
				total++
			}
		}
	}
	if total < r.cfg.WeakQuorum() {
		return 0, false
	}
	return views[0], true
}

// maybeAssembleNewView lets the would-be primary of view v broadcast a
// new-view certificate once it holds a quorum of view-change votes.
func (r *Replica) maybeAssembleNewView(v uint64) {
	if v != r.view || !r.inViewChange {
		return
	}
	if r.cfg.PrimaryOf(v) != r.cfg.ID {
		return
	}
	votes := r.viewChanges[v]
	if len(votes) < r.cfg.Quorum() {
		return
	}
	vcs := make([]ViewChange, 0, len(votes))
	reps := make([]int, 0, len(votes))
	for rep := range votes {
		reps = append(reps, rep)
	}
	sort.Ints(reps)
	for _, rep := range reps {
		vcs = append(vcs, *votes[rep])
	}
	pps := computeNewViewPrePrepares(v, vcs)
	nv := &NewView{View: v, ViewChanges: vcs, PrePrepares: pps}
	r.logf("assembling new-view %d with %d pre-prepares", v, len(pps))
	r.broadcast(&Message{Type: MsgNewView, NewView: nv})
}

// computeNewViewPrePrepares derives the deterministic set of
// pre-prepares for the new view from a quorum of view-change messages:
// for every sequence number between the highest stable checkpoint and
// the highest prepared sequence, re-propose the prepared request from
// the highest view, or a null request if none was prepared.
func computeNewViewPrePrepares(v uint64, vcs []ViewChange) []PrePrepare {
	var minS, maxS uint64
	for i := range vcs {
		if vcs[i].LastStable > minS {
			minS = vcs[i].LastStable
		}
		for _, p := range vcs[i].Prepared {
			if p.Seq > maxS {
				maxS = p.Seq
			}
		}
	}
	if maxS < minS {
		maxS = minS
	}
	best := make(map[uint64]*PreparedEntry)
	for i := range vcs {
		for j := range vcs[i].Prepared {
			p := &vcs[i].Prepared[j]
			if p.Seq <= minS {
				continue
			}
			if cur, ok := best[p.Seq]; !ok || p.View > cur.View {
				best[p.Seq] = p
			}
		}
	}
	pps := make([]PrePrepare, 0, maxS-minS)
	for seq := minS + 1; seq <= maxS; seq++ {
		if p, ok := best[seq]; ok {
			pps = append(pps, PrePrepare{View: v, Seq: seq, Digest: p.Digest, Request: p.Request})
		} else {
			pps = append(pps, PrePrepare{View: v, Seq: seq, Digest: Digest{}, Request: *NullRequest()})
		}
	}
	return pps
}

func (r *Replica) onNewView(from int, nv *NewView) {
	if nv == nil || nv.View < r.view {
		return
	}
	if nv.View == r.view && !r.inViewChange {
		return // duplicate: the view is already installed
	}
	if from != r.cfg.PrimaryOf(nv.View) {
		return
	}
	if !r.validateNewView(nv) {
		r.logf("rejecting invalid new-view %d from %d", nv.View, from)
		return
	}
	r.enterNewView(nv)
}

// validateNewView checks a new-view certificate: a quorum of distinct,
// well-formed view-change votes for the view, and pre-prepares exactly
// matching the deterministic recomputation from those votes.
func (r *Replica) validateNewView(nv *NewView) bool {
	seen := make(map[int]struct{})
	for i := range nv.ViewChanges {
		vc := &nv.ViewChanges[i]
		if vc.NewView != nv.View {
			return false
		}
		if vc.Replica < 0 || vc.Replica >= r.cfg.N {
			return false
		}
		if _, dup := seen[vc.Replica]; dup {
			return false
		}
		seen[vc.Replica] = struct{}{}
		for j := range vc.Prepared {
			p := &vc.Prepared[j]
			wantDigest := p.Request.Digest()
			if p.Request.IsNull() {
				wantDigest = Digest{}
			}
			if p.Digest != wantDigest {
				return false // claimed digest must match carried request
			}
		}
	}
	if len(seen) < r.cfg.Quorum() {
		return false
	}
	want := computeNewViewPrePrepares(nv.View, nv.ViewChanges)
	if len(want) != len(nv.PrePrepares) {
		return false
	}
	for i := range want {
		got := &nv.PrePrepares[i]
		if got.View != want[i].View || got.Seq != want[i].Seq || got.Digest != want[i].Digest {
			return false
		}
	}
	return true
}

// enterNewView installs the new view and replays its pre-prepares.
func (r *Replica) enterNewView(nv *NewView) {
	r.logf("entering view %d", nv.View)
	r.view = nv.View
	r.curView.Store(nv.View)
	r.inViewChange = false
	r.vcTimeout = r.cfg.ViewChangeTimeout // progress: reset backoff
	r.disarm(timerSuspect)

	// Adopt the certificate's stable checkpoint bound for proposal
	// numbering. (Execution state catches up via the fetch protocol if
	// this replica lagged.)
	var minS uint64
	for i := range nv.ViewChanges {
		if nv.ViewChanges[i].LastStable > minS {
			minS = nv.ViewChanges[i].LastStable
		}
	}
	if r.seqCounter < minS {
		r.seqCounter = minS
	}
	maxSeq := minS
	for i := range nv.PrePrepares {
		if nv.PrePrepares[i].Seq > maxSeq {
			maxSeq = nv.PrePrepares[i].Seq
		}
	}
	if r.seqCounter < maxSeq {
		r.seqCounter = maxSeq
	}

	// Tentative executions the new view does not re-propose unchanged
	// are revoked before the replay: their prepared certificates did
	// not survive into the new view, so other replicas may order
	// different requests at those sequence numbers.
	r.rollbackTentative(nv, minS)

	// Replay the re-proposed pre-prepares through the normal path. Each
	// replica (including the new primary) records them; backups emit
	// prepares.
	for i := range nv.PrePrepares {
		pp := nv.PrePrepares[i]
		if pp.Seq <= r.lastExec {
			// Already executed here — committed, or tentatively with a
			// matching digest (it survived rollbackTentative). Re-run
			// agreement in the new view even for committed sequences:
			// a lagging peer that missed the original pre-prepares can
			// only form its certificates from the prepares the rest of
			// the group emits during this replay (its catch-up may have
			// no certified checkpoint to target when crashed replicas
			// leave it inside every would-be checkpoint quorum). Only
			// re-delivery is suppressed: the application already saw
			// the operation.
			r.onPrePrepare(r.cfg.PrimaryOf(nv.View), &pp)
			if e, ok := r.log.at(pp.Seq); ok && e.prePrepared && !e.executed {
				r.log.markExecuted(e)
			}
			continue
		}
		r.onPrePrepare(r.cfg.PrimaryOf(nv.View), &pp)
	}
	// Kept tentative entries may already satisfy the committed-horizon
	// condition (executed + committed via the replayed certificates).
	r.executeReady()

	// Re-introduce pending requests in the new view.
	if r.isPrimaryLocked() {
		r.proposePending()
	} else {
		r.forwardPending()
	}
	r.armTimer()
	r.viewChangesGC()
}

// rollbackTentative revokes tentative executions the new view does not
// re-propose with the same request; minS is its certificate's stable
// checkpoint bound. Because an operation executes tentatively only when
// everything below it has committed, the tentative suffix is at most one
// sequence number; committed executions always survive (their commit
// certificate proves a quorum prepared them, so every new-view
// certificate re-proposes them unchanged).
func (r *Replica) rollbackTentative(nv *NewView, minS uint64) {
	if !r.cfg.Tentative || r.lastExec <= r.lastCommitted {
		return
	}
	keep := r.lastExec
	for seq := r.lastCommitted + 1; seq <= r.lastExec; seq++ {
		if seq <= minS {
			continue // globally stable history; certificates guarantee same request
		}
		var want Digest
		reproposed := false
		for i := range nv.PrePrepares {
			if nv.PrePrepares[i].Seq == seq {
				want = nv.PrePrepares[i].Digest
				reproposed = true
				break
			}
		}
		var got Digest
		if req, ok := r.execCache[seq]; ok {
			got = req.Digest()
		}
		// A sequence number beyond the certificate's range is about to
		// be reassigned to fresh proposals; it must roll back even if
		// our execution there was a null gap fill.
		if !reproposed || want != got {
			keep = seq - 1
			break
		}
	}
	if keep >= r.lastExec {
		return
	}
	r.logf("rolling back tentative executions %d..%d for view %d", keep+1, r.lastExec, nv.View)
	for seq := r.lastExec; seq > keep; seq-- {
		if req, ok := r.execCache[seq]; ok {
			r.undoExecution(seq, req)
			delete(r.execCache, seq)
		}
		delete(r.chainAt, seq)
		r.rollbacks.Add(1)
	}
	r.lastExec = keep
	r.execSeq.Store(keep)
	if r.haltAt != 0 && r.haltAt > keep {
		// The membership barrier's tentative execution was revoked: lift
		// the halt. If the application undid the operation it is
		// re-buffered and the halt re-arms when it is re-agreed.
		r.haltAt = 0
		r.haltFired = false
		r.haltA.Store(0)
	}
	if d, ok := r.chainAt[keep]; ok {
		r.stateDigest = d
	} else {
		r.stateDigest = Digest{} // keep == 0: initial state
	}
}

// undoExecution revokes the deliveries of one rolled-back sequence
// number, newest-first within a batch.
func (r *Replica) undoExecution(seq uint64, req *Request) {
	if isBatch(req) {
		delete(r.executedOps, req.OpID)
	}
	ops := carriedOps(req)
	for i := len(ops) - 1; i >= 0; i-- {
		op := &ops[i].Request
		if at, ok := r.executedOps[op.OpID]; !ok || at != seq {
			continue // executed under an earlier sequence number: not ours to undo
		}
		r.undoOne(seq, op)
	}
}

// undoOne runs the application's rollback handler for one revoked
// delivery. If the application undid the operation it is forgotten and
// re-buffered for re-proposal (it will be validated and re-delivered at
// its new position); otherwise it stays marked executed so it is never
// delivered twice.
func (r *Replica) undoOne(seq uint64, req *Request) {
	undone := false
	if r.rollback != nil {
		undone = r.rollback(Delivery{Seq: seq, OpID: req.OpID, Op: req.Op, Tentative: true})
	}
	if !undone {
		return
	}
	delete(r.executedOps, req.OpID)
	r.execCount.Add(^uint64(0))
	if _, dup := r.pending[req.OpID]; !dup {
		r.pending[req.OpID] = &pendingReq{req: &Request{OpID: req.OpID, Op: req.Op}}
		r.pendingOrder = append(r.pendingOrder, req.OpID)
		r.pubPendingLen()
	}
}

// viewChangesGC drops vote sets for views at or below the current view.
func (r *Replica) viewChangesGC() {
	for v := range r.viewChanges {
		if v <= r.view {
			delete(r.viewChanges, v)
		}
	}
}
