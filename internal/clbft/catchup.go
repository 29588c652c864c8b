package clbft

// Catch-up ("fetch") protocol: a replica that learns of a
// quorum-certified checkpoint beyond its own execution point asks peers
// for the missing operations and verifies the fetched history against
// the certified state digest chain before applying it. This is the
// garbage-collection-compatible state transfer described for Perpetual
// (paper Section 2.1.1 note 5: fault handling, checkpoint generation,
// and garbage collection); peers serve from a bounded retention cache,
// so replicas that fall behind by more than retentionWindows log windows
// require application-level state transfer, which the Perpetual layer
// avoids by keeping groups within a window of each other.

// FetchedOp is one executed operation served to a lagging replica.
type FetchedOp struct {
	Seq     uint64
	Request Request
}

// Fetch asks a peer for executed operations in (From, To].
type Fetch struct {
	From    uint64
	To      uint64
	Replica int
}

// FetchReply returns the requested operations in sequence order. Null
// operations appear with empty requests so the digest chain stays
// verifiable.
type FetchReply struct {
	From uint64
	To   uint64
	Ops  []FetchedOp
}

// requestCatchUp asks up to f+1 peers for history up to the certified
// checkpoint at seq. Asking f+1 guarantees at least one correct peer.
func (r *Replica) requestCatchUp(seq uint64) {
	if seq <= r.lastExec {
		return
	}
	f := &Fetch{From: r.lastExec, To: seq, Replica: r.cfg.ID}
	m := &Message{Type: MsgFetch, Fetch: f}
	tos := r.others
	if len(tos) > r.cfg.WeakQuorum() {
		tos = tos[:r.cfg.WeakQuorum()]
	}
	r.multicastTo(tos, m)
}

// onFetch serves history from the retention cache. Sequence numbers the
// server has executed but whose requests were null (gap fills) are served
// as null entries.
func (r *Replica) onFetch(from int, f *Fetch) {
	if f == nil || f.Replica != from || f.To <= f.From {
		return
	}
	// History a certified checkpoint covers is verified by the fetcher
	// against that checkpoint; anything else is served only as far as it
	// committed here, since a probe (onProbeReply) takes it on f+1 word.
	limit := r.lastCommitted
	if _, certified := r.certifiedCkpts[f.To]; certified {
		limit = r.lastExec
	}
	if f.To > limit {
		return // cannot serve what we have not executed
	}
	const maxFetchBatch = 4096
	if f.To-f.From > maxFetchBatch {
		return // oversized request: likely hostile
	}
	ops := make([]FetchedOp, 0, f.To-f.From)
	for seq := f.From + 1; seq <= f.To; seq++ {
		if req, ok := r.execCache[seq]; ok {
			ops = append(ops, FetchedOp{Seq: seq, Request: *req})
		} else {
			// Either a null gap fill or outside the retention window. A
			// null entry keeps the chain shape; if it is wrong the digest
			// check at the fetcher rejects the whole reply.
			ops = append(ops, FetchedOp{Seq: seq, Request: *NullRequest()})
		}
	}
	reply := &FetchReply{From: f.From, To: f.To, Ops: ops}
	r.transport.Send(from, &Message{Type: MsgFetchReply, FetchReply: reply})
}

// onFetchReply verifies fetched history against the certified checkpoint
// digest and applies it. A reply that fails verification is discarded;
// other peers' replies may still succeed.
func (r *Replica) onFetchReply(from int, fr *FetchReply) {
	if fr == nil || fr.From != r.lastExec || fr.To <= r.lastExec {
		return
	}
	want, certified := r.certifiedCkpts[fr.To]
	if !certified {
		r.onProbeReply(from, fr) // no quorum digest to verify against
		return
	}
	if uint64(len(fr.Ops)) != fr.To-fr.From {
		return
	}
	// Recompute the digest chain over the fetched operations, keeping
	// each request's digest for its application below.
	d := r.stateDigest
	reqDigests := make([]Digest, len(fr.Ops))
	for i := range fr.Ops {
		op := &fr.Ops[i]
		seq := fr.From + uint64(i) + 1
		if op.Seq != seq {
			return
		}
		if !op.Request.IsNull() {
			reqDigests[i] = op.Request.Digest()
		}
		d = chainDigest(d, seq, reqDigests[i])
	}
	if d != want {
		r.logf("fetch reply from %d failed digest verification", from)
		return
	}
	// Verified: apply in order through the normal execution path. The
	// operations are certified by the checkpoint quorum, not validated
	// here, so they are delivered without a parsed value.
	r.logf("catching up %d..%d from %d", fr.From+1, fr.To, from)
	for i := range fr.Ops {
		op := &fr.Ops[i]
		if e, ok := r.log.at(op.Seq); ok {
			r.log.markExecuted(e)
		}
		r.lastExec = op.Seq
		req := op.Request
		r.applyOp(op.Seq, &req, reqDigests[i], carriedOps(&req), false)
	}
	r.stabilize(fr.To)
	// More history may already be certified beyond this point.
	for seq := range r.certifiedCkpts {
		if seq > r.lastExec {
			r.requestCatchUp(seq)
			break
		}
	}
	r.executeReady()
}

// peerVotedNext reports whether another replica has voted, in the
// current view, on the sequence number this replica executes next: the
// view is then making progress without it, or at worst its primary is
// faulty and the probe costs one timeout.
func (r *Replica) peerVotedNext() bool {
	e, ok := r.log.at(r.lastExec + 1)
	if !ok || e.view != r.view || e.executed {
		return false
	}
	for i := 0; i < r.cfg.N; i++ {
		if i == r.cfg.ID {
			continue
		}
		if e.prepares[i].set || e.commits[i].set || (e.prePrepared && i == r.cfg.PrimaryOf(e.view)) {
			return true
		}
	}
	return false
}

// probe asks every peer for the request committed at the next sequence
// number. A message dropped while that sequence number lay above this
// replica's high watermark is never resent, so without the probe the
// replica would wait for votes that cannot come and leave the view
// alone.
func (r *Replica) probe() {
	r.probeSeq = r.lastExec + 1
	r.probeReplies = make(map[int]Digest, len(r.others))
	r.multicastOthers(&Message{Type: MsgFetch, Fetch: &Fetch{From: r.lastExec, To: r.probeSeq, Replica: r.cfg.ID}})
}

// onProbeReply counts a peer's answer to the probe. A peer serves only
// requests it committed, so f+1 matching answers include a correct
// replica's and prove the request committed at the probed sequence
// number: the log entry there takes it as committed and executes
// through the normal path. A null answer proves nothing — peers serve
// a sequence number outside their cache as null.
func (r *Replica) onProbeReply(from int, fr *FetchReply) {
	if fr.To != r.probeSeq || len(fr.Ops) != 1 || fr.Ops[0].Seq != fr.To || r.inViewChange {
		return
	}
	req := fr.Ops[0].Request
	if req.IsNull() {
		return
	}
	d := req.Digest()
	r.probeReplies[from] = d
	matching := 0
	for _, got := range r.probeReplies {
		if got == d {
			matching++
		}
	}
	if matching < r.cfg.WeakQuorum() {
		return
	}
	e, ok := r.log.at(fr.To)
	if !ok || e.view != r.view || (e.prePrepared && e.digest != d) {
		return
	}
	r.logf("probe: %d peers report %d committed", matching, fr.To)
	if !e.prePrepared {
		r.log.prePrepare(e, &req, d, carriedOps(&req))
	}
	e.prepared, e.committed = true, true
	r.executeReady()
}
