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
	if f.To > r.lastExec {
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
		return // no quorum digest to verify against
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
