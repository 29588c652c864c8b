package clbft

import "slices"

// vote records one replica's prepare or commit vote: the digest it
// claimed. Votes are kept in fixed slices indexed by replica — group
// sizes are small and known, so per-entry maps would only feed the
// garbage collector.
type vote struct {
	set bool
	d   Digest
}

// entry tracks the protocol state of one sequence number in one view.
// Entries live in the replica's message log between the low watermark
// and execution + checkpoint garbage collection.
//
// Prepare and commit votes record the digest each voter claimed: votes
// are only counted toward certificates when they match the pre-prepared
// digest, so a Byzantine replica cannot inflate a certificate by voting
// early with an arbitrary digest.
type entry struct {
	view uint64
	seq  uint64
	// digest, request and ops are what Replica.accept computed when the
	// pre-prepare was taken in: the request's digest, and the operations
	// it carries (itself, or its batch's entries) with their parsed
	// values. Execution, the primary's double-assignment check and
	// view-change certificates all read them here instead of hashing or
	// decoding the request again.
	digest  Digest
	request *Request
	ops     []agreedOp

	prePrepared bool
	prepares    []vote // indexed by backup replica
	commits     []vote // indexed by replica

	prepared   bool
	committed  bool
	executed   bool
	sentCommit bool
}

func newEntry(view, seq uint64, n int) *entry {
	votes := make([]vote, 2*n) // one allocation for both vote vectors
	return &entry{
		view:     view,
		seq:      seq,
		prepares: votes[:n:n],
		commits:  votes[n:],
	}
}

// setPrepare records replica from's prepare vote for digest d.
func (e *entry) setPrepare(from int, d Digest) { e.prepares[from] = vote{set: true, d: d} }

// setCommit records replica from's commit vote for digest d.
func (e *entry) setCommit(from int, d Digest) { e.commits[from] = vote{set: true, d: d} }

// matchingPrepares counts prepare votes that match the pre-prepared
// digest. Meaningless before the pre-prepare fixes the digest.
func (e *entry) matchingPrepares() int {
	n := 0
	for i := range e.prepares {
		if e.prepares[i].set && e.prepares[i].d == e.digest {
			n++
		}
	}
	return n
}

// matchingCommits counts commit votes that match the pre-prepared
// digest.
func (e *entry) matchingCommits() int {
	n := 0
	for i := range e.commits {
		if e.commits[i].set && e.commits[i].d == e.digest {
			n++
		}
	}
	return n
}

// live reports whether the entry represents accepted-but-unexecuted
// work (the replica is waiting for its agreement or execution).
func (e *entry) live() bool { return e.prePrepared && !e.executed }

// msgLog is the replica's bounded message log keyed by sequence number.
// Only one entry per sequence number is tracked for the current view;
// entries from superseded views are replaced during view changes.
//
// live lists the live entries (pre-prepared, not yet executed), oldest
// acceptance first. The suspicion timer asks on every execution whether
// there are any, and the primary asks for every buffered operation
// whether one of them already carries it; scanning the whole window for
// either would turn the hot execute and propose loops quadratic in it.
// Execution is in sequence order, so the entry leaving is normally the
// first.
type msgLog struct {
	n       int
	entries map[uint64]*entry
	live    []*entry
	// preparedHist keeps, per sequence number, the prepared certificate
	// from the highest view in which that sequence prepared. Entries in
	// the log proper are replaced when a new-view replays their sequence
	// numbers, which resets their certificates — but a view change that
	// interrupts the replay must still advertise the old certificate, or
	// the next new-view would drop a prepared (possibly tentatively
	// executed) suffix and force a rollback the protocol did not require.
	// This is the P-set retention rule of PBFT view changes. Pruned at
	// stable checkpoints alongside the entries.
	preparedHist map[uint64]PreparedEntry
}

func newMsgLog(n int) *msgLog {
	return &msgLog{
		n:            n,
		entries:      make(map[uint64]*entry),
		preparedHist: make(map[uint64]PreparedEntry),
	}
}

// get returns the entry for (view, seq), creating it if absent. An entry
// recorded in an older view is replaced: its certificates are
// meaningless in the new view.
func (l *msgLog) get(view, seq uint64) *entry {
	e, ok := l.entries[seq]
	if !ok || e.view < view {
		if ok {
			l.dropLive(e)
		}
		e = newEntry(view, seq, l.n)
		l.entries[seq] = e
	}
	return e
}

// prePrepare records the accepted pre-prepare on its entry: the request
// with the digest and operations accept computed for it.
func (l *msgLog) prePrepare(e *entry, req *Request, digest Digest, ops []agreedOp) {
	e.request, e.digest, e.ops = req, digest, ops
	if !e.prePrepared {
		e.prePrepared = true
		if e.live() {
			l.live = append(l.live, e)
		}
	}
}

// markExecuted transitions an entry to executed.
func (l *msgLog) markExecuted(e *entry) {
	if !e.executed {
		l.dropLive(e)
		e.executed = true
	}
}

// dropLive takes e off the live list if it is on it, keeping the order.
func (l *msgLog) dropLive(e *entry) {
	if !e.live() {
		return
	}
	if i := slices.Index(l.live, e); i >= 0 {
		l.live = slices.Delete(l.live, i, i+1)
	}
}

// at returns the entry at seq regardless of view.
func (l *msgLog) at(seq uint64) (*entry, bool) {
	e, ok := l.entries[seq]
	return e, ok
}

// recordPrepared remembers an entry's prepared certificate, keeping the
// highest-view certificate per sequence number across entry
// replacement.
func (l *msgLog) recordPrepared(e *entry) {
	if e.request == nil {
		return
	}
	if cur, ok := l.preparedHist[e.seq]; ok && cur.View >= e.view {
		return
	}
	l.preparedHist[e.seq] = PreparedEntry{
		View:    e.view,
		Seq:     e.seq,
		Digest:  e.digest,
		Request: *e.request,
	}
}

// truncate removes all entries with seq <= stable (covered by a stable
// checkpoint).
func (l *msgLog) truncate(stable uint64) {
	for seq := range l.entries {
		if seq <= stable {
			delete(l.entries, seq)
		}
	}
	l.live = slices.DeleteFunc(l.live, func(e *entry) bool { return e.seq <= stable })
	for seq := range l.preparedHist {
		if seq <= stable {
			delete(l.preparedHist, seq)
		}
	}
}

// hasLive reports whether any entry is pre-prepared but unexecuted.
func (l *msgLog) hasLive() bool { return len(l.live) > 0 }

// hasLiveOp reports whether some live log entry of the given view
// carries the given OpID (directly or inside a batch); used by the
// primary to avoid assigning two sequence numbers to one operation.
// Entries from superseded views do not count: their agreement rounds
// can never complete (no replica will vote in an old view again), so an
// op stranded in one must be re-proposed at a fresh sequence number or
// it would stay pending — and keep the suspicion timer armed — forever.
func (l *msgLog) hasLiveOp(view uint64, opID string) bool {
	for _, e := range l.live {
		if e.view != view {
			continue
		}
		if e.request.OpID == opID {
			return true
		}
		for i := range e.ops {
			if e.ops[i].OpID == opID {
				return true
			}
		}
	}
	return false
}

// preparedAbove collects prepared certificates with seq > stable, for
// inclusion in a view-change message. It reads the retained history —
// every prepared transition is recorded there — so certificates survive
// the entry replacement done by new-view replays.
func (l *msgLog) preparedAbove(stable uint64) []PreparedEntry {
	var out []PreparedEntry
	for seq, p := range l.preparedHist {
		if seq <= stable {
			continue
		}
		out = append(out, p)
	}
	return out
}
