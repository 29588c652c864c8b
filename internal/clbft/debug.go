package clbft

import (
	"cmp"
	"slices"
)

// DebugState is a consistent snapshot of a replica's protocol state,
// taken on the event-loop goroutine. It exists for tests and operational
// introspection; production code paths do not depend on it.
type DebugState struct {
	View         uint64
	InViewChange bool
	LowWatermark uint64
	LastExec     uint64
	LogLen       int
	PendingLen   int
	StateDigest  Digest
	Entries      []DebugEntry // the log's entries, by sequence number
}

// DebugEntry is one message-log entry: its position, whether its
// pre-prepare was taken in, and its prepare and commit votes — those
// matching the pre-prepared digest once there is one, all before.
type DebugEntry struct {
	Seq, View         uint64
	PrePrepared       bool
	Prepares, Commits int
}

type debugRequest struct {
	reply chan DebugState
}

// DebugState returns a snapshot of internal state. It blocks until the
// event loop services the request; on a stopped replica it returns the
// zero value.
func (r *Replica) DebugState() DebugState {
	req := debugRequest{reply: make(chan DebugState, 1)}
	if !r.inbox.Put(event{kind: evDebug, debug: &req}, false) {
		return DebugState{}
	}
	select {
	case st := <-req.reply:
		return st
	case <-r.stopped:
		return DebugState{}
	}
}

func (r *Replica) onDebug(req *debugRequest) {
	entries := make([]DebugEntry, 0, len(r.log.entries))
	for _, e := range r.log.entries {
		entries = append(entries, DebugEntry{Seq: e.seq, View: e.view, PrePrepared: e.prePrepared,
			Prepares: e.debugVotes(e.prepares), Commits: e.debugVotes(e.commits)})
	}
	slices.SortFunc(entries, func(a, b DebugEntry) int { return cmp.Compare(a.Seq, b.Seq) })
	req.reply <- DebugState{
		View:         r.view,
		InViewChange: r.inViewChange,
		LowWatermark: r.h,
		LastExec:     r.lastExec,
		LogLen:       len(r.log.entries),
		PendingLen:   len(r.pending),
		StateDigest:  r.stateDigest,
		Entries:      entries,
	}
}

// debugVotes counts the votes in vs that DebugEntry reports.
func (e *entry) debugVotes(vs []vote) int {
	n := 0
	for _, v := range vs {
		if v.set && (!e.prePrepared || v.d == e.digest) {
			n++
		}
	}
	return n
}
