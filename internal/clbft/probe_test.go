package clbft

import (
	"testing"
	"time"
)

// newLaggard is backup 3 of a four-replica group that holds a buffered
// request and, for sequence 1 in view 0, the backups' prepares and every
// peer's commit but not the primary's pre-prepare: the state a replica
// is left in when the pre-prepare arrived while sequence 1 lay above
// its high watermark and was dropped. Nothing resends a dropped message.
func newLaggard(t *testing.T, rt *recordingTransport, timeout time.Duration) (*Replica, *[]string, Request) {
	t.Helper()
	var delivered []string
	r, err := New(Config{ID: 3, N: 4, ViewChangeTimeout: timeout}, rt,
		func(d Delivery) { delivered = append(delivered, d.OpID) })
	if err != nil {
		t.Fatal(err)
	}
	req := Request{OpID: "op", Op: []byte("x")}
	d := req.Digest()
	r.handle(event{kind: evSubmit, now: t0, req: &req})
	for _, from := range []int{1, 2} {
		r.handle(event{kind: evMessage, now: t0, from: from,
			msg: &Message{Type: MsgPrepare, Prepare: &Prepare{View: 0, Seq: 1, Digest: d, Replica: from}}})
	}
	for _, from := range []int{0, 1, 2} {
		r.handle(event{kind: evMessage, now: t0, from: from,
			msg: &Message{Type: MsgCommit, Commit: &Commit{View: 0, Seq: 1, Digest: d, Replica: from}}})
	}
	return r, &delivered, req
}

func probeReply(r *Replica, from int, at time.Time, req Request) {
	r.handle(event{kind: evMessage, now: at, from: from, msg: &Message{Type: MsgFetchReply,
		FetchReply: &FetchReply{From: 0, To: 1, Ops: []FetchedOp{{Seq: 1, Request: req}}}}})
}

// TestLaggardProbesBeforeSuspecting: a replica one sequence number
// short while a peer votes on it in the current view asks its peers once
// what committed there instead of leaving the view alone, and executes
// the request once f+1 peers report the same one. A null or lone answer
// proves nothing; a second timeout on the same sequence number suspects
// the primary as before.
func TestLaggardProbesBeforeSuspecting(t *testing.T) {
	const timeout = time.Second
	rt := &recordingTransport{}
	r, delivered, req := newLaggard(t, rt, timeout)
	due := t0.Add(timeout)
	fire(r, timerSuspect, due)
	if r.inViewChange || r.View() != 0 {
		t.Fatal("the laggard suspected the primary instead of probing its peers")
	}
	if got := countType(rt, MsgFetch); got != 1 || len(rt.multi[len(rt.multi)-1]) != 3 {
		t.Fatalf("the suspicion fire sent %d probes, want 1 to every peer", got)
	}
	if !r.due[timerSuspect].Equal(due.Add(timeout)) {
		t.Fatalf("after the probe the suspicion timer is due %v, want %v (not doubled)", r.due[timerSuspect], due.Add(timeout))
	}

	probeReply(r, 0, due, *NullRequest())
	probeReply(r, 1, due, Request{OpID: "forged", Op: []byte("y")})
	probeReply(r, 2, due, req)
	if len(*delivered) != 0 {
		t.Fatalf("a null, a forged and one true answer executed %v", *delivered)
	}
	probeReply(r, 0, due, req)
	if len(*delivered) != 1 || (*delivered)[0] != "op" || r.lastCommitted != 1 {
		t.Fatalf("two matching answers: delivered %v, last committed %d; want [op] and 1", *delivered, r.lastCommitted)
	}
	if r.inViewChange || len(r.pending) != 0 {
		t.Fatalf("after the probe: in view change %v, %d pending", r.inViewChange, len(r.pending))
	}

	// Holding the pre-prepare and no peer's prepare or commit, the
	// laggard probes too, and takes an answer that matches it.
	rt = &recordingTransport{}
	delivered = new([]string)
	r, err := New(Config{ID: 3, N: 4, ViewChangeTimeout: timeout}, rt,
		func(d Delivery) { *delivered = append(*delivered, d.OpID) })
	if err != nil {
		t.Fatal(err)
	}
	r.handle(event{kind: evSubmit, now: t0, req: &req})
	r.handle(event{kind: evMessage, now: t0, from: 0, msg: &Message{Type: MsgPrePrepare,
		PrePrepare: &PrePrepare{View: 0, Seq: 1, Digest: req.Digest(), Request: req}}})
	fire(r, timerSuspect, due)
	probeReply(r, 1, due, req)
	probeReply(r, 2, due, req)
	if r.inViewChange || len(*delivered) != 1 {
		t.Fatalf("a pre-prepared laggard: in view change %v, delivered %v; want [op]", r.inViewChange, *delivered)
	}

	// Unanswered, the probe is not repeated: the next timeout suspects.
	rt = &recordingTransport{}
	r, delivered, _ = newLaggard(t, rt, timeout)
	fire(r, timerSuspect, due)
	fire(r, timerSuspect, due.Add(timeout))
	if !r.inViewChange || r.View() != 1 || countType(rt, MsgFetch) != 1 || len(*delivered) != 0 {
		t.Fatalf("an unanswered probe: view %d, in view change %v, %d probes; want view 1 after one probe",
			r.View(), r.inViewChange, countType(rt, MsgFetch))
	}
}

// TestFetchServesOnlyCommittedHistory: a fetch no certified checkpoint
// covers is answered only as far as the server committed, since the
// fetcher takes it on f+1 word. A tentatively executed request is not
// served until it commits.
func TestFetchServesOnlyCommittedHistory(t *testing.T) {
	rt := &recordingTransport{}
	r := newTimerReplica(t, rt)
	req := Request{OpID: "op", Op: []byte("x")}
	d := req.Digest()
	r.handle(event{kind: evMessage, now: t0, from: 0,
		msg: &Message{Type: MsgPrePrepare, PrePrepare: &PrePrepare{View: 0, Seq: 1, Digest: d, Request: req}}})
	r.handle(event{kind: evMessage, now: t0, from: 2,
		msg: &Message{Type: MsgPrepare, Prepare: &Prepare{View: 0, Seq: 1, Digest: d, Replica: 2}}})
	if r.lastExec != 1 || r.lastCommitted != 0 {
		t.Fatalf("prepared: last executed %d, last committed %d; want a tentative execution", r.lastExec, r.lastCommitted)
	}
	fetch := &Message{Type: MsgFetch, Fetch: &Fetch{From: 0, To: 1, Replica: 3}}
	r.handle(event{kind: evMessage, now: t0, from: 3, msg: fetch})
	if rt.sends != 0 {
		t.Fatal("a tentatively executed request was served")
	}
	for _, from := range []int{0, 2} {
		r.handle(event{kind: evMessage, now: t0, from: from,
			msg: &Message{Type: MsgCommit, Commit: &Commit{View: 0, Seq: 1, Digest: d, Replica: from}}})
	}
	r.handle(event{kind: evMessage, now: t0, from: 3, msg: fetch})
	if r.lastCommitted != 1 || rt.sends != 1 {
		t.Fatalf("committed: last committed %d, %d replies; want 1 and 1", r.lastCommitted, rt.sends)
	}
}
