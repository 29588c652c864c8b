package clbft

import (
	"sync"
	"testing"
	"time"
)

// gatedTransport blocks every Send until the gate is released, modeling
// a transport wedged on a slow or dead link (high-latency memnet with
// backpressure, a TCP peer that stopped reading).
type gatedTransport struct {
	gate chan struct{}
}

func (g *gatedTransport) Send(to int, m *Message)         { <-g.gate }
func (g *gatedTransport) Multicast(tos []int, m *Message) { <-g.gate }

// TestBroadcastLocalFirst is the regression test for broadcast
// ordering: the replica must process its own copy of a broadcast before
// spending any time in transport sends, so a slow transport cannot
// delay the primary's own prepare (and with it local agreement
// progress).
//
// Setup: an n=4 primary whose transport blocks forever. Prepares and
// commits from two backups are queued before the operation is
// submitted (votes arriving before the pre-prepare are buffered, as in
// PBFT). If the local copies of the primary's pre-prepare and commit
// are processed before remote sends, the quorum completes and the
// operation executes without a single send finishing; with sends-first
// ordering the event loop wedges in the transport and nothing is ever
// delivered.
func TestBroadcastLocalFirst(t *testing.T) {
	gt := &gatedTransport{gate: make(chan struct{})}
	delivered := make(chan Delivery, 1)
	r, err := New(
		Config{ID: 0, N: 4, ViewChangeTimeout: time.Hour},
		gt,
		func(d Delivery) { delivered <- d },
	)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer func() {
		close(gt.gate) // release the wedged sends so Stop can drain
		r.Stop()
	}()

	req := &Request{OpID: "op-1", Op: []byte("x")}
	d := req.Digest()
	for _, backup := range []int{1, 2} {
		r.Receive(backup, votesMsg(Vote{Phase: PhasePrepare, View: 0, Seq: 1, Digest: d}))
		r.Receive(backup, votesMsg(Vote{Phase: PhaseCommit, View: 0, Seq: 1, Digest: d}))
	}
	r.Submit(req.OpID, req.Op)

	select {
	case got := <-delivered:
		if got.OpID != "op-1" {
			t.Fatalf("delivered %q, want op-1", got.OpID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked transport sends delayed local agreement progress; local copy must be processed first")
	}
}

// recordingTransport records Multicast calls and counts single Sends.
type recordingTransport struct {
	mu    sync.Mutex
	multi [][]int
	kinds []string
	sends int
}

func (rt *recordingTransport) Send(to int, m *Message) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.sends++
}

func (rt *recordingTransport) Multicast(tos []int, m *Message) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	cp := append([]int(nil), tos...)
	rt.multi = append(rt.multi, cp)
	rt.kinds = append(rt.kinds, kindOf(m))
}

// TestBroadcastUsesMulticast verifies broadcasts go through the
// transport's encode-once Multicast, with one call covering every other group member, and that nested
// broadcasts hit the wire in causal order (a backup's commit, decided
// while processing its own prepare, must not precede the prepare).
func TestBroadcastUsesMulticast(t *testing.T) {
	rt := &recordingTransport{}
	delivered := make(chan struct{}, 1)
	// Replica 1 is a backup in view 0 (primary is 0).
	r, err := New(
		Config{ID: 1, N: 4, ViewChangeTimeout: time.Hour},
		rt,
		func(Delivery) { delivered <- struct{}{} },
	)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()

	req := Request{OpID: "op-1", Op: []byte("x")}
	d := req.Digest()
	// Queue the peers' prepares and commits first, then the primary's
	// pre-prepare: accepting it completes both certificates at once, so
	// the prepare and commit broadcasts nest.
	for _, peer := range []int{2, 3} {
		r.Receive(peer, votesMsg(Vote{Phase: PhasePrepare, View: 0, Seq: 1, Digest: d}))
		r.Receive(peer, votesMsg(Vote{Phase: PhaseCommit, View: 0, Seq: 1, Digest: d}))
	}
	r.Receive(0, &Message{Type: MsgPrePrepare, PrePrepare: &PrePrepare{View: 0, Seq: 1, Digest: d, Request: req}})

	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("operation not delivered")
	}
	// Delivery runs inside the nested commit broadcast, before the
	// outermost broadcast flushes its queued sends to Multicast; stopping
	// the replica waits for the event loop to finish that flush.
	r.Stop()

	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.sends != 0 {
		t.Errorf("broadcast made %d single Send calls instead of one Multicast", rt.sends)
	}
	if len(rt.multi) < 2 {
		t.Fatalf("got %d multicasts, want at least prepare+commit", len(rt.multi))
	}
	for i, tos := range rt.multi {
		if len(tos) != 3 {
			t.Errorf("multicast %d covered %v, want the 3 other members", i, tos)
		}
	}
	// Causal wire order: this backup's prepare must precede the commit
	// it enabled, even though the commit was decided while the prepare's
	// local copy was being processed.
	var prepareAt, commitAt = -1, -1
	for i, k := range rt.kinds {
		if k == "prepare" && prepareAt == -1 {
			prepareAt = i
		}
		if k == "commits" && commitAt == -1 {
			commitAt = i
		}
	}
	if prepareAt == -1 || commitAt == -1 || commitAt < prepareAt {
		t.Errorf("wire order %v: prepare must precede its commit", rt.kinds)
	}
}
