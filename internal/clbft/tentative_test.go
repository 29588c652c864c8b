package clbft

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// tentativeCluster is testCluster plus tentative execution and a
// recorded rollback handler per replica.
type tentativeCluster struct {
	*testCluster

	mu     sync.Mutex
	undone [][]Delivery
}

func newTentativeCluster(t *testing.T, n int, opts ...func(*Config)) *tentativeCluster {
	t.Helper()
	tc := &tentativeCluster{
		testCluster: &testCluster{t: t, n: n, delivered: make([][]Delivery, n)},
		undone:      make([][]Delivery, n),
	}
	c := tc.testCluster
	c.replicas = make([]*Replica, n)
	for i := 0; i < n; i++ {
		i := i
		cfg := Config{
			ID:                 i,
			N:                  n,
			CheckpointInterval: 8,
			ViewChangeTimeout:  300 * time.Millisecond,
			Tentative:          true,
		}
		for _, o := range opts {
			o(&cfg)
		}
		transport := TransportFunc(func(to int, m *Message) {
			c.send(i, to, m)
		})
		deliver := func(d Delivery) {
			c.mu.Lock()
			c.delivered[i] = append(c.delivered[i], d)
			c.mu.Unlock()
		}
		r, err := New(cfg, transport, deliver, WithRollback(func(d Delivery) bool {
			tc.mu.Lock()
			tc.undone[i] = append(tc.undone[i], d)
			tc.mu.Unlock()
			return true // undone: re-buffer for re-proposal
		}))
		if err != nil {
			t.Fatalf("New replica %d: %v", i, err)
		}
		c.replicas[i] = r
	}
	for _, r := range c.replicas {
		r.Start()
	}
	t.Cleanup(c.stop)
	return tc
}

func (tc *tentativeCluster) undoneAt(i int) []Delivery {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := make([]Delivery, len(tc.undone[i]))
	copy(out, tc.undone[i])
	return out
}

// finalHistory reduces a replica's delivery stream to the surviving
// op per sequence number: a rolled-back tentative delivery is
// superseded by whatever was re-delivered at that position.
func (tc *tentativeCluster) finalHistory(i int) map[uint64]string {
	h := make(map[uint64]string)
	for _, d := range tc.deliveredAt(i) {
		h[d.Seq] = d.OpID
	}
	return h
}

// TestTentativeExecRollsBackOnViewChange drives the one scenario where
// a tentative execution must be revoked: exactly one replica collects
// the prepared certificate and executes tentatively, its view-change
// vote is lost, and the new view — assembled from a quorum that never
// prepared the request — does not re-propose it. The executing replica
// must roll the operation back, re-buffer it, and re-converge with the
// group on a single committed history.
func TestTentativeExecRollsBackOnViewChange(t *testing.T) {
	tc := newTentativeCluster(t, 4)
	c := tc.testCluster
	c.replicas[0].Submit("first", nil)
	c.waitDelivered(1)
	waitFor(t, 5*time.Second, "seq 1 committed", func() bool {
		for _, r := range c.replicas {
			if r.CommittedSeq() < 1 {
				return false
			}
		}
		return true
	})

	// Phase B: primary 0 proposes "second" at seq 2, but the pre-prepare
	// reaches only replicas 2 and 3, and of the two prepares only 2→3 is
	// delivered. Replica 3 alone holds the prepared certificate and
	// executes tentatively; 0 and 2 stall one message short. Commit
	// votes are dropped so nothing commits.
	c.setIntercept(func(from, to int, m *Message) *Message {
		switch m.Type {
		case MsgPrePrepare:
			if m.PrePrepare.Seq >= 2 && to != 2 && to != 3 {
				return nil
			}
		case MsgVotes:
			// A prepare leads its message; the commits it carries pass
			// with it.
			if kindOf(m) == "commits" || m.Votes[0].Seq >= 2 && !(from == 2 && to == 3) {
				return nil
			}
		}
		return m
	})
	c.replicas[0].Submit("second", []byte("s"))
	waitFor(t, 5*time.Second, "tentative execution of \"second\" at replica 3", func() bool {
		got := c.deliveredAt(3)
		return len(got) > 0 && got[len(got)-1].OpID == "second"
	})
	got := c.deliveredAt(3)
	if last := got[len(got)-1]; !last.Tentative {
		t.Fatalf("replica 3's delivery of \"second\" = %+v, want tentative", last)
	}

	// Phase C: the stalled request times replicas out into view 1.
	// Replica 3's view-change vote — the only one carrying the prepared
	// certificate for seq 2 — is lost, so the new view is assembled from
	// {0,1,2} and has no entry at seq 2. Everything else flows again.
	c.setIntercept(func(from, to int, m *Message) *Message {
		if m.Type == MsgViewChange && from == 3 {
			return nil
		}
		return m
	})

	// Replica 3 must revoke the tentative execution through the rollback
	// handler, re-buffer "second", and the new primary must re-order it.
	waitFor(t, 10*time.Second, "rollback at replica 3", func() bool {
		return c.replicas[3].Rollbacks() >= 1
	})
	undone := tc.undoneAt(3)
	if len(undone) == 0 || undone[0].OpID != "second" || !undone[0].Tentative {
		t.Fatalf("rollback handler saw %+v, want tentative \"second\"", undone)
	}
	for _, i := range []int{0, 1, 2} {
		if n := c.replicas[i].Rollbacks(); n != 0 {
			t.Errorf("replica %d rolled back %d executions; only 3 executed tentatively", i, n)
		}
	}

	// Deterministic re-execution: every replica converges on the same
	// committed history, with "second" re-ordered after the rollback.
	waitFor(t, 10*time.Second, "re-commit of \"second\" after rollback", func() bool {
		for _, r := range c.replicas {
			if r.CommittedSeq() < 2 {
				return false
			}
		}
		return true
	})
	ref := tc.finalHistory(0)
	sawSecond := false
	for seq, op := range ref {
		if op == "second" {
			sawSecond = true
		}
		for i := 1; i < 4; i++ {
			if got := tc.finalHistory(i)[seq]; got != op {
				t.Errorf("seq %d: replica 0 committed %q, replica %d committed %q", seq, op, i, got)
			}
		}
	}
	if !sawSecond {
		t.Errorf("\"second\" was never re-committed after its rollback: %v", ref)
	}
}

// TestCommitVotesPiggybackUnderLoad asserts the frame-floor claim at
// the protocol layer: with tentative execution on and traffic flowing,
// commit votes ride pre-prepare and prepare carriers. A frame of
// commits alone comes only from the flush heartbeat, which must stay a
// quiescence backstop — a bounded trickle, not a per-sequence stream.
func TestCommitVotesPiggybackUnderLoad(t *testing.T) {
	// A long flush delay isolates the carrier path: any vote moved by
	// the heartbeat instead of a carrier would need a 50ms stall.
	tc := newTentativeCluster(t, 4, func(cfg *Config) {
		cfg.CommitFlushDelay = 50 * time.Millisecond
	})
	c := tc.testCluster
	const ops = 30

	var statMu sync.Mutex
	frames := make(map[string]int)
	c.setIntercept(func(from, to int, m *Message) *Message {
		statMu.Lock()
		frames[kindOf(m)]++
		statMu.Unlock()
		return m
	})
	// Closed loop: each request's agreement traffic is the carrier for
	// the previous sequence number's commit votes.
	for k := 0; k < ops; k++ {
		c.replicas[0].Submit(fmt.Sprintf("op-%d", k), []byte{byte(k)})
		c.waitDelivered(k + 1)
	}
	waitFor(t, 10*time.Second, "all ops committed", func() bool {
		for _, r := range c.replicas {
			if r.CommittedSeq() < ops {
				return false
			}
		}
		return true
	})
	c.checkConsistent(ops)

	statMu.Lock()
	batches := frames["commits"]
	statMu.Unlock()
	var piggy uint64
	for _, r := range c.replicas {
		n := r.PiggybackedCommits()
		if n == 0 {
			t.Errorf("replica %d piggybacked no commit votes under load", r.cfg.ID)
		}
		piggy += n
	}
	// 4 replicas voting on >= ops sequence numbers is >= 4*ops votes;
	// under continuous traffic the carriers must move the majority, with
	// the heartbeat covering only the trailing quiescent votes.
	if piggy < 2*ops {
		t.Errorf("only %d of >= %d commit votes piggybacked on carriers", piggy, 4*ops)
	}
	if batches > ops/2 {
		t.Errorf("%d heartbeat frames of commits alone for %d ops; the flush timer is stealing votes from carriers", batches, ops)
	}
}
