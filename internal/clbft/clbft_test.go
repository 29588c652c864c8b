package clbft

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// testCluster wires n replicas together with an interceptable in-process
// transport. Every message passes through the wire codec so encoding
// bugs surface in protocol tests.
type testCluster struct {
	t        *testing.T
	n        int
	replicas []*Replica

	mu        sync.Mutex
	delivered [][]Delivery
	intercept func(from, to int, m *Message) *Message // nil result drops
}

func newTestCluster(t *testing.T, n int, opts ...func(*Config)) *testCluster {
	t.Helper()
	c := &testCluster{t: t, n: n, delivered: make([][]Delivery, n)}
	c.replicas = make([]*Replica, n)
	for i := 0; i < n; i++ {
		i := i
		cfg := Config{
			ID:                 i,
			N:                  n,
			CheckpointInterval: 8,
			ViewChangeTimeout:  300 * time.Millisecond,
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
		r, err := New(cfg, transport, deliver)
		if err != nil {
			t.Fatalf("New replica %d: %v", i, err)
		}
		c.replicas[i] = r
	}
	for _, r := range c.replicas {
		r.Start()
	}
	t.Cleanup(c.stop)
	return c
}

func (c *testCluster) stop() {
	for _, r := range c.replicas {
		r.Stop()
	}
}

func (c *testCluster) send(from, to int, m *Message) {
	c.mu.Lock()
	icpt := c.intercept
	c.mu.Unlock()
	if icpt != nil {
		m = icpt(from, to, m)
		if m == nil {
			return
		}
	}
	// Deliver through the codec to exercise it under protocol load.
	buf := m.Encode()
	if _, err := DecodeMessage(buf); err != nil {
		c.t.Errorf("codec round trip failed for %s: %v", m.Type, err)
		return
	}
	if to >= 0 && to < c.n {
		c.replicas[to].ReceiveEncoded(from, buf)
	}
}

// votesMsg is a votes message carrying votes.
func votesMsg(votes ...Vote) *Message { return &Message{Type: MsgVotes, Votes: votes} }

// kindOf names what a message carries. A votes message is "prepare"
// when it carries a backup's prepare, and "commits" when it carries
// commits alone: the flush heartbeat, or a commit without tentative
// execution.
func kindOf(m *Message) string {
	if m.Type != MsgVotes {
		return m.Type.String()
	}
	for _, v := range m.Votes {
		if v.Phase == PhasePrepare {
			return "prepare"
		}
	}
	return "commits"
}

func (c *testCluster) setIntercept(f func(from, to int, m *Message) *Message) {
	c.mu.Lock()
	c.intercept = f
	c.mu.Unlock()
}

// deliveredAt returns a snapshot of replica i's deliveries.
func (c *testCluster) deliveredAt(i int) []Delivery {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Delivery, len(c.delivered[i]))
	copy(out, c.delivered[i])
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	if !poll(timeout, cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// poll reports whether cond held before timeout passed.
func poll(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// waitDeliveredAt waits until every replica in idxs delivered count ops,
// as deliveredAt reports them. On a timeout it logs every replica's
// DebugState before failing, so the failure leaves its shape behind.
func waitDeliveredAt(t *testing.T, timeout time.Duration, replicas []*Replica, deliveredAt func(int) []Delivery, count int, idxs ...int) {
	t.Helper()
	if len(idxs) == 0 {
		for i := range replicas {
			idxs = append(idxs, i)
		}
	}
	if poll(timeout, func() bool {
		for _, i := range idxs {
			if len(deliveredAt(i)) < count {
				return false
			}
		}
		return true
	}) {
		return
	}
	for i, r := range replicas {
		st := make(chan DebugState, 1)
		go func() { st <- r.DebugState() }()
		select {
		case s := <-st:
			t.Logf("replica %d: view %d in-view-change %v low-watermark %d last-exec %d log %d pending %d delivered %d",
				i, s.View, s.InViewChange, s.LowWatermark, s.LastExec, s.LogLen, s.PendingLen, len(deliveredAt(i)))
			for _, e := range s.Entries {
				t.Logf("replica %d:   seq %d view %d pre-prepared %v prepares %d commits %d",
					i, e.Seq, e.View, e.PrePrepared, e.Prepares, e.Commits)
			}
		case <-time.After(time.Second):
			t.Logf("replica %d: event loop did not answer DebugState", i)
		}
	}
	t.Fatalf("timed out waiting for %d deliveries", count)
}

// waitDelivered waits until every replica in idxs delivered count ops.
func (c *testCluster) waitDelivered(count int, idxs ...int) {
	c.t.Helper()
	waitDeliveredAt(c.t, 15*time.Second, c.replicas, c.deliveredAt, count, idxs...)
}

// checkConsistent asserts all listed replicas delivered identical
// sequences (up to the shortest length, which must be >= min).
func (c *testCluster) checkConsistent(min int, idxs ...int) {
	c.t.Helper()
	if len(idxs) == 0 {
		for i := 0; i < c.n; i++ {
			idxs = append(idxs, i)
		}
	}
	ref := c.deliveredAt(idxs[0])
	if len(ref) < min {
		c.t.Fatalf("replica %d delivered %d < %d ops", idxs[0], len(ref), min)
	}
	for _, i := range idxs[1:] {
		got := c.deliveredAt(i)
		if len(got) < min {
			c.t.Fatalf("replica %d delivered %d < %d ops", i, len(got), min)
		}
		short := len(ref)
		if len(got) < short {
			short = len(got)
		}
		for k := 0; k < short; k++ {
			if got[k].OpID != ref[k].OpID || got[k].Seq != ref[k].Seq {
				c.t.Fatalf("divergence at position %d: replica %d has %v, replica %d has %v",
					k, idxs[0], ref[k], i, got[k])
			}
		}
	}
}

func TestSingleReplicaGroupOrders(t *testing.T) {
	c := newTestCluster(t, 1)
	for i := 0; i < 5; i++ {
		c.replicas[0].Submit(fmt.Sprintf("op-%d", i), []byte{byte(i)})
	}
	c.waitDelivered(5)
	got := c.deliveredAt(0)
	for i, d := range got {
		if d.OpID != fmt.Sprintf("op-%d", i) {
			t.Errorf("position %d: got %s", i, d.OpID)
		}
		if d.Seq != uint64(i+1) {
			t.Errorf("position %d: seq %d", i, d.Seq)
		}
	}
}

func TestFourReplicasAgree(t *testing.T) {
	c := newTestCluster(t, 4)
	c.replicas[0].Submit("alpha", []byte("a"))
	c.waitDelivered(1)
	c.checkConsistent(1)
}

func TestSubmitViaBackupForwards(t *testing.T) {
	c := newTestCluster(t, 4)
	// Submit through a non-primary; it must forward to the primary.
	c.replicas[2].Submit("via-backup", []byte("b"))
	c.waitDelivered(1)
	c.checkConsistent(1)
	if got := c.deliveredAt(0)[0].OpID; got != "via-backup" {
		t.Errorf("delivered %q", got)
	}
}

func TestConcurrentSubmittersStayConsistent(t *testing.T) {
	c := newTestCluster(t, 4)
	const perSubmitter = 20
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				c.replicas[s].Submit(fmt.Sprintf("s%d-op%d", s, i), []byte{byte(s), byte(i)})
			}
		}()
	}
	wg.Wait()
	c.waitDelivered(4 * perSubmitter)
	c.checkConsistent(4 * perSubmitter)
}

func TestDuplicateOpIDExecutedOnce(t *testing.T) {
	c := newTestCluster(t, 4)
	c.replicas[0].Submit("dup", []byte("x"))
	c.waitDelivered(1)
	// Re-submit from several replicas.
	c.replicas[0].Submit("dup", []byte("x"))
	c.replicas[1].Submit("dup", []byte("x"))
	c.replicas[0].Submit("after", []byte("y"))
	c.waitDelivered(2)
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 4; i++ {
		seen := 0
		for _, d := range c.deliveredAt(i) {
			if d.OpID == "dup" {
				seen++
			}
		}
		if seen != 1 {
			t.Errorf("replica %d delivered dup %d times", i, seen)
		}
	}
}

func TestCheckpointGarbageCollectsLog(t *testing.T) {
	c := newTestCluster(t, 4)
	const ops = 40 // 5 checkpoint intervals of 8
	for i := 0; i < ops; i++ {
		c.replicas[0].Submit(fmt.Sprintf("op-%d", i), []byte{byte(i)})
	}
	c.waitDelivered(ops)
	// Give checkpoints a moment to stabilize, then verify the logs were
	// truncated on every replica.
	waitFor(t, 10*time.Second, "log truncation", func() bool {
		for _, r := range c.replicas {
			st := r.DebugState()
			if st.LowWatermark < 32 || st.LogLen > int(2*r.cfg.LogWindow()) {
				return false
			}
		}
		return true
	})
}

func TestViewChangeOnSilentPrimary(t *testing.T) {
	c := newTestCluster(t, 4)
	// Establish normal operation first.
	c.replicas[0].Submit("warmup", nil)
	c.waitDelivered(1)

	// Silence the primary (view 0 -> replica 0) completely.
	c.setIntercept(func(from, to int, m *Message) *Message {
		if from == 0 || to == 0 {
			return nil
		}
		return m
	})
	c.replicas[1].Submit("post-failure", []byte("p"))
	// The surviving replicas must view-change and order the request.
	c.waitDelivered(2, 1, 2, 3)
	c.checkConsistent(2, 1, 2, 3)
	for _, i := range []int{1, 2, 3} {
		if v := c.replicas[i].View(); v == 0 {
			t.Errorf("replica %d still in view 0", i)
		}
	}
}

func TestViewChangePreservesPreparedRequests(t *testing.T) {
	c := newTestCluster(t, 4)
	c.replicas[0].Submit("first", nil)
	c.waitDelivered(1)

	// Let "second" become prepared everywhere but block every commit
	// message, so no replica reaches committed. Then silence the primary
	// and unblock commits among the backups: the view change must carry
	// the prepared request into the new view, where it commits.
	phase := make(chan struct{})
	var once sync.Once
	c.setIntercept(func(from, to int, m *Message) *Message {
		if kindOf(m) == "commits" {
			once.Do(func() { close(phase) })
			return nil
		}
		return m
	})
	c.replicas[0].Submit("second", []byte("s"))
	<-phase
	time.Sleep(50 * time.Millisecond) // let prepares finish propagating
	// Now silence the primary entirely; backups communicate freely.
	c.setIntercept(func(from, to int, m *Message) *Message {
		if from == 0 || to == 0 {
			return nil
		}
		return m
	})
	c.waitDelivered(2, 1, 2, 3)
	for _, i := range []int{1, 2, 3} {
		got := c.deliveredAt(i)
		if got[1].OpID != "second" {
			t.Errorf("replica %d delivered %q at position 1", i, got[1].OpID)
		}
	}
}

func TestEquivocatingPrimaryCannotDiverge(t *testing.T) {
	c := newTestCluster(t, 4)
	c.replicas[0].Submit("base", nil)
	c.waitDelivered(1)

	// The primary equivocates: it sends different requests to different
	// backups under the same sequence number.
	c.setIntercept(func(from, to int, m *Message) *Message {
		if from == 0 && m.Type == MsgPrePrepare {
			pp := *m.PrePrepare
			pp.Request = Request{OpID: fmt.Sprintf("evil-%d", to), Op: []byte{byte(to)}}
			pp.Digest = pp.Request.Digest()
			return &Message{Type: MsgPrePrepare, PrePrepare: &pp}
		}
		return m
	})
	c.replicas[1].Submit("victim", []byte("v"))
	// No two correct replicas may deliver different ops at the same
	// position. Eventually a view change elects a correct primary and
	// "victim" is ordered.
	c.waitDelivered(2, 1, 2, 3)
	c.checkConsistent(2, 1, 2, 3)
	for _, i := range []int{1, 2, 3} {
		for _, d := range c.deliveredAt(i) {
			if len(d.OpID) >= 4 && d.OpID[:4] == "evil" {
				t.Errorf("replica %d delivered equivocated op %s", i, d.OpID)
			}
		}
	}
}

func TestLaggingReplicaCatchesUp(t *testing.T) {
	c := newTestCluster(t, 4)
	// Cut replica 3 off.
	c.setIntercept(func(from, to int, m *Message) *Message {
		if from == 3 || to == 3 {
			return nil
		}
		return m
	})
	const batch = 24 // three checkpoint intervals
	for i := 0; i < batch; i++ {
		c.replicas[0].Submit(fmt.Sprintf("cut-%d", i), []byte{byte(i)})
	}
	c.waitDelivered(batch, 0, 1, 2)
	if got := len(c.deliveredAt(3)); got != 0 {
		t.Fatalf("isolated replica delivered %d ops", got)
	}

	// Heal and run past the next checkpoint so replica 3 sees a
	// certified checkpoint ahead of it and fetches history.
	c.setIntercept(nil)
	for i := 0; i < 16; i++ {
		c.replicas[0].Submit(fmt.Sprintf("heal-%d", i), []byte{byte(i)})
	}
	c.waitDelivered(batch+16, 0, 1, 2)
	waitFor(t, 15*time.Second, "replica 3 catch-up", func() bool {
		return len(c.deliveredAt(3)) >= batch+16
	})
	c.checkConsistent(batch + 16)
}

func TestOneCrashedBackupDoesNotBlockProgress(t *testing.T) {
	c := newTestCluster(t, 4)
	c.setIntercept(func(from, to int, m *Message) *Message {
		if from == 2 || to == 2 {
			return nil // crash-stop replica 2
		}
		return m
	})
	for i := 0; i < 10; i++ {
		c.replicas[0].Submit(fmt.Sprintf("op-%d", i), nil)
	}
	c.waitDelivered(10, 0, 1, 3)
	c.checkConsistent(10, 0, 1, 3)
}

func TestSevenReplicasTolerateTwoFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := newTestCluster(t, 7)
	c.setIntercept(func(from, to int, m *Message) *Message {
		if from == 5 || to == 5 || from == 6 || to == 6 {
			return nil
		}
		return m
	})
	for i := 0; i < 8; i++ {
		c.replicas[0].Submit(fmt.Sprintf("op-%d", i), nil)
	}
	c.waitDelivered(8, 0, 1, 2, 3, 4)
	c.checkConsistent(8, 0, 1, 2, 3, 4)
}

func TestViewGetterAndPrimary(t *testing.T) {
	c := newTestCluster(t, 4)
	if v := c.replicas[0].View(); v != 0 {
		t.Errorf("initial view = %d", v)
	}
	if !c.replicas[0].IsPrimary() {
		t.Error("replica 0 should be primary of view 0")
	}
	if c.replicas[1].IsPrimary() {
		t.Error("replica 1 should not be primary of view 0")
	}
	if p := c.replicas[1].Primary(); p != 0 {
		t.Errorf("Primary() = %d", p)
	}
}
