package clbft

// The agreement and view-change protocol exercised over loopback TCP:
// every replica gets a real socket endpoint (transport.TCPConn) behind
// a MAC-authenticating ChannelAdapter, so the suite covers the
// production wire path — framing, per-link queues, background
// dial/redial — not just the in-process test transport. The memnet
// suite (clbft_test.go) stays the place for interception-based fault
// injection; this file covers end-to-end protocol liveness and safety
// on the deployment transport, including links severed mid-protocol.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"perpetualws/internal/auth"
	"perpetualws/internal/transport"
)

// tcpCluster wires n clbft replicas over loopback TCP endpoints.
type tcpCluster struct {
	t        *testing.T
	n        int
	book     *transport.AddressBook
	replicas []*Replica

	mu        sync.Mutex
	adapters  []*transport.ChannelAdapter
	conns     []*transport.TCPConn
	delivered [][]Delivery
}

const tcpClusterSvc = "bftg"

// tcpBFTTransport adapts replica i's ChannelAdapter (looked up live, so
// the harness can sever and re-establish endpoints) to clbft.Transport.
type tcpBFTTransport struct {
	c *tcpCluster
	i int
}

func (tr *tcpBFTTransport) adapter() *transport.ChannelAdapter {
	tr.c.mu.Lock()
	defer tr.c.mu.Unlock()
	return tr.c.adapters[tr.i]
}

func (tr *tcpBFTTransport) Send(to int, m *Message) {
	_ = tr.adapter().Send(auth.VoterID(tcpClusterSvc, to), m.Encode())
}

func (tr *tcpBFTTransport) Multicast(tos []int, m *Message) {
	ids := make([]auth.NodeID, len(tos))
	for k, to := range tos {
		ids[k] = auth.VoterID(tcpClusterSvc, to)
	}
	_ = tr.adapter().SendMulti(ids, m.Encode())
}

var _ Transport = (*tcpBFTTransport)(nil)

func newTCPCluster(t *testing.T, n int, opts ...func(*Config)) *tcpCluster {
	t.Helper()
	c := &tcpCluster{
		t:         t,
		n:         n,
		book:      transport.NewAddressBook(),
		replicas:  make([]*Replica, n),
		adapters:  make([]*transport.ChannelAdapter, n),
		conns:     make([]*transport.TCPConn, n),
		delivered: make([][]Delivery, n),
	}
	master := []byte("tcp-cluster-master")
	all := make([]auth.NodeID, n)
	for i := 0; i < n; i++ {
		all[i] = auth.VoterID(tcpClusterSvc, i)
	}
	for i := 0; i < n; i++ {
		c.listen(i, master, all, "127.0.0.1:0")
	}
	for i := 0; i < n; i++ {
		i := i
		cfg := Config{
			ID:                 i,
			N:                  n,
			CheckpointInterval: 8,
			ViewChangeTimeout:  400 * time.Millisecond,
		}
		for _, o := range opts {
			o(&cfg)
		}
		deliver := func(d Delivery) {
			c.mu.Lock()
			c.delivered[i] = append(c.delivered[i], d)
			c.mu.Unlock()
		}
		r, err := New(cfg, &tcpBFTTransport{c: c, i: i}, deliver)
		if err != nil {
			t.Fatalf("New replica %d: %v", i, err)
		}
		c.replicas[i] = r
		c.installHandler(i)
	}
	for _, r := range c.replicas {
		r.Start()
	}
	t.Cleanup(c.stop)
	return c
}

// listen (re-)creates replica i's TCP endpoint and adapter, registering
// the effective address in the shared book.
func (c *tcpCluster) listen(i int, master []byte, all []auth.NodeID, addr string) {
	c.t.Helper()
	conn, err := transport.ListenTCP(auth.VoterID(tcpClusterSvc, i), addr, c.book,
		transport.WithRedialBackoff(2*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		c.t.Fatalf("ListenTCP %d: %v", i, err)
	}
	c.book.Set(auth.VoterID(tcpClusterSvc, i), conn.Addr())
	c.mu.Lock()
	c.conns[i] = conn
	c.adapters[i] = transport.NewChannelAdapter(auth.NewDerivedKeyStore(master, all[i], all), conn)
	c.mu.Unlock()
}

// installHandler wires replica i's adapter to its Receive loop.
func (c *tcpCluster) installHandler(i int) {
	c.mu.Lock()
	ad := c.adapters[i]
	r := c.replicas[i]
	c.mu.Unlock()
	ad.SetHandler(func(from auth.NodeID, payload []byte) {
		if from.Service != tcpClusterSvc || from.Role != auth.RoleVoter {
			return
		}
		m, err := DecodeMessage(payload)
		if err != nil {
			return
		}
		r.Receive(from.Index, m)
	})
}

func (c *tcpCluster) stop() {
	for _, r := range c.replicas {
		r.Stop()
	}
	c.mu.Lock()
	conns := append([]*transport.TCPConn(nil), c.conns...)
	c.mu.Unlock()
	for _, conn := range conns {
		if conn != nil {
			conn.Close()
		}
	}
}

func (c *tcpCluster) deliveredAt(i int) []Delivery {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Delivery, len(c.delivered[i]))
	copy(out, c.delivered[i])
	return out
}

func (c *tcpCluster) waitDelivered(count int, idxs ...int) {
	c.t.Helper()
	waitDeliveredAt(c.t, 20*time.Second, c.replicas, c.deliveredAt, count, idxs...)
}

// checkAgreement asserts the listed replicas delivered identical
// prefixes of at least min operations.
func (c *tcpCluster) checkAgreement(min int, idxs ...int) {
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
		for k := 0; k < min; k++ {
			if got[k].OpID != ref[k].OpID || got[k].Seq != ref[k].Seq {
				c.t.Fatalf("replica %d delivery %d = (%q, %d), replica %d has (%q, %d)",
					i, k, got[k].OpID, got[k].Seq, idxs[0], ref[k].OpID, ref[k].Seq)
			}
		}
	}
}

// TestTCPClusterAgreement: the plain agreement path over real sockets —
// operations submitted at every replica execute in one identical order
// everywhere.
func TestTCPClusterAgreement(t *testing.T) {
	c := newTCPCluster(t, 4)
	const ops = 25
	for k := 0; k < ops; k++ {
		op := fmt.Sprintf("op-%d", k)
		for _, r := range c.replicas {
			r.Submit(op, []byte(op))
		}
	}
	c.waitDelivered(ops)
	c.checkAgreement(ops)
}

// TestTCPClusterAgreementBatched: same, with request batching enabled —
// the configuration the batched Figure-7 variant runs.
func TestTCPClusterAgreementBatched(t *testing.T) {
	c := newTCPCluster(t, 4, func(cfg *Config) { cfg.MaxBatch = 8 })
	const ops = 25
	for k := 0; k < ops; k++ {
		op := fmt.Sprintf("bop-%d", k)
		for _, r := range c.replicas {
			r.Submit(op, []byte(op))
		}
	}
	c.waitDelivered(ops)
	c.checkAgreement(ops)
}

// TestTCPClusterViewChangeOnCrashedPrimary: killing the primary's
// process (replica stopped, endpoint closed — connections reset) drives
// the remaining replicas through a view change over TCP, after which
// they keep executing.
func TestTCPClusterViewChangeOnCrashedPrimary(t *testing.T) {
	c := newTCPCluster(t, 4)
	for _, r := range c.replicas {
		r.Submit("before", []byte("b"))
	}
	c.waitDelivered(1)

	c.replicas[0].Stop()
	c.mu.Lock()
	conn0 := c.conns[0]
	c.mu.Unlock()
	conn0.Close()

	for k := 0; k < 5; k++ {
		op := fmt.Sprintf("after-%d", k)
		for _, r := range c.replicas[1:] {
			r.Submit(op, []byte(op))
		}
	}
	c.waitDelivered(6, 1, 2, 3)
	c.checkAgreement(6, 1, 2, 3)
	for _, i := range []int{1, 2, 3} {
		if v := c.replicas[i].View(); v == 0 {
			t.Errorf("replica %d still in view 0 after primary crash", i)
		}
	}
}

// TestTCPClusterLinkSeverHeals: a replica's endpoint dies mid-protocol
// and is reborn on the same address — peers redial in the background,
// the healed group keeps agreeing, and the severed replica's log
// catches up (possibly via view change).
func TestTCPClusterLinkSeverHeals(t *testing.T) {
	c := newTCPCluster(t, 4)
	master := []byte("tcp-cluster-master")
	all := make([]auth.NodeID, c.n)
	for i := range all {
		all[i] = auth.VoterID(tcpClusterSvc, i)
	}

	for k := 0; k < 5; k++ {
		op := fmt.Sprintf("pre-%d", k)
		for _, r := range c.replicas {
			r.Submit(op, []byte(op))
		}
	}
	c.waitDelivered(5)

	// Sever replica 3's endpoint mid-protocol: all of its links (in and
	// out) reset. The replica itself keeps running.
	c.mu.Lock()
	addr := c.conns[3].Addr()
	conn3 := c.conns[3]
	c.mu.Unlock()
	conn3.Close()

	// Traffic continues among the connected majority while 3 is dark.
	for k := 0; k < 5; k++ {
		op := fmt.Sprintf("dark-%d", k)
		for _, r := range c.replicas[:3] {
			r.Submit(op, []byte(op))
		}
	}
	c.waitDelivered(10, 0, 1, 2)

	// Heal: recreate the endpoint on the same address; peers redial.
	c.listen(3, master, all, addr)
	c.installHandler(3)

	// Under continued traffic the healed replica converges: each
	// certified checkpoint announcement (interval 8) triggers catch-up
	// fetches for the history it missed while dark, regardless of how
	// many view suspicions it accumulated meanwhile. Drive filler load
	// until it has recovered the full common prefix.
	const target = 20
	k := 0
	waitFor(t, 20*time.Second, "healed replica catch-up over TCP", func() bool {
		op := fmt.Sprintf("post-%d", k)
		k++
		for _, r := range c.replicas {
			r.Submit(op, []byte(op))
		}
		time.Sleep(5 * time.Millisecond)
		return len(c.deliveredAt(3)) >= target && len(c.deliveredAt(0)) >= target
	})
	c.waitDelivered(target, 0, 1, 2)
	c.checkAgreement(target)
}
