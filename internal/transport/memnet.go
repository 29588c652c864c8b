package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"perpetualws/internal/auth"
	"perpetualws/internal/inbox"
)

// Network is an in-process message network connecting many principals.
// It stands in for the paper's SSL/TCP testbed in tests and benchmarks:
// it preserves message counts, ordering per link, and quorum-wait
// behaviour while allowing deterministic injection of latency, loss, and
// partitions.
//
// Every frame of every group crosses deliver, so the topology (ports,
// partition, latency, drop) is published as an immutable copy-on-write
// snapshot behind an atomic pointer: the per-frame path never takes a
// lock. A shared RWMutex read-locked per frame — the previous design —
// bounces one cache line across every core, serializing traffic of
// voter groups that share nothing else. Mutators (port creation, fault
// injection, close) are rare and serialize on mu.
type Network struct {
	mu   sync.Mutex // serializes mutators; deliver never takes it
	snap atomic.Pointer[netState]
}

// netState is one immutable topology snapshot. Maps are never modified
// after publication; mutators clone before writing.
type netState struct {
	ports   map[auth.NodeID]*Port
	closed  bool
	latency func(from, to auth.NodeID) time.Duration
	drop    func(from, to auth.NodeID) bool

	// partition holds the current partition assignment; principals in
	// different partitions cannot communicate. Empty means no partition.
	partition map[auth.NodeID]int
}

func (st *netState) clone() *netState {
	next := &netState{
		closed:    st.closed,
		latency:   st.latency,
		drop:      st.drop,
		partition: st.partition,
		ports:     make(map[auth.NodeID]*Port, len(st.ports)),
	}
	for k, v := range st.ports {
		next.ports[k] = v
	}
	return next
}

// mutate runs f against a private clone of the current topology and
// publishes the clone as the new snapshot.
func (n *Network) mutate(f func(st *netState)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.snap.Load().clone()
	f(st)
	n.snap.Store(st)
}

// NetworkOption configures a Network.
type NetworkOption func(*Network)

// WithLatency installs a per-link latency function. Frames are delivered
// after the returned delay. A nil function or zero duration delivers
// immediately (still asynchronously).
func WithLatency(f func(from, to auth.NodeID) time.Duration) NetworkOption {
	return func(n *Network) { n.SetLatency(f) }
}

// WithUniformLatency delays every frame by d.
func WithUniformLatency(d time.Duration) NetworkOption {
	return WithLatency(func(_, _ auth.NodeID) time.Duration { return d })
}

// WithDrop installs a frame-drop predicate, evaluated per frame.
func WithDrop(f func(from, to auth.NodeID) bool) NetworkOption {
	return func(n *Network) {
		n.mutate(func(st *netState) { st.drop = f })
	}
}

// WithLossRate drops each frame independently with probability p using
// the given source (deterministic across runs for a fixed seed).
func WithLossRate(p float64, rng *rand.Rand) NetworkOption {
	var mu sync.Mutex
	return WithDrop(func(_, _ auth.NodeID) bool {
		mu.Lock()
		defer mu.Unlock()
		return rng.Float64() < p
	})
}

// NewNetwork creates an empty in-process network.
func NewNetwork(opts ...NetworkOption) *Network {
	n := &Network{}
	n.snap.Store(&netState{ports: make(map[auth.NodeID]*Port)})
	for _, o := range opts {
		o(n)
	}
	return n
}

// portQueueDepth bounds the frames waiting in each port's inbound queue,
// not the batch its pump holds. BFT protocols retransmit, so dropping
// under overload is safe; blocking the sender would couple replica
// speeds and can deadlock in-process tests.
const portQueueDepth = 8192

// Port creates (or returns) the connection endpoint for id.
func (n *Network) Port(id auth.NodeID) *Port {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.snap.Load()
	if p, ok := st.ports[id]; ok && !p.closed.Load() {
		return p
	}
	// Either no port yet, or the existing one belongs to a departed
	// incarnation (membership replace); its successor under the same id
	// gets a fresh port.
	p := &Port{
		net:   n,
		id:    id,
		inbox: inbox.New[[]byte](portQueueDepth),
		ready: make(chan struct{}),
	}
	go p.pump()
	next := st.clone()
	next.ports[id] = p
	n.snap.Store(next)
	return p
}

// SetLatency replaces the per-link latency function at runtime (e.g. to
// model a testbed's RTT for benchmarks).
func (n *Network) SetLatency(f func(from, to auth.NodeID) time.Duration) {
	n.mutate(func(st *netState) { st.latency = f })
}

// SetUniformLatency delays every frame by d.
func (n *Network) SetUniformLatency(d time.Duration) {
	if d <= 0 {
		n.SetLatency(nil)
		return
	}
	n.SetLatency(func(_, _ auth.NodeID) time.Duration { return d })
}

// SetPartition assigns principals to numbered partitions. Principals not
// listed stay in partition 0. Passing nil heals all partitions.
func (n *Network) SetPartition(assignment map[auth.NodeID]int) {
	n.mutate(func(st *netState) { st.partition = assignment })
}

// Isolate places the given principals in their own partition, cut off
// from everyone else (including each other if isolateEachOther).
func (n *Network) Isolate(ids ...auth.NodeID) {
	assignment := make(map[auth.NodeID]int, len(ids))
	for i, id := range ids {
		assignment[id] = i + 1
	}
	n.SetPartition(assignment)
}

// Heal removes all partitions.
func (n *Network) Heal() { n.SetPartition(nil) }

// Close shuts down every port.
func (n *Network) Close() error {
	var ports []*Port
	n.mutate(func(st *netState) {
		st.closed = true
		for _, p := range st.ports {
			ports = append(ports, p)
		}
	})
	for _, p := range ports {
		_ = p.Close()
	}
	return nil
}

// deliver routes a frame the network owns: it is recycled when its
// handler returns, or as soon as it is dropped.
func (n *Network) deliver(from, to auth.NodeID, frame []byte) error {
	st := n.snap.Load()
	if st.closed {
		putFrameBuf(frame)
		return ErrClosed
	}
	dst, ok := st.ports[to]
	if ok && st.partition != nil && st.partition[from] != st.partition[to] {
		ok = false // partitioned: silently drop, like a real partition
	}
	if !ok || (st.drop != nil && st.drop(from, to)) {
		// Unknown, partitioned or dropped: drop silently. BFT layers
		// treat this as message loss.
		putFrameBuf(frame)
		return nil
	}
	var delay time.Duration
	if st.latency != nil {
		delay = st.latency(from, to)
	}
	if delay > 0 {
		time.AfterFunc(delay, func() { dst.enqueue(frame) })
		return nil
	}
	dst.enqueue(frame)
	return nil
}

// Port is one principal's endpoint on a Network. It implements
// Connection. Send and the delivery pump share only atomics and the
// inbound queue — the mutex guards the ready-gate bookkeeping of
// SetHandler/Close.
type Port struct {
	net   *Network
	id    auth.NodeID
	inbox *inbox.Queue[[]byte]

	closed  atomic.Bool
	handler atomic.Pointer[func(frame []byte)]

	mu        sync.Mutex
	readyDone bool          // ready has been closed
	ready     chan struct{} // closed once handler is set (or port closed)
}

var (
	_ Connection  = (*Port)(nil)
	_ ownedSender = (*Port)(nil)
)

// LocalID returns the port's principal.
func (p *Port) LocalID() auth.NodeID { return p.id }

// Send transmits a copy of frame to another principal on the same
// Network, so the frame stays the caller's.
func (p *Port) Send(to auth.NodeID, frame []byte) error {
	buf := getFrameBuf(len(frame))
	copy(buf, frame)
	return p.sendOwned(to, buf)
}

// sendOwned transmits frame itself, which must come from the frame
// pool: the receiving port recycles it once its handler returns.
func (p *Port) sendOwned(to auth.NodeID, frame []byte) error {
	if p.closed.Load() {
		putFrameBuf(frame)
		return ErrClosed
	}
	return p.net.deliver(p.id, to, frame)
}

// SetHandler installs the inbound handler and starts delivery.
func (p *Port) SetHandler(h func(frame []byte)) {
	p.handler.Store(&h)
	p.mu.Lock()
	if !p.readyDone {
		p.readyDone = true
		close(p.ready)
	}
	p.mu.Unlock()
}

// Close shuts the port down. Pending frames are discarded.
func (p *Port) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	p.mu.Lock()
	if !p.readyDone {
		p.readyDone = true
		close(p.ready) // release the pump
	}
	p.mu.Unlock()
	p.inbox.Close()
	return nil
}

// enqueue queues frame for the pump, or drops it on a closed port or a
// full queue (see portQueueDepth).
func (p *Port) enqueue(frame []byte) {
	if !p.inbox.Put(frame, true) {
		putFrameBuf(frame)
	}
}

// pump hands each queued frame to the handler, a batch per wake, once
// the handler is set.
func (p *Port) pump() {
	<-p.ready
	for batch, ok := [][]byte(nil), true; ok; batch, ok = p.inbox.Take(batch) {
		for _, frame := range batch {
			if p.closed.Load() {
				return
			}
			if h := p.handler.Load(); h != nil {
				(*h)(frame)
			}
			putFrameBuf(frame) // frames are call-scoped (Connection.SetHandler)
		}
	}
}

// String implements fmt.Stringer for diagnostics.
func (p *Port) String() string { return fmt.Sprintf("memnet.Port(%s)", p.id) }
