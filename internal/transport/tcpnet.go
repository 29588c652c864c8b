package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"perpetualws/internal/auth"
)

// AddressBook maps principals to dialable addresses. It is the runtime
// form of the paper's replicas.xml static endpoint mapping (Section 5.2):
// Perpetual-WS does not provide dynamic UDDI-style resolution, so
// deployments ship a static map.
type AddressBook struct {
	mu    sync.RWMutex
	addrs map[auth.NodeID]string
}

// NewAddressBook creates an empty address book.
func NewAddressBook() *AddressBook {
	return &AddressBook{addrs: make(map[auth.NodeID]string)}
}

// Set registers the address of a principal.
func (ab *AddressBook) Set(id auth.NodeID, addr string) {
	ab.mu.Lock()
	defer ab.mu.Unlock()
	ab.addrs[id] = addr
}

// Lookup resolves a principal to an address.
func (ab *AddressBook) Lookup(id auth.NodeID) (string, bool) {
	ab.mu.RLock()
	defer ab.mu.RUnlock()
	a, ok := ab.addrs[id]
	return a, ok
}

// TCPConn is a Connection over TCP with length-prefixed frames, built
// as an asynchronous per-link pipeline: every peer gets its own writer
// goroutine draining a bounded outbound queue through a buffered
// writer, so header and payload leave in one coalesced write and a
// slow, wedged, or unreachable peer fills only its own queue — frames
// to it are then dropped link-locally (the unreliable-channel
// assumption the BFT layers' retransmission already tolerates) while
// sends to healthy peers proceed unstalled. Connections are established
// and re-established by the writer goroutine in the background with
// exponential backoff, so Send never blocks on dialing. Inbound frames
// are read through a buffered reader into pooled buffers.
//
// The prototype's Connection module used SSL/TCP; MAC authentication at
// the ChannelAdapter provides integrity here, and deployments that need
// confidentiality can wrap the dialer/listener in TLS without changing
// this type's callers.
type TCPConn struct {
	id   auth.NodeID
	book *AddressBook
	ln   net.Listener
	cfg  tcpConfig

	handler atomic.Pointer[func(frame []byte)]
	stats   tcpStats

	// closeCtx is canceled by Close: it aborts in-flight dials and is
	// the writer goroutines' stop signal.
	closeCtx  context.Context
	closeStop context.CancelFunc

	mu       sync.RWMutex // guards links, accepted, closed
	links    map[auth.NodeID]*tcpLink
	accepted map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

var (
	_ Connection       = (*TCPConn)(nil)
	_ FramePartsSender = (*TCPConn)(nil)
	_ ownedSender      = (*TCPConn)(nil)
)

// tcpMaxFrame bounds a framed message on the wire, slightly above
// MaxFrameSize to account for the frame header.
const tcpMaxFrame = MaxFrameSize + 4096

// tcpConfig carries the tunables of one endpoint.
type tcpConfig struct {
	queueDepth int
	backoffMin time.Duration
	backoffMax time.Duration
}

// Defaults for the TCPOption-tunable queue depth, and the fixed dial
// timeout.
const (
	// DefaultTCPQueueDepth bounds each per-peer outbound queue. At the
	// default, a wedged peer strands at most queueDepth frames; BFT
	// retransmission recovers anything dropped beyond that.
	DefaultTCPQueueDepth = 512
	// DefaultTCPDialTimeout bounds one background connection attempt.
	DefaultTCPDialTimeout = 5 * time.Second
)

// TCPOption tunes a TCPConn.
type TCPOption func(*tcpConfig)

// WithQueueDepth bounds each per-peer outbound queue to n frames.
func WithQueueDepth(n int) TCPOption {
	return func(c *tcpConfig) {
		if n > 0 {
			c.queueDepth = n
		}
	}
}

// WithRedialBackoff sets the background dialer's backoff range.
func WithRedialBackoff(min, max time.Duration) TCPOption {
	return func(c *tcpConfig) {
		if min > 0 {
			c.backoffMin = min
		}
		if max >= min && max > 0 {
			c.backoffMax = max
		}
	}
}

// ListenTCP starts a TCP connection endpoint for id at addr
// (host:port; use port 0 for an ephemeral port). The effective address is
// available via Addr and should be registered in the address book.
func ListenTCP(id auth.NodeID, addr string, book *AddressBook, opts ...TCPOption) (*TCPConn, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	cfg := tcpConfig{
		queueDepth: DefaultTCPQueueDepth,
		backoffMin: 20 * time.Millisecond,
		backoffMax: 2 * time.Second,
	}
	for _, o := range opts {
		o(&cfg)
	}
	ctx, stop := context.WithCancel(context.Background())
	c := &TCPConn{
		id:        id,
		book:      book,
		ln:        ln,
		cfg:       cfg,
		closeCtx:  ctx,
		closeStop: stop,
		links:     make(map[auth.NodeID]*tcpLink),
		accepted:  make(map[net.Conn]struct{}),
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the listener's effective address.
func (c *TCPConn) Addr() string { return c.ln.Addr().String() }

// NetStats returns a snapshot of the endpoint's wire-level counters:
// frames and bytes on the sockets, link-local queue drops, redials,
// dial failures, severed links.
func (c *TCPConn) NetStats() TCPStatsSnapshot { return c.stats.snapshot() }

// QueueDropsByPeer returns the per-peer breakdown of the endpoint's
// link-local drops (queue-full and oversized frames), keyed by the
// destination principal. Peers with zero drops are omitted. This is the
// operator's overload-pressure surface: one wedged or Byzantine-slow
// peer shows up as one hot row, not an anonymous aggregate.
func (c *TCPConn) QueueDropsByPeer() map[auth.NodeID]uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[auth.NodeID]uint64, len(c.links))
	for peer, l := range c.links {
		if n := l.drops.Load(); n > 0 {
			out[peer] = n
		}
	}
	return out
}

// LocalID returns the connection's principal.
func (c *TCPConn) LocalID() auth.NodeID { return c.id }

// SetHandler installs the inbound frame handler. The frame passed to
// the handler is only valid for the duration of the call: inbound
// buffers are pooled and reused once the handler returns (overwritten
// first under the race detector), so handlers must copy any bytes they
// retain (the wire codecs' decode paths already deep-copy every
// retained field).
func (c *TCPConn) SetHandler(h func(frame []byte)) {
	c.handler.Store(&h)
}

func (c *TCPConn) isClosed() bool {
	return c.closeCtx.Err() != nil
}

// Send frames and transmits payload to the principal to. The frame is
// enqueued on the peer's link (created on first use; connections are
// dialed in the background) and Send returns immediately: a full queue
// drops the frame link-locally and still returns nil, per the
// Connection contract that overloaded links lose messages rather than
// stall senders. The frame is never recycled into the shared buffer
// pool — only SendFrameParts and sendOwned transfer ownership — so
// callers may resend the same (immutable) buffer.
func (c *TCPConn) Send(to auth.NodeID, frame []byte) error {
	return c.send(to, frame, nil, false)
}

// sendOwned transmits a whole frame drawn from the frame pool, taking
// ownership: it is recycled once flushed or dropped.
func (c *TCPConn) sendOwned(to auth.NodeID, frame []byte) error {
	return c.send(to, frame, nil, true)
}

// SendFrameParts transmits a frame supplied as two parts: a
// per-receiver head and an optional shared body, written back to back
// on the wire. It is the encode-once multicast seam: n receivers share
// one immutable body while only their small MAC-bearing heads differ.
// Ownership of the head transfers to the connection — it is recycled
// into the frame-buffer pool once flushed or dropped, so the caller
// must have allocated it freshly (the ChannelAdapter does) and must
// not touch it after the call. The body is shared across links, is
// never pooled, and must not be mutated by anyone after the call.
func (c *TCPConn) SendFrameParts(to auth.NodeID, head, body []byte) error {
	return c.send(to, head, body, true)
}

func (c *TCPConn) send(to auth.NodeID, head, body []byte, owned bool) error {
	reclaim := func() {
		if owned {
			putFrameBuf(head)
		}
	}
	if to == c.id {
		// Loopback without touching the network stack.
		if c.isClosed() {
			return ErrClosed
		}
		if h := c.handler.Load(); h != nil {
			frame := head
			if len(body) > 0 {
				frame = make([]byte, 0, len(head)+len(body))
				frame = append(frame, head...)
				frame = append(frame, body...)
			}
			(*h)(frame)
		}
		reclaim()
		return nil
	}
	l, err := c.link(to)
	if err != nil {
		reclaim()
		return err
	}
	select {
	case l.q <- outFrame{head: head, body: body, owned: owned}:
	default:
		// Queue full: this link is slow or down. Drop link-locally so
		// neither the sender nor healthy peers wait on it.
		c.stats.queueDrops.Add(1)
		l.drops.Add(1)
		reclaim()
	}
	return nil
}

// link returns the outbound pipeline for a peer, creating it (and its
// writer goroutine) on first use. A closed endpoint always reports
// ErrClosed — including for cached links, whose writer goroutines have
// exited and would otherwise swallow sends as queue drops forever.
func (c *TCPConn) link(to auth.NodeID) (*tcpLink, error) {
	c.mu.RLock()
	l, ok := c.links[to]
	closed := c.closed
	c.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if ok {
		return l, nil
	}
	if _, ok := c.book.Lookup(to); !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDest, to)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if l, ok := c.links[to]; ok {
		return l, nil
	}
	l = &tcpLink{
		owner: c,
		peer:  to,
		q:     make(chan outFrame, c.cfg.queueDepth),
	}
	c.links[to] = l
	c.wg.Add(1)
	go l.run()
	return l, nil
}

// outFrame is one queued outbound frame: a per-receiver head and an
// optional shared body (see SendFrameParts). owned marks heads whose
// ownership was transferred, eligible for pool reclaim after writing.
type outFrame struct {
	head  []byte
	body  []byte
	owned bool
}

func (f outFrame) wireLen() int { return len(f.head) + len(f.body) }

// tcpLink is the outbound pipeline to one peer: a bounded frame queue
// drained by a dedicated writer goroutine that dials (and redials) in
// the background and coalesces queued frames into single buffered
// writes.
type tcpLink struct {
	owner *TCPConn
	peer  auth.NodeID
	q     chan outFrame

	// drops is this link's share of the endpoint's QueueDrops — the
	// per-peer back-pressure breakdown (see QueueDropsByPeer): a single
	// wedged or Byzantine-slow peer shows up as one hot row instead of
	// an anonymous aggregate.
	drops atomic.Uint64

	// mu guards conn so Close can sever a connection the writer
	// goroutine is blocked writing to.
	mu   sync.Mutex
	conn net.Conn
}

// setConn swaps the link's active connection, closing any previous one,
// and reports whether the link (i.e. the endpoint) is still open.
func (l *tcpLink) setConn(conn net.Conn) bool {
	l.mu.Lock()
	if l.conn != nil && l.conn != conn {
		l.conn.Close()
	}
	l.conn = conn
	l.mu.Unlock()
	if l.owner.isClosed() {
		l.closeConn()
		return false
	}
	return true
}

func (l *tcpLink) closeConn() {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.mu.Unlock()
}

// run is the link's writer goroutine: connect with backoff, drain the
// queue, coalesce, flush, sever and redial on error, exit on Close.
func (l *tcpLink) run() {
	c := l.owner
	defer c.wg.Done()
	defer l.closeConn()
	// Reclaim owned heads still queued when the writer exits (Close
	// with in-flight traffic); nothing else will drain the queue.
	defer func() {
		for {
			select {
			case f := <-l.q:
				if f.owned {
					putFrameBuf(f.head)
				}
			default:
				return
			}
		}
	}()

	var bw *bufio.Writer
	dialed := false
	backoff := c.cfg.backoffMin
	var hdr [4]byte

	for {
		// Establish a connection if the link has none.
		for bw == nil {
			if c.isClosed() {
				return
			}
			addr, ok := c.book.Lookup(l.peer)
			if !ok {
				// Not (yet) registered: wait and retry — the book may be
				// populated after the first Send in bring-up orders.
				if !l.sleep(&backoff) {
					return
				}
				continue
			}
			d := net.Dialer{Timeout: DefaultTCPDialTimeout}
			conn, err := d.DialContext(c.closeCtx, "tcp", addr)
			if err != nil {
				c.stats.dialFails.Add(1)
				if !l.sleep(&backoff) {
					return
				}
				continue
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.SetNoDelay(true)
			}
			if !l.setConn(conn) {
				return
			}
			if dialed {
				c.stats.redials.Add(1)
			}
			dialed = true
			backoff = c.cfg.backoffMin
			bw = bufio.NewWriterSize(conn, 32<<10)
		}

		// Wait for traffic.
		var f outFrame
		select {
		case f = <-l.q:
		case <-c.closeCtx.Done():
			return
		}

		// Write it, coalescing whatever else is already queued into the
		// same buffered burst, then flush once.
		l.mu.Lock()
		conn := l.conn
		l.mu.Unlock()
		if conn == nil {
			if f.owned {
				putFrameBuf(f.head) // frame dropped: severed under us (Close in progress)
			}
			bw = nil
			continue
		}
		// No write deadline: a peer that stops reading costs only its own
		// bounded queue, and TCP keepalive reaps dead peers.
		err := l.writeFrame(bw, hdr[:], f)
		yielded := false
		for err == nil {
			select {
			case f = <-l.q:
				err = l.writeFrame(bw, hdr[:], f)
				continue
			default:
			}
			if !yielded && bw.Buffered() < 16<<10 {
				// Give producers one scheduler pass to extend this burst
				// before paying the flush syscall: under load, protocol
				// steps that would have queued right after the flush now
				// coalesce into it (and the receiver drains the combined
				// segment with one wakeup). On an idle scheduler this
				// returns immediately, so it does not trade latency away.
				yielded = true
				runtime.Gosched()
				continue
			}
			err = bw.Flush()
			c.stats.flushes.Add(1)
			break
		}
		if err != nil {
			// Sever: drop the connection and let the outer loop redial
			// with backoff. The frame(s) in this burst are lost — the
			// channel is unreliable by contract.
			c.stats.severed.Add(1)
			l.closeConn()
			bw = nil
		}
	}
}

// writeFrame appends one length-prefixed frame to the buffered writer
// and recycles owned head buffers (bufio has copied them — or written
// them through — by the time Write returns).
func (l *tcpLink) writeFrame(bw *bufio.Writer, hdr []byte, f outFrame) error {
	if f.owned {
		defer putFrameBuf(f.head)
	}
	n := f.wireLen()
	if n > tcpMaxFrame {
		// Oversized: drop rather than poison the stream — counted, like
		// every link-local loss.
		l.owner.stats.queueDrops.Add(1)
		l.drops.Add(1)
		return nil
	}
	binary.BigEndian.PutUint32(hdr, uint32(n))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if _, err := bw.Write(f.head); err != nil {
		return err
	}
	if len(f.body) > 0 {
		if _, err := bw.Write(f.body); err != nil {
			return err
		}
	}
	l.owner.stats.framesOut.Add(1)
	l.owner.stats.bytesOut.Add(uint64(n))
	return nil
}

// sleep waits for the current backoff (doubling it toward the max) or
// until the endpoint closes; it reports false on close.
func (l *tcpLink) sleep(backoff *time.Duration) bool {
	t := time.NewTimer(*backoff)
	defer t.Stop()
	*backoff *= 2
	if *backoff > l.owner.cfg.backoffMax {
		*backoff = l.owner.cfg.backoffMax
	}
	select {
	case <-t.C:
		return true
	case <-l.owner.closeCtx.Done():
		return false
	}
}

func (c *TCPConn) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.accepted[conn] = struct{}{}
		c.mu.Unlock()
		c.wg.Add(1)
		go c.readLoop(conn)
	}
}

func (c *TCPConn) readLoop(conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		conn.Close()
		c.mu.Lock()
		delete(c.accepted, conn)
		c.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > tcpMaxFrame {
			// Protocol violation: sever exactly this link; other links
			// (and the sender's own loop) are unaffected.
			c.stats.severed.Add(1)
			return
		}
		frame := getFrameBuf(int(n))
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		c.stats.framesIn.Add(1)
		c.stats.bytesIn.Add(uint64(n))
		if c.isClosed() {
			return
		}
		if h := c.handler.Load(); h != nil {
			(*h)(frame)
		}
		putFrameBuf(frame)
	}
}

// Close shuts down the listener, every link, and every accepted
// connection, and waits for all pipeline goroutines to exit. It is safe
// to call concurrently with active traffic: blocked writers are
// unblocked by closing their connections, and in-flight dials are
// canceled.
func (c *TCPConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	links := make([]*tcpLink, 0, len(c.links))
	for _, l := range c.links {
		links = append(links, l)
	}
	accepted := make([]net.Conn, 0, len(c.accepted))
	for conn := range c.accepted {
		accepted = append(accepted, conn)
	}
	c.mu.Unlock()

	c.closeStop() // stops writers, aborts dials and backoff sleeps
	err := c.ln.Close()
	for _, l := range links {
		l.closeConn() // unblocks writers stuck in conn.Write
	}
	for _, conn := range accepted {
		_ = conn.Close()
	}
	c.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
