package perpetual

import (
	"container/heap"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"perpetualws/internal/auth"
	"perpetualws/internal/transport"
	"perpetualws/internal/wire"
)

// ErrClosed is returned by driver operations after shutdown.
var ErrClosed = errors.New("perpetual: driver closed")

// DefaultRetransmitInterval is the initial retransmission delay for
// unanswered requests; it doubles per attempt (with ±20% jitter, capped
// at maxRetransmitBackoff).
const DefaultRetransmitInterval = time.Second

// maxRetransmitBackoff caps the exponential retransmission backoff so a
// long-outstanding request still probes a recovering group within a
// bounded interval instead of silently backing off toward minutes.
const maxRetransmitBackoff = 30 * time.Second

// DefaultReadFallback is the length of a fast-path read's window: how
// long the replicas it asked have to return f_t+1 matching speculative
// endorsements before the read widens to the whole group or, once
// widened, deterministically falls back to full agreement under the
// same request id. The caller's deadline is the call's own due time.
const DefaultReadFallback = 150 * time.Millisecond

// IncomingRequest is an agreed external request awaiting execution.
type IncomingRequest struct {
	ReqID   string
	Caller  string
	Payload []byte
}

// Reply is the agreed outcome of a request this service issued. Aborted
// replies are produced deterministically when a request times out.
type Reply struct {
	ReqID   string
	Payload []byte
	Aborted bool
	// Overloaded marks a reply synthesized locally after f_t+1 distinct
	// target voters refused the request under overload; RetryAfterMillis
	// carries their largest backoff hint and Expired whether any refusal
	// was a deadline-expiry drop. Only unreplicated callers (N == 1)
	// settle overload locally — a replicated caller observes overload as
	// the agreed abort, or, on a reply fast-path call, not at all (it
	// retries after the hint), so its event stream stays deterministic.
	Overloaded       bool
	Expired          bool
	RetryAfterMillis uint64
	// Blocking copies Request.Blocking: only the issuing thread may take
	// this reply, which the reply fast path may post outside agreed order.
	Blocking bool
}

// EventKind discriminates merged driver events.
type EventKind uint8

// Driver event kinds.
const (
	EventRequest EventKind = iota + 1
	EventReply
)

// Event is one agreed event in the driver's merged queue: either an
// incoming request or a reply/abort. The merged order is the voter
// group's agreement order, identical on every replica.
type Event struct {
	Kind    EventKind
	Request IncomingRequest // when Kind == EventRequest
	Reply   Reply           // when Kind == EventReply
}

// Driver is the active half of a Perpetual replica: it hosts the
// application executor, issues requests on its behalf (stage 1),
// verifies reply bundles (stage 7), and exposes the blocking accessors
// the Perpetual-WS MessageHandler API is built on. All methods are safe
// for use by the single executor thread plus internal goroutines.
type Driver struct {
	svc      ServiceInfo
	index    int
	registry *Registry
	adapter  *transport.ChannelAdapter
	ks       *auth.KeyStore
	voter    *voter
	logger   *log.Logger

	retransmitInterval time.Duration

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool

	reqSeq  uint64
	utilSeq uint64

	// done is closed by close, releasing every waiter on a call's sink.
	done chan struct{}

	// events is the merged agreed-order queue; all blocking accessors
	// consume from it, so mixed consumption (NextRequest on one code
	// path, WaitReply on another) stays coherent and deterministic.
	events []Event

	// outstanding holds the calls and fast-path reads awaiting their
	// outcome (see call and step); a call leaves it when it settles, so
	// nothing ever settles twice.
	outstanding map[string]*call
	utils       map[uint64]int64

	// alarm is the driver's one timer; due heaps the calls that have a
	// due time (see onFire). jitter is seeded from the driver's identity,
	// so one seed replays it.
	alarm  alarm
	due    dueHeap
	jitter *rand.Rand

	// maxOutstanding caps the calls and fast-path reads this driver keeps
	// in flight per target group (0 = unbounded); inflight is the gauge.
	// The cap is the client edge of the admission pipeline: once the
	// window to a target is full, further Dos fail fast with the same
	// RETRY-AFTER fault a remote busy quorum produces — at the cost of a
	// map lookup instead of a group-wide fan-out of authenticated frames
	// and busy replies. Under an open-loop overload that difference is
	// the goodput: shedding must stay far cheaper than serving, or the
	// shed traffic itself starves the agreement pipeline it protects.
	// The voter-side gates stay load-bearing regardless: a group serving
	// many drivers cannot trust any one of them to self-limit.
	maxOutstanding int
	inflight       map[string]int
	localSheds     atomic.Uint64

	// primaryHint tracks, per target group, the advisory CLBFT primary
	// index learned from verified reply bundles (ReplyBundle.Primary).
	// First request attempts unicast to the hinted voter — hitting the
	// actual primary saves the forwarding hop through a backup — and a
	// stale hint is repaired by the retransmission fan-out plus the next
	// bundle. Unknown targets default to index 0 (the view-0 primary).
	primaryHint map[string]int

	// Session-tier read fast path (see issueRead). readFloor is the
	// session's lease per target group: the highest agreement position
	// (clbft.Delivery.Pos) a certified read was stamped with or a write
	// settled from a verified bundle at, so later reads are both
	// monotonic and see the session's writes. readPartners lists, per
	// target group, the endorsers of the last certified read in the
	// order they answered (see askFirst); readStats counts read outcomes
	// (see stepLocked).
	readFloor    map[string]uint64
	readPartners map[string][]int
	readStats    ReadStats

	// early holds outcomes that arrived for request ids this driver has
	// not issued yet (id number above reqSeq), as one evParked event per
	// id: a lagging replica's executor often issues a call after the
	// target's verified bundle, or the agreed reply, already reached its
	// driver. startRequest feeds the entry to the call when it is issued
	// (see parkable).
	early *boundedCache[callEvent]
}

// ReadStats counts session-tier read fast-path outcomes at one driver.
// The fast path is an optimization, never a correctness lever: every
// fallback sends the identical request through full agreement, so
// Attempts == Certified + Fallbacks + Shed + Canceled + still-in-flight
// at all times.
type ReadStats struct {
	// Attempts is the number of reads issued through the fast path.
	Attempts uint64
	// Certified is the number of reads answered by f_t+1 matching
	// speculative digest endorsements (agreement skipped entirely).
	Certified uint64
	// Fallbacks is the number of reads that left the fast path
	// uncertified: sent through agreement, or aborted because the
	// caller's deadline passed inside the fast window.
	Fallbacks uint64
	// FallbackTimeout counts fallbacks whose fast window or deadline
	// expired.
	FallbackTimeout uint64
	// FallbackDiverged counts fallbacks forced by conflicting digests,
	// stale endorsements, behind replicas, or an unobtainable payload.
	FallbackDiverged uint64
	// Canceled counts reads settled by a ctx cancel before either
	// certification or fallback (see Driver.Do).
	Canceled uint64
	// Shed counts reads settled as overloaded by f_t+1 busy-read
	// refusals from the target group (no agreement fallback — see
	// Driver.handleBusy).
	Shed uint64
	// Widened counts reads that asked the rest of the target group after
	// their first f_t+1 replicas could not settle them. A widened read
	// still ends in exactly one of the outcomes above.
	Widened uint64
}

func newDriver(svc ServiceInfo, index int, reg *Registry, adapter *transport.ChannelAdapter, ks *auth.KeyStore, v *voter, logger *log.Logger) *Driver {
	d := &Driver{
		svc:                svc,
		index:              index,
		registry:           reg,
		adapter:            adapter,
		ks:                 ks,
		voter:              v,
		logger:             logger,
		retransmitInterval: DefaultRetransmitInterval,
		done:               make(chan struct{}),
		outstanding:        make(map[string]*call),
		inflight:           make(map[string]int),
		utils:              make(map[uint64]int64),
		primaryHint:        make(map[string]int),
		readFloor:          make(map[string]uint64),
		readPartners:       make(map[string][]int),
		early:              newBoundedCache[callEvent](reqTableSize),
		jitter:             rand.New(rand.NewSource(int64(fnv64a([]byte(svc.Name)) + uint64(index)))),
	}
	d.cond = sync.NewCond(&d.mu)
	d.alarm = newAlarm(d.fire)
	return d
}

// acquireSlot claims an in-flight window slot toward target, failing
// when the window is full (caller holds d.mu). With no window configured
// it reports success without accounting, so the gauge costs nothing.
func (d *Driver) acquireSlot(target string) bool {
	if d.maxOutstanding <= 0 {
		return true
	}
	if d.inflight[target] >= d.maxOutstanding {
		d.localSheds.Add(1)
		return false
	}
	d.inflight[target]++
	return true
}

// releaseSlot returns a held window slot (caller holds d.mu); counted
// makes the release idempotent.
func (d *Driver) releaseSlot(target string, counted *bool) {
	if !*counted {
		return
	}
	*counted = false
	if n := d.inflight[target]; n > 1 {
		d.inflight[target] = n - 1
	} else {
		delete(d.inflight, target)
	}
}

// LocalSheds reports how many calls and reads this driver refused at
// its own in-flight window, before any frame was built or sent.
func (d *Driver) LocalSheds() uint64 { return d.localSheds.Load() }

func (d *Driver) logf(format string, args ...any) {
	if d.logger != nil {
		d.logger.Printf("driver[%s/%d]: "+format, append([]any{d.svc.Name, d.index}, args...)...)
	}
}

// ServiceName returns the name of the service this driver belongs to.
func (d *Driver) ServiceName() string { return d.svc.Name }

// handleTransport dispatches inbound driver-addressed messages (reply
// bundles from responders). A bundle's share vectors alias the frame:
// verification, the fast-path settle (which keeps only the copied
// payload) and the forward to the voter group all finish before the
// handler returns, and the one path that keeps a bundle, parking it in
// d.early, keeps a detached copy.
func (d *Driver) handleTransport(from auth.NodeID, payload []byte) {
	m, err := decodeMessage(payload, true)
	if err != nil {
		d.logf("malformed message from %s: %v", from, err)
		return
	}
	switch m.Kind {
	case KindReplyBundle:
		if m.ReplyBundle != nil {
			d.handleBundle(from, m.ReplyBundle)
		}
	case KindReadReply:
		d.handleReadReply(from, m.ReadReply)
	case KindBusy:
		d.handleBusy(from, m.Busy)
	}
}

// handleBusy collects overload refusals from target voters. One busy
// frame proves nothing — up to f voters are Byzantine and may lie about
// overload — so a request (or fast-path read) settles as shed only once
// f_t+1 DISTINCT voters refused it: that quorum contains a correct
// voter, so the group really is refusing work (or really saw the
// deadline pass). A call's refusals feed step's evBusy row, which also
// says who may settle overload locally; a read's feed evBusyRead, which
// sheds the read without the agreement fallback (falling back would add
// agreement load exactly when the target shed the read to protect it).
func (d *Driver) handleBusy(from auth.NodeID, bz *BusyReply) {
	if bz == nil || from.Role != auth.RoleVoter || bz.Replica != from.Index || from.Index < 0 {
		return
	}
	kind := evBusy
	if bz.Read {
		kind = evBusyRead
	}
	d.run(bz.ReqID, callEvent{
		kind: kind, from: from.Service, replica: from.Index,
		hint: bz.RetryAfterMillis, refusedExpired: bz.Expired,
	})
}

// handleBundle verifies a stage-6 reply bundle and feeds it to its call
// (see step's evBundle row): a fast-path call settles with it, any other
// call forwards it to the voter group primary for agreement (stage 7). A
// bundle for a request this driver has not issued yet is parked for the
// issue (see parkable).
func (d *Driver) handleBundle(from auth.NodeID, b *ReplyBundle) {
	target, err := d.registry.Lookup(b.Target)
	if err != nil {
		return
	}
	if from.Service != b.Target || from.Role != auth.RoleVoter {
		return // bundles come from a voter of the target service
	}
	d.mu.Lock()
	_, waiting := d.outstanding[b.ReqID]
	wanted := waiting || d.parkable(b.ReqID)
	d.mu.Unlock()
	if !wanted {
		return // unknown or already-settled request
	}
	if err := VerifyBundle(d.ks, target, b); err != nil {
		d.logf("bundle for %s rejected: %v", b.ReqID, err)
		return
	}
	// Adopt the responder's primary hint for future first attempts. Only
	// verified bundles update it, and a lying responder merely redirects
	// first attempts at a voter that forwards (or the retransmission
	// fan-out corrects it) — routing, never safety.
	d.mu.Lock()
	if b.Primary >= 0 && b.Primary < target.N {
		d.primaryHint[b.Target] = b.Primary
	}
	d.mu.Unlock()
	d.run(b.ReqID, callEvent{kind: evBundle, bundle: b})
}

// forward hands a verified bundle to this group's primary voter for
// agreement (stage 7); non-primary voters relay.
func (d *Driver) forward(b *ReplyBundle) {
	fw := &Message{Kind: KindResultForward, ResultForward: b}
	w := wire.GetWriter(fw.SizeHint())
	fw.EncodeTo(w)
	primary := d.voter.bft().Primary()
	if err := d.adapter.Send(auth.VoterID(d.svc.Name, primary), w.Bytes()); err != nil {
		d.logf("result forward for %s: %v", b.ReqID, err)
	}
	w.Free()
}

// fanAllShards issues one independent request per shard of a sharded
// target, in shard order (the AllShards arm of Do), with a sink per leg
// when Do waits for them. A mid-fan-out error cancels the legs already
// issued (every replica fails the same shard the same way), so no
// request is left outstanding with timers running, and their outcomes
// never surface: the application only learns the error, so replies to
// ids it never learned would sit in the event queue unconsumable.
func (d *Driver) fanAllShards(target string, payload []byte, timeout time.Duration, wait bool) ([]string, []chan Reply, error) {
	tinfo, err := d.registry.Lookup(target)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]string, 0, tinfo.ShardCount())
	var sinks []chan Reply
	for k := 0; k < tinfo.ShardCount(); k++ {
		c := &call{payload: payload, timeout: timeout, fast: d.fastPath(false, timeout)}
		if wait {
			c.sink = make(chan Reply, 1)
			sinks = append(sinks, c.sink)
		}
		id, err := d.startRequest(tinfo.Shard(k), c)
		if err != nil {
			for _, issued := range ids {
				d.cancelRequest(issued)
			}
			return nil, nil, err
		}
		ids = append(ids, id)
	}
	return ids, sinks, nil
}

// fastPath is the reply fast-path rule, decided once per call at issue
// time from inputs every replica of the caller shares. A call takes the
// fast path — its verified bundle settles it directly, with no
// caller-side agreement — when the caller cannot consume the reply out
// of agreed order anyway: the caller is unreplicated, so there is no
// order to agree on; or the issuing thread is blocked on exactly this
// reply and set no caller-side deadline, so it consumes the reply
// whenever it arrives and nothing could abort it first. Every other
// call (asynchronous issue, a deadline) keeps the agreed
// OpReply/OpAbort path.
func (d *Driver) fastPath(blocking bool, timeout time.Duration) bool {
	return d.svc.N == 1 || (blocking && timeout == 0)
}

// parkable reports whether reqID is one of this driver's own request ids
// above reqSeq, i.e. not issued yet (caller holds d.mu). Every id at or
// below reqSeq was reserved and registered in one d.mu hold, so an
// unregistered one is settled and an outcome for it is stale.
func (d *Driver) parkable(reqID string) bool {
	n, ok := callerReqSeq(reqID, d.svc.Name)
	return ok && n > d.reqSeq
}

// callerReqSeq extracts the driver-local request number from a reqID of
// the form "<caller>:<n>" (see Driver.nextReqID). Non-numeric suffixes
// report false.
func callerReqSeq(reqID, caller string) (uint64, bool) {
	if len(reqID) <= len(caller)+1 || reqID[:len(caller)] != caller || reqID[len(caller)] != ':' {
		return 0, false
	}
	var n uint64
	for i := len(caller) + 1; i < len(reqID); i++ {
		c := reqID[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// nextReqID reserves the next request id, "<caller>:<reqSeq>" (caller
// holds d.mu): the one id a call has, on both sides of every hop.
func (d *Driver) nextReqID() string {
	d.reqSeq++
	return d.svc.Name + ":" + strconv.FormatUint(d.reqSeq, 10)
}

// admit reserves c's id and registers it toward tinfo (caller holds
// d.mu): it claims the in-flight window slot, enters d.outstanding, and
// from one clock reading stamps the expiry and sets the deadline and the
// first retransmission, or a read's first window. Reservation and
// registration share the caller's d.mu hold, so an outcome for the id is
// either seen by the registered call or parked where the issue finds it
// (see parkable). It is a shell function.
func (d *Driver) admit(tinfo ServiceInfo, c *call) error {
	if d.closed {
		return ErrClosed
	}
	if !d.acquireSlot(tinfo.Name) {
		// Client-edge admission: the in-flight window to this target is
		// full, so refuse with the deterministic RETRY-AFTER fault before
		// building or sending anything.
		return &OverloadError{RetryAfter: DefaultRetryAfterHint}
	}
	c.target = tinfo.Name
	c.id = d.nextReqID()
	c.responder = int(d.reqSeq % uint64(tinfo.N))
	c.counted = d.maxOutstanding > 0
	now, first := time.Now(), d.retransmitInterval
	if c.reading() {
		first = DefaultReadFallback
	}
	c.retryAt = now.Add(first)
	if c.timeout > 0 {
		c.deadline = now.Add(c.timeout)
		// Deadline propagation: stamp the caller's deadline (ctx deadline
		// or explicit Timeout, both already folded into timeout) into the
		// request envelope so replicas can drop expired work at every
		// pre-agreement stage instead of ordering it.
		c.expiry = uint64(c.deadline.UnixMilli())
	}
	d.outstanding[c.id] = c
	d.schedule(c)
	d.wake(now)
	return nil
}

// startRequest issues an agreement-path request (stage 1 proper): it
// admits c, feeds it an outcome parked before the issue, and sends the
// first attempt unless that outcome already settled it.
func (d *Driver) startRequest(tinfo ServiceInfo, c *call) (string, error) {
	d.mu.Lock()
	if err := d.admit(tinfo, c); err != nil {
		d.mu.Unlock()
		return "", err
	}
	if e, ok := d.early.Get(c.id); ok {
		// The outcome that matches how the call was issued answers it
		// without sending anything (step's evParked row).
		d.early.Delete(c.id)
		d.stepLocked(c.id, e)
		if d.outstanding[c.id] != c {
			d.mu.Unlock()
			return c.id, nil
		}
	}
	responder, hint := c.responder, d.primaryHint[c.target]
	d.mu.Unlock()
	if err := d.sendFirst(c, tinfo, responder, hint); err != nil {
		// Without this the entry would never be reaped and Outstanding()
		// would over-count forever; its caller only learns the error.
		d.abandon(c, true)
		return "", err
	}
	return c.id, nil
}

// sendFirst transmits c's first attempt — the send half of startRequest,
// which a read's fallback shares. The first attempt goes to the believed
// primary, hint — learned from the target's reply bundles, index 0
// before the first bundle; retransmissions fan out to the whole group,
// so a crashed or superseded primary costs one retransmission interval,
// never liveness.
func (d *Driver) sendFirst(c *call, tinfo ServiceInfo, responder, hint int) error {
	if hint < 0 || hint >= tinfo.N {
		hint = 0
	}
	req, err := d.buildRequest(c.id, tinfo, c.payload, responder, 0, c.expiry)
	if err != nil {
		return err
	}
	if err := d.sendRequest(req, []auth.NodeID{auth.VoterID(c.target, hint)}); err != nil {
		d.logf("request %s: %v", c.id, err)
	}
	return nil
}

// abandon settles c as aborted when its first attempt could not be built,
// silently when the caller learns the error instead.
func (d *Driver) abandon(c *call, silent bool) {
	d.mu.Lock()
	if d.outstanding[c.id] == c {
		c.silent = c.silent || silent
		d.settle(c, Reply{ReqID: c.id, Aborted: true})
	}
	d.mu.Unlock()
}

// run is the executor of step, and a shell function: it stamps one
// event with the time, feeds it to the call reqID names and performs the
// actions that follow, the bookkeeping ones (settle, certify, shed,
// arm-retry, and the due times of widen and fall-back) under d.mu and
// the network ones (forward, resend, propose-abort, and the sends of
// widen and fall-back) after releasing it.
func (d *Driver) run(reqID string, ev callEvent) {
	ev.now = time.Now()
	d.mu.Lock()
	fx := d.stepLocked(reqID, ev)
	d.wake(ev.now)
	d.mu.Unlock()
	d.perform(fx)
}

// fire is the timer's shell function: it stamps the fire with the time.
func (d *Driver) fire() { d.onFire(time.Now()) }

// onFire clears the earliest due time of each call due at or before now
// and feeds it that event: evDeadline, or evRetry (evWindow while it is
// a read). Then it re-arms the timer and performs the network actions
// once d.mu is released. An early fire finds nothing due.
func (d *Driver) onFire(now time.Time) {
	var fxs []effects
	d.mu.Lock()
	for len(d.due) > 0 && !now.Before(d.due[0].due()) {
		c, ev := d.due[0], callEvent{kind: evRetry, now: now}
		if c.reading() {
			ev.kind = evWindow
		}
		if c.due().Equal(c.deadline) {
			c.deadline, ev.kind = time.Time{}, evDeadline
		} else {
			c.retryAt = time.Time{}
		}
		d.schedule(c)
		fxs = append(fxs, d.stepLocked(c.id, ev))
	}
	d.wake(now)
	d.mu.Unlock()
	for _, fx := range fxs {
		d.perform(fx)
	}
}

// schedule moves c's slot in the due heap to its earliest due time, or
// out of the heap when it has none (caller holds d.mu).
func (d *Driver) schedule(c *call) {
	if c.slot < len(d.due) && d.due[c.slot] == c {
		heap.Remove(&d.due, c.slot)
	}
	if !c.due().IsZero() {
		heap.Push(&d.due, c)
	}
}

// wake sets the alarm for the earliest due time, none when nothing is
// due (caller holds d.mu).
func (d *Driver) wake(now time.Time) {
	var due time.Time
	if len(d.due) > 0 {
		due = d.due[0].due()
	}
	d.alarm.set(due, now)
}

// alarm is a node's one reusable timer, set for at. Callers pass set the
// earliest due time they hold; set moves the timer only sooner, unless
// now has reached at: then the timer ran out, and set re-arms it.
type alarm struct {
	t  *time.Timer
	at time.Time
}

// newAlarm is a shell function: it makes a node's timer, stopped.
func newAlarm(fire func()) alarm {
	t := time.AfterFunc(time.Hour, fire)
	t.Stop()
	return alarm{t: t}
}

// set arms the alarm for due (zero: none) as of now.
func (a *alarm) set(due, now time.Time) {
	if !a.at.IsZero() && !now.Before(a.at) {
		a.at = time.Time{} // it ran out
	}
	if !due.IsZero() && (a.at.IsZero() || due.Before(a.at)) {
		a.at = due
		a.t.Reset(due.Sub(now))
	}
}

// dueHeap is a min-heap of calls by due time; each keeps its index in
// slot.
type dueHeap []*call

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(i, j int) bool { return h[i].due().Before(h[j].due()) }
func (h dueHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].slot, h[j].slot = i, j
}
func (h *dueHeap) Push(x any) {
	c := x.(*call)
	c.slot = len(*h)
	*h = append(*h, c)
}
func (h *dueHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return c
}

// effects are the network actions of one step, kept for after d.mu is
// released; the other slots of acts stay zero.
type effects struct {
	c     *call
	tinfo ServiceInfo // the target group, for actResend
	acts  [2]callAction
	read  *ReadRequest // actWiden's request
	hint  int          // actFallBack's primary hint
}

// stepLocked looks the call up, supplies step's inputs, runs it and
// applies its bookkeeping actions, counting a read's outcomes in
// d.readStats, and returns the rest (caller holds d.mu). An outcome for
// an id not issued yet is parked for its issue (see parkable); any other
// event for an unknown id is stale and dropped.
func (d *Driver) stepLocked(reqID string, ev callEvent) (fx effects) {
	if d.closed {
		return fx
	}
	c, ok := d.outstanding[reqID]
	if !ok {
		if (ev.kind == evBundle || ev.kind == evAgreed) && d.parkable(reqID) {
			e, _ := d.early.Get(reqID)
			if ev.kind == evBundle {
				e.bundle = ev.bundle.detached()
			} else {
				ev.bundle, ev.agreed = e.bundle, true
				e = ev
			}
			e.kind = evParked
			d.early.Put(reqID, e)
		}
		return fx
	}
	if ev.kind == evBusy || ev.kind == evRetry {
		tinfo, err := d.registry.Lookup(c.target)
		if err != nil {
			return fx
		}
		fx.tinfo = tinfo
		ev.targetN, ev.targetF = tinfo.N, tinfo.F()
		ev.expired, ev.jitter = passed(c.expiry, uint64(ev.now.UnixMilli())), d.jitter.Int63()
	}
	ev.callerN, ev.interval = d.svc.N, d.retransmitInterval
	fx.c = c
	reading := c.reading()
	for i, a := range step(c, ev) {
		if a.seq > d.readFloor[c.target] {
			d.readFloor[c.target] = a.seq
		}
		switch a.kind {
		case actSettle:
			if reading {
				// A read ended by its caller, or by its deadline inside the
				// fast window.
				if ev.kind == evCancel {
					d.readStats.Canceled++
				} else {
					d.readStats.Fallbacks++
					d.readStats.FallbackTimeout++
				}
			}
			d.settle(c, a.reply)
		case actCertify:
			d.readStats.Certified++
			d.readPartners[c.target] = a.replicas
			d.settle(c, a.reply)
		case actShed:
			d.readStats.Shed++
			d.settle(c, a.reply)
		case actArmRetry:
			c.retryAt = ev.now.Add(a.after)
		case actWiden:
			d.readStats.Widened++
			c.retryAt = ev.now.Add(DefaultReadFallback)
			fx.read = c.readRequest(d.svc.Name)
			fx.acts[i] = a
		case actFallBack:
			d.readStats.Fallbacks++
			if ev.kind == evWindow {
				d.readStats.FallbackTimeout++
			} else {
				d.readStats.FallbackDiverged++
			}
			// The fast window is over; retransmission takes its place.
			c.retryAt = ev.now.Add(d.retransmitInterval)
			fx.hint = d.primaryHint[c.target]
			fx.acts[i] = a
		default:
			fx.acts[i] = a
		}
	}
	d.schedule(c) // the actions may have moved c's due times
	return fx
}

// perform sends what a step asked for once d.mu is released.
func (d *Driver) perform(fx effects) {
	for _, a := range fx.acts {
		switch a.kind {
		case actForward:
			d.forward(a.bundle)
		case actResend:
			d.resend(fx.c, fx.tinfo, a.attempt, a.responder)
		case actAbort:
			d.voter.proposeAbort(fx.c.id)
		case actWiden:
			ids := make([]auth.NodeID, len(a.replicas))
			for k, i := range a.replicas {
				ids[k] = auth.VoterID(fx.c.target, i)
			}
			d.sendRead(fx.read, ids)
		case actFallBack:
			tinfo, err := d.registry.Lookup(fx.c.target)
			if err == nil {
				err = d.sendFirst(fx.c, tinfo, a.responder, fx.hint)
			}
			if err != nil {
				d.logf("read fallback %s: %v", fx.c.id, err)
				d.abandon(fx.c, false)
			}
		}
	}
}

// settle ends call c with its one outcome (caller holds d.mu): its due
// times, window slot and outstanding entry go, and unless its caller
// gave up on it the outcome goes to the consumer chosen at issue.
func (d *Driver) settle(c *call, r Reply) {
	delete(d.outstanding, c.id)
	c.deadline, c.retryAt = time.Time{}, time.Time{}
	d.schedule(c)
	d.releaseSlot(c.target, &c.counted)
	if !c.silent {
		r.Blocking = c.blocking
		d.post(c.sink, r)
	}
}

// post hands an outcome to its consumer (caller holds d.mu): the sink
// chosen at issue — a capacity-1 channel that receives at most one
// outcome, waking exactly its own waiter — or, when there is none, the
// agreed-order event queue for NextEvent/WaitReply consumers.
func (d *Driver) post(sink chan Reply, r Reply) {
	if sink != nil {
		sink <- r
		return
	}
	d.events = append(d.events, Event{Kind: EventReply, Reply: r})
	d.cond.Broadcast()
}

// resend re-sends an unanswered request to every target voter with the
// responder and attempt step chose.
func (d *Driver) resend(c *call, tinfo ServiceInfo, attempt, responder int) {
	req, err := d.buildRequest(c.id, tinfo, c.payload, responder, attempt, c.expiry)
	if err != nil {
		d.logf("retransmit %s: %v", c.id, err)
		return
	}
	if err := d.sendRequest(req, tinfo.VoterIDs()); err != nil {
		d.logf("retransmit %s: %v", c.id, err)
	}
	d.logf("retransmitted %s (attempt %d, responder %d)", c.id, attempt, responder)
}

// issueRead resolves and issues one fast-path read (the Read arm of
// Do), returning its id without waiting; sink is its consumer (see
// call.sink). The read skips agreement: it goes to f_t+1 replicas of the
// owning shard group — the designated responder and f partners — and
// certifies on f_t+1 matching digest endorsements at or above the
// session's lease (readFloor). Otherwise it asks the rest of the group
// once, and then deterministically falls back to agreement as the same
// call (see stepRead): the caller observes exactly one reply, never an
// uncertified one. A replicated caller (N > 1) takes the agreement path
// directly, since fast replies could not reach its replicas
// deterministically; blocking is Do's fastPath input for that call.
func (d *Driver) issueRead(target string, key, payload []byte, timeout time.Duration, blocking bool, sink chan Reply) (string, error) {
	tinfo, err := d.resolveShard(target, key, payload)
	if err != nil {
		return "", err
	}
	c := &call{payload: payload, timeout: timeout, blocking: blocking, fast: d.fastPath(blocking, timeout), sink: sink}
	if d.svc.N > 1 {
		return d.startRequest(tinfo, c)
	}
	d.mu.Lock()
	c.read = readState{
		need:     tinfo.F() + 1,
		minSeq:   d.readFloor[tinfo.Name],
		replicas: make([]readReplica, tinfo.N),
		partners: d.readPartners[tinfo.Name],
	}
	// Reads respect the same client-edge window as calls, and hold their
	// slot through a fallback: a read flood would otherwise fan
	// authenticated frames at the whole group exactly when it is shedding
	// to protect agreement.
	if err := d.admit(tinfo, c); err != nil {
		d.mu.Unlock()
		return "", err
	}
	ids := c.askFirst()
	d.readStats.Attempts++
	rr := c.readRequest(d.svc.Name)
	d.mu.Unlock()

	d.sendRead(rr, ids)
	return c.id, nil
}

// sendRead transmits a fast-path read request to the given target
// voters.
func (d *Driver) sendRead(rr *ReadRequest, ids []auth.NodeID) {
	msg := &Message{Kind: KindReadRequest, ReadRequest: rr}
	w := wire.GetWriter(msg.SizeHint())
	msg.EncodeTo(w)
	if err := d.adapter.SendMulti(ids, w.Bytes()); err != nil {
		d.logf("read %s: %v", rr.ReqID, err)
	}
	w.Free()
}

// handleReadReply feeds one replica's speculative answer to its read
// (see stepRead). Endorsements below the session's sequence floor never
// count: at most f faulty replicas exist, so f_t+1 matching current
// endorsements include a correct replica whose state satisfied the
// lease — the certified answer is both fresh and correct.
func (d *Driver) handleReadReply(from auth.NodeID, rp *ReadReply) {
	if rp == nil || from.Role != auth.RoleVoter || rp.Replica != from.Index {
		return
	}
	ev := callEvent{
		kind: evReadAnswer, from: from.Service, replica: from.Index,
		behind: rp.Behind, seq: rp.Seq, digest: rp.Digest,
	}
	// Bind a payload to a digest only when it actually hashes to it — a
	// faulty responder cannot attach garbage to a digest the correct
	// replicas endorsed — checked before run, outside d.mu.
	if !rp.Behind && ReplyDigest(rp.ReqID, rp.Payload) == rp.Digest {
		ev.payload, ev.bound = rp.Payload, true
	}
	d.run(rp.ReqID, ev)
}

// ReadStats reports the driver's session-read fast-path counters.
func (d *Driver) ReadStats() ReadStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.readStats
}

// sendRequest encodes a request message once and transmits it to the
// given target voters (one for first attempts, the whole group for
// retransmissions) through the adapter's encode-once multicast path.
func (d *Driver) sendRequest(req *RequestMsg, tos []auth.NodeID) error {
	msg := &Message{Kind: KindRequest, Request: req}
	w := wire.GetWriter(msg.SizeHint())
	msg.EncodeTo(w)
	err := d.adapter.SendMulti(tos, w.Bytes())
	w.Free()
	return err
}

// buildRequest assembles an authenticated request message. expiry (0 =
// none) rides outside the digest, like Attempt, so retransmissions
// count toward the same f_c+1 vote regardless of their stamps.
func (d *Driver) buildRequest(reqID string, tinfo ServiceInfo, payload []byte, responder, attempt int, expiry uint64) (*RequestMsg, error) {
	req := &RequestMsg{
		ReqID:     reqID,
		Caller:    d.svc.Name,
		Target:    tinfo.Name,
		Responder: responder,
		Attempt:   attempt,
		Expiry:    expiry,
		Payload:   payload,
	}
	msg := requestAuthMsg(reqID, req.Digest())
	a, err := auth.NewAuthenticator(d.ks, msg.Bytes(), tinfo.VoterIDs())
	msg.Free()
	if err != nil {
		return nil, fmt.Errorf("perpetual: authenticating request: %w", err)
	}
	req.Auth = a
	return req, nil
}

// deliverRequest enqueues an agreed incoming request (stage 3); called
// by the co-located voter on the CLBFT delivery goroutine.
func (d *Driver) deliverRequest(r IncomingRequest) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.events = append(d.events, Event{Kind: EventRequest, Request: r})
	d.cond.Broadcast()
}

// deliverReply feeds the caller group's agreed reply or abort (stage 9)
// to its call (see step's evAgreed row).
func (d *Driver) deliverReply(r Reply) {
	d.run(r.ReqID, callEvent{kind: evAgreed, reply: r})
}

// deliverUtil records an agreed utility value.
func (d *Driver) deliverUtil(k uint64, v int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.utils[k] = v
	d.cond.Broadcast()
}

// popAt removes and returns the event at index i (caller holds d.mu).
func (d *Driver) popAt(i int) Event {
	ev := d.events[i]
	d.events = append(d.events[:i], d.events[i+1:]...)
	return ev
}

// take removes and returns the oldest queued event match accepts,
// blocking until there is one. Every blocking accessor consumes from the
// one queue this way, so mixing them stays coherent.
func (d *Driver) take(match func(*Event) bool) (Event, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return Event{}, ErrClosed
		}
		for i := range d.events {
			if match(&d.events[i]) {
				return d.popAt(i), nil
			}
		}
		d.cond.Wait()
	}
}

// NextEvent returns the next agreed event — request or reply — in
// agreement order, blocking until one is available.
func (d *Driver) NextEvent() (Event, error) {
	return d.take(func(*Event) bool { return true })
}

// NextReply returns the oldest unconsumed reply in agreement order,
// blocking until one is available.
func (d *Driver) NextReply() (Reply, error) {
	ev, err := d.take(func(e *Event) bool { return e.Kind == EventReply })
	return ev.Reply, err
}

// WaitReply blocks until the reply for a specific request arrives and
// returns it.
func (d *Driver) WaitReply(reqID string) (Reply, error) {
	ev, err := d.take(func(e *Event) bool { return e.Kind == EventReply && e.Reply.ReqID == reqID })
	return ev.Reply, err
}

// NextRequest returns the oldest unexecuted incoming request, blocking
// until one is available.
func (d *Driver) NextRequest() (IncomingRequest, error) {
	ev, err := d.take(func(e *Event) bool { return e.Kind == EventRequest })
	return ev.Request, err
}

// Reply sends the executor's result for an incoming request back through
// the voter (stage 4).
func (d *Driver) Reply(req IncomingRequest, payload []byte) error {
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return ErrClosed
	}
	d.voter.handleLocalResult(req.ReqID, payload)
	return nil
}

// AgreedTimeMillis returns a clock reading agreed by the voter group:
// every replica observes the same value for the same call position (the
// Utils.currentTimeMillis of the paper's Figure 3).
func (d *Driver) AgreedTimeMillis() (int64, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return 0, ErrClosed
	}
	d.utilSeq++
	k := d.utilSeq
	d.mu.Unlock()

	d.voter.proposeUtil(k, time.Now().UnixMilli())

	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return 0, ErrClosed
		}
		if v, ok := d.utils[k]; ok {
			delete(d.utils, k)
			return v, nil
		}
		d.cond.Wait()
	}
}

// AgreedTimestamp returns an agreed wall-clock timestamp (Utils.timestamp).
func (d *Driver) AgreedTimestamp() (time.Time, error) {
	ms, err := d.AgreedTimeMillis()
	if err != nil {
		return time.Time{}, err
	}
	return time.UnixMilli(ms), nil
}

// AgreedRandom returns a pseudo-random generator seeded with an agreed
// value, so every replica draws the same sequence (Utils.random).
func (d *Driver) AgreedRandom() (*rand.Rand, error) {
	seed, err := d.AgreedTimeMillis()
	if err != nil {
		return nil, err
	}
	return rand.New(rand.NewSource(seed)), nil
}

// Outstanding returns the number of requests awaiting replies.
func (d *Driver) Outstanding() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.outstanding)
}

// PrimaryHint returns the target group's believed CLBFT primary index —
// the routing hint first request attempts unicast to. Index 0 until a
// verified reply bundle from the target reports otherwise.
func (d *Driver) PrimaryHint(target string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.primaryHint[target]
}

// close shuts the driver down, releasing all blocked callers.
func (d *Driver) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	d.due = nil // so wake never sets the timer again
	d.alarm.t.Stop()
	close(d.done)
	d.cond.Broadcast()
}
