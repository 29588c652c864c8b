package perpetual

import (
	"crypto/sha256"
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
// widened, deterministically re-issues the same request id through full
// agreement.
const DefaultReadFallback = 150 * time.Millisecond

// IncomingRequest is an agreed external request awaiting execution.
type IncomingRequest struct {
	ReqID   string
	Caller  string
	Payload []byte
	// Seq is the CLBFT agreement sequence the request was ordered at —
	// identical on every replica of the group, so it can safely enter
	// deterministic replies. The state-handoff protocol stamps it into
	// export certificates, binding a handoff to a checkpoint position in
	// the source group's log.
	Seq uint64
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
// group's agreement order, identical on every replica, which is what
// lets multi-threaded executors (package detsched) interleave
// deterministically.
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
	readFallback       time.Duration

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool

	reqSeq  uint64
	utilSeq uint64
	txnSeq  uint64

	// done is closed by close, releasing every waiter on a call's sink.
	done chan struct{}

	// events is the merged agreed-order queue; all blocking accessors
	// consume from it, so mixed consumption (NextRequest on one code
	// path, WaitReply on another) stays coherent and deterministic.
	events []Event

	// outstanding holds the agreement-path calls awaiting their outcome
	// (see call and step); a call leaves it when it settles, so nothing
	// ever settles twice.
	outstanding map[string]*call
	utils       map[uint64]int64

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

	// Session-tier read fast path (see issueRead). readWaits collects
	// speculative endorsements per outstanding read; readFloor is the
	// per-target-group monotonic-reads floor (highest certified read
	// sequence); readAfter is the per-target-group read-your-writes lease
	// (highest completed agreement-path request number); readPartners
	// lists, per target group, the endorsers of the last certified read
	// in the order they answered (see askFirst).
	readWaits    map[string]*readWait
	readFloor    map[string]uint64
	readAfter    map[string]uint64
	readPartners map[string][]int
	readStats    readStatsCounters

	// canceled records request ids settled by a ctx cancel (see
	// cancelRequest), so the read fallback's asynchronous re-issue can
	// never resurrect a canceled read.
	canceled *boundedCache[struct{}]

	// txnPending holds one decision slot per transaction this replica is
	// driving; registered slots are never evicted (see
	// registerTxnLocked). txnEarly buffers agreed decisions that arrive
	// before the local executor reaches the transaction — coordinator
	// replicas run the same deterministic schedule but not in lockstep.
	txnPending map[string]*txnDecision
	txnEarly   *boundedCache[bool]

	// early holds outcomes that arrived for request ids this driver has
	// not issued yet (id number above reqSeq), as one evParked event per
	// id: a lagging replica's executor often issues a call after the
	// target's verified bundle, or the agreed reply, already reached its
	// driver. startRequest feeds the entry to the call when it is issued
	// (see parkable).
	early *boundedCache[callEvent]
}

// txnDecision is a registered transaction's decision slot.
type txnDecision struct {
	done   bool
	commit bool
}

// ReadStats counts session-tier read fast-path outcomes at one driver.
// The fast path is an optimization, never a correctness lever: every
// fallback re-issues the identical request through full agreement, so
// Attempts == Certified + Fallbacks + Shed + Canceled + still-in-flight
// at all times.
type ReadStats struct {
	// Attempts is the number of reads issued through the fast path.
	Attempts uint64
	// Certified is the number of reads answered by f_t+1 matching
	// speculative digest endorsements (agreement skipped entirely).
	Certified uint64
	// Fallbacks is the number of reads that left the fast path
	// uncertified: re-issued through agreement (or refused by a full
	// client window on the way), or aborted there because the caller's
	// deadline passed inside the fast window.
	Fallbacks uint64
	// FallbackTimeout counts fallbacks whose fast window expired.
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

// paddedUint64 is an atomic counter alone on its cache line, so two hot
// counters incremented by different goroutines never invalidate each
// other's line (the false-sharing half of multi-core stats cost).
type paddedUint64 struct {
	atomic.Uint64
	_ [56]byte
}

// readStatsCounters is the driver's live form of ReadStats: padded
// atomics, updated outside d.mu, so the read fast path's bookkeeping
// neither lengthens the driver's critical sections nor bounces one
// shared cache line between the transport goroutines settling reads.
type readStatsCounters struct {
	attempts         paddedUint64
	certified        paddedUint64
	fallbacks        paddedUint64
	fallbackTimeout  paddedUint64
	fallbackDiverged paddedUint64
	canceled         paddedUint64
	shed             paddedUint64
	widened          paddedUint64
}

// readWait tracks a fast-path read: which replicas of the target group
// it asked, what each answered, and its fast window (see issueRead).
type readWait struct {
	target    string    // concrete (shard) group name
	payload   []byte    // the request payload
	deadline  time.Time // the caller's deadline (zero = none)
	responder int
	need      int // f_t+1: matching endorsements certify, busys shed
	minSeq    uint64
	afterReq  uint64
	blocking  bool         // Request.Blocking, copied onto the settled Reply
	sink      chan outcome // the outcome's consumer (see call.sink)
	// widened marks every replica of the group asked: the read widened
	// past its first f_t+1, or the group has no others.
	widened bool
	tmr     *time.Timer
	counted bool // holds an in-flight window slot (Driver.maxOutstanding)

	replicas   []readReplica // indexed by target replica
	answers    int           // replicas heard from, incl. Behind declines and busys
	busy       int           // busy-read refusals among them
	retryAfter uint64        // largest busy-read backoff hint
}

// readReplica is one target replica's part in a fast-path read.
type readReplica struct {
	asked bool
	rank  int // answer order, from 1; 0 = not heard from
	// endorsed marks a current endorsement of digest: not a Behind
	// decline, stamped at or above the read's MinSeq.
	endorsed bool
	digest   [sha256.Size]byte
	seq      uint64
	// bound marks payload as hashing to digest; normally only the
	// responder attaches one.
	bound   bool
	payload []byte
}

// endorsements counts the current endorsements of digest.
func (rw *readWait) endorsements(digest [sha256.Size]byte) int {
	c := 0
	for i := range rw.replicas {
		if rw.replicas[i].endorsed && rw.replicas[i].digest == digest {
			c++
		}
	}
	return c
}

// readStep is what a fast-path read's answers so far call for.
type readStep uint8

const (
	readAwait    readStep = iota // an outcome is still possible among the replicas asked
	readCertify                  // a bound payload has f_t+1 matching endorsements
	readShed                     // f_t+1 replicas refused the read as busy
	readWiden                    // ask the rest of the group
	readFallBack                 // re-issue through agreement
)

// step decides a read's next move from its answers so far; for
// readCertify, cert is the replica whose bound payload certified.
// Nothing is decided while the replicas asked but not yet heard from
// could still complete a certificate or a busy quorum. Otherwise the
// read widens, unless it already asked the whole group, or the
// responder answered with no payload and no refusal needs company:
// only the responder attaches the payload, so then no endorsement from
// the rest of the group could complete the read.
func (rw *readWait) step() (step readStep, cert int) {
	if rw.busy >= rw.need {
		return readShed, 0
	}
	pending, best := 0, 0
	for i := range rw.replicas {
		s := &rw.replicas[i]
		if s.asked && s.rank == 0 {
			pending++
		}
		if s.bound && rw.endorsements(s.digest) >= rw.need {
			return readCertify, i
		}
		if s.endorsed {
			best = max(best, rw.endorsements(s.digest))
		}
	}
	// The most matching endorsements a digest with an obtainable payload
	// could still gather among the replicas asked.
	r := &rw.replicas[rw.responder]
	possible := 0
	switch {
	case r.rank == 0:
		possible = best + pending
	case r.bound:
		possible = rw.endorsements(r.digest) + pending
	}
	if possible >= rw.need || rw.busy+pending >= rw.need {
		return readAwait, 0
	}
	if rw.widened || (r.rank != 0 && !r.bound && rw.busy == 0) {
		return readFallBack, 0
	}
	return readWiden, 0
}

// window is the length of the read's next fast window: ReadFallback,
// cut short by the caller's deadline.
func (rw *readWait) window(fast time.Duration) time.Duration {
	if !rw.deadline.IsZero() {
		fast = min(fast, time.Until(rw.deadline))
	}
	return fast
}

// request rebuilds the read's wire request.
func (rw *readWait) request(reqID, caller string) *ReadRequest {
	return &ReadRequest{
		ReqID:     reqID,
		Caller:    caller,
		Target:    rw.target,
		Responder: rw.responder,
		MinSeq:    rw.minSeq,
		AfterReq:  rw.afterReq,
		Payload:   rw.payload,
	}
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
		readFallback:       DefaultReadFallback,
		done:               make(chan struct{}),
		outstanding:        make(map[string]*call),
		inflight:           make(map[string]int),
		utils:              make(map[uint64]int64),
		primaryHint:        make(map[string]int),
		readWaits:          make(map[string]*readWait),
		readFloor:          make(map[string]uint64),
		readAfter:          make(map[string]uint64),
		readPartners:       make(map[string][]int),
		canceled:           newBoundedCache[struct{}](4 * deliveredCacheSize),
		txnPending:         make(map[string]*txnDecision),
		txnEarly:           newBoundedCache[bool](deliveredCacheSize),
		early:              newBoundedCache[callEvent](inFlightCacheSize),
	}
	d.cond = sync.NewCond(&d.mu)
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

// Index returns the replica index of this driver.
func (d *Driver) Index() int { return d.index }

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
// says who may settle overload locally; a busy-read counts as a
// non-endorsing response toward the read's impossibility check.
func (d *Driver) handleBusy(from auth.NodeID, bz *BusyReply) {
	if bz == nil || from.Role != auth.RoleVoter || bz.Replica != from.Index || from.Index < 0 {
		return
	}
	if bz.Read {
		d.handleBusyRead(from, bz)
		return
	}
	d.run(bz.ReqID, callEvent{
		kind: evBusy, from: from.Service, replica: from.Index,
		hint: bz.RetryAfterMillis, refusedExpired: bz.Expired,
	})
}

// handleBusyRead folds a busy-read refusal into the read's wait: f_t+1
// refusals settle the read as overloaded WITHOUT the agreement fallback
// (falling back would add agreement load exactly when the target shed
// the read to protect it); fewer behave like Behind declines toward
// certification (see readWait.step).
func (d *Driver) handleBusyRead(from auth.NodeID, bz *BusyReply) {
	d.mu.Lock()
	rw := d.readAnswer(bz.ReqID, from, bz.Replica)
	if rw == nil {
		d.mu.Unlock()
		return
	}
	rw.busy++
	rw.retryAfter = max(rw.retryAfter, bz.RetryAfterMillis)
	d.advanceRead(bz.ReqID, rw)
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
	// Adopt the bundle's MAC-covered roster attestation: f_t+1 matching
	// shares include a correct target voter, so (Epoch, GroupN) is the
	// target group's installed membership as that voter knows it. This is
	// how drivers learn rosters without any out-of-band channel — the
	// registry only moves forward, so a replayed old bundle cannot
	// regress it.
	if b.GroupN > 0 && d.registry.ObserveGroupMembership(b.Target, b.Epoch, b.GroupN) {
		d.logf("learned %s membership epoch %d (n=%d)", b.Target, b.Epoch, b.GroupN)
	}
	effN := target.N
	if _, n := d.registry.GroupMembership(b.Target); n > 0 {
		effN = n
	}
	// Adopt the responder's primary hint for future first attempts. Only
	// verified bundles update it, and a lying responder merely redirects
	// first attempts at a voter that forwards (or the retransmission
	// fan-out corrects it) — routing, never safety. Hints at or past the
	// current roster's edge are dropped so a shrink never leaves first
	// attempts aimed at a departed slot.
	d.mu.Lock()
	if b.Primary >= 0 && b.Primary < effN {
		d.primaryHint[b.Target] = b.Primary
	} else if d.primaryHint[b.Target] >= effN {
		delete(d.primaryHint, b.Target)
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
func (d *Driver) fanAllShards(target string, payload []byte, timeout time.Duration, wait bool) ([]string, []chan outcome, error) {
	tinfo, err := d.registry.Lookup(target)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]string, 0, tinfo.ShardCount())
	var sinks []chan outcome
	for k := 0; k < tinfo.ShardCount(); k++ {
		c := &call{payload: payload, timeout: timeout, fast: d.fastPath(false, timeout)}
		if wait {
			c.sink = make(chan outcome, 1)
			sinks = append(sinks, c.sink)
		}
		id, err := d.startRequest("", tinfo.Shard(k), c)
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

// issueLeg issues one protocol-internal request (a 2PC or handoff leg)
// to a concrete group. Its outcome, with the agreed reply's certificate,
// goes to the returned channel and never to the event queue.
func (d *Driver) issueLeg(tinfo ServiceInfo, payload []byte, timeout time.Duration, class uint8) (string, chan outcome, error) {
	sink := make(chan outcome, 1)
	id, err := d.startRequest("", tinfo, &call{payload: payload, timeout: timeout, txn: true, class: class, sink: sink})
	return id, sink, err
}

// fastPath is the reply fast-path rule, decided once per call at issue
// time from inputs every replica of the caller shares. A call takes the
// fast path — its verified bundle settles it directly, with no
// caller-side agreement — when the caller cannot consume the reply out
// of agreed order anyway: the caller is unreplicated, so there is no
// order to agree on; or the issuing thread is blocked on exactly this
// reply and set no caller-side deadline, so it consumes the reply
// whenever it arrives and nothing could abort it first. Every other
// call (asynchronous issue, a deadline, txn and handoff traffic) keeps
// the agreed OpReply/OpAbort path.
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

// nextReqID reserves the next request id, "<caller>:<reqSeq>" (caller
// holds d.mu): the one id a call has, on both sides of every hop.
func (d *Driver) nextReqID() string {
	d.reqSeq++
	return d.svc.Name + ":" + strconv.FormatUint(d.reqSeq, 10)
}

// startRequest registers and transmits a request (stage 1 proper),
// filling in c's id, target and, for a fresh call, its responder. An
// empty reqID reserves the next id. The reservation, the registration
// in d.outstanding and the lookup of an outcome parked before the issue
// happen under one d.mu hold, so a bundle arriving concurrently is
// either seen by the registered call or parked where this lookup finds
// it. The read fast path re-enters with its already-reserved id on
// fallback, so the agreement-path reply answers the very id the caller
// is already waiting on.
func (d *Driver) startRequest(reqID string, tinfo ServiceInfo, c *call) (string, error) {
	target := tinfo.Name
	c.target = target
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return "", ErrClosed
	}
	if reqID == "" {
		reqID = d.nextReqID()
		c.responder = int(d.reqSeq % uint64(tinfo.N))
	} else if d.canceled.Contains(reqID) {
		// A ctx cancel settled this id while the read fallback (the only
		// re-entrant) was in flight; re-issuing would resurrect it.
		d.mu.Unlock()
		return "", errRequestCanceled
	}
	if !c.txn && !d.acquireSlot(target) {
		// Client-edge admission: the in-flight window to this target is
		// full, so refuse with the deterministic RETRY-AFTER fault before
		// building or sending anything (txn traffic is protocol-internal
		// 2PC/handoff machinery and is never shed here).
		d.mu.Unlock()
		return "", &OverloadError{RetryAfter: DefaultRetryAfterHint}
	}
	c.id = reqID
	c.counted = !c.txn && d.maxOutstanding > 0
	if c.timeout > 0 && !c.txn {
		// Deadline propagation: stamp the caller's deadline (ctx deadline
		// or explicit Timeout, both already folded into timeout) into the
		// request envelope so replicas can drop expired work at every
		// pre-agreement stage instead of ordering it.
		c.expiry = uint64(time.Now().Add(c.timeout).UnixMilli())
	}
	d.outstanding[reqID] = c
	if e, ok := d.early.Get(reqID); ok {
		// The outcome that matches how the call was issued answers it
		// without sending anything (step's evParked row).
		d.early.Delete(reqID)
		d.stepLocked(reqID, e)
		if d.outstanding[reqID] != c {
			d.mu.Unlock()
			return reqID, nil
		}
	}
	hint := d.primaryHint[target]
	d.mu.Unlock()
	if hint < 0 || hint >= tinfo.N {
		hint = 0
	}

	req, err := d.buildRequest(reqID, tinfo, c.payload, c.responder, 0, c.expiry)
	if err != nil {
		// The entry has no timers yet; without this removal it would
		// never be reaped and Outstanding() would over-count forever.
		d.mu.Lock()
		d.releaseSlot(target, &c.counted)
		delete(d.outstanding, reqID)
		d.mu.Unlock()
		return "", err
	}
	// First attempt goes to the believed primary — the hint learned from
	// the target's reply bundles, index 0 before the first bundle;
	// retransmissions fan out to the whole group, so a crashed or
	// superseded primary costs one retransmission interval, never
	// liveness.
	if err := d.sendRequest(req, []auth.NodeID{auth.VoterID(target, hint)}, c.class); err != nil {
		d.logf("request %s: %v", reqID, err)
	}

	d.mu.Lock()
	if d.outstanding[reqID] == c {
		if c.retryTmr == nil {
			// (A busy refusal may already have re-armed retransmission.)
			d.armRetry(c, d.retransmitInterval)
		}
		if c.timeout > 0 {
			c.abortTmr = time.AfterFunc(c.timeout, func() { d.run(reqID, callEvent{kind: evDeadline}) })
		}
	}
	d.mu.Unlock()
	return reqID, nil
}

// run is the executor of step: it feeds one event to the call reqID
// names and performs the actions that follow, the bookkeeping ones
// (settle, arm-retry) under d.mu and the network ones (forward, resend,
// propose-abort) after releasing it.
func (d *Driver) run(reqID string, ev callEvent) {
	d.mu.Lock()
	fx := d.stepLocked(reqID, ev)
	d.mu.Unlock()
	d.perform(fx)
}

// effects are the network actions of one step, kept for after d.mu is
// released; the other slots of acts stay zero.
type effects struct {
	c     *call
	tinfo ServiceInfo // the target group, for actResend
	acts  [2]callAction
}

// stepLocked looks the call up, supplies step's inputs, runs it and
// applies its settle and arm-retry actions, returning the rest (caller
// holds d.mu). An outcome for an id not issued yet is parked for its
// issue (see parkable); any other event for an unknown id is stale and
// dropped.
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
		ev.expired, ev.jitter = expiredStamp(c.expiry), rand.Int63()
	}
	ev.callerN, ev.interval = d.svc.N, d.retransmitInterval
	fx.c = c
	for i, a := range step(c, ev) {
		switch a.kind {
		case actSettle:
			d.settle(c, a.reply, a.cert)
		case actArmRetry:
			d.armRetry(c, a.after)
		default:
			fx.acts[i] = a
		}
	}
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
			d.voter.requestAbort(fx.c.id)
		}
	}
}

// settle ends call c with its one outcome (caller holds d.mu): its
// timers, window slot and outstanding entry go, and unless its caller
// gave up on it the outcome goes to the consumer chosen at issue.
func (d *Driver) settle(c *call, r Reply, cert *ReplyBundle) {
	delete(d.outstanding, c.id)
	if c.retryTmr != nil {
		c.retryTmr.Stop()
	}
	if c.abortTmr != nil {
		c.abortTmr.Stop()
	}
	d.releaseSlot(c.target, &c.counted)
	if !c.txn && !r.Aborted {
		// Session-lease bookkeeping: a completed agreement-path request
		// is conservatively a write this session's later fast-path reads
		// must observe (read-your-writes), so advance the lease to its
		// request number.
		if n, ok := callerReqSeq(c.id, d.svc.Name); ok && n > d.readAfter[c.target] {
			d.readAfter[c.target] = n
		}
	}
	if !c.silent {
		r.Blocking = c.blocking
		d.post(c.sink, outcome{reply: r, cert: cert})
	}
}

// post hands an outcome to its consumer (caller holds d.mu): the sink
// chosen at issue — a capacity-1 channel that receives at most one
// outcome, waking exactly its own waiter — or, when there is none, the
// agreed-order event queue for NextEvent/WaitReply consumers.
func (d *Driver) post(sink chan outcome, o outcome) {
	if sink != nil {
		sink <- o
		return
	}
	d.events = append(d.events, Event{Kind: EventReply, Reply: o.reply})
	d.cond.Broadcast()
}

// armRetry (re)arms c's retransmission timer (caller holds d.mu).
func (d *Driver) armRetry(c *call, after time.Duration) {
	if c.retryTmr != nil {
		c.retryTmr.Stop()
	}
	id := c.id
	c.retryTmr = time.AfterFunc(after, func() { d.run(id, callEvent{kind: evRetry}) })
}

// resend re-sends an unanswered request to every target voter with the
// responder and attempt step chose.
func (d *Driver) resend(c *call, tinfo ServiceInfo, attempt, responder int) {
	req, err := d.buildRequest(c.id, tinfo, c.payload, responder, attempt, c.expiry)
	if err != nil {
		d.logf("retransmit %s: %v", c.id, err)
		return
	}
	if err := d.sendRequest(req, tinfo.VoterIDs(), c.class); err != nil {
		d.logf("retransmit %s: %v", c.id, err)
	}
	d.logf("retransmitted %s (attempt %d, responder %d)", c.id, attempt, responder)
}

// issueRead resolves and issues one fast-path read (the Read arm of
// Do), returning its id without waiting; sink is its consumer (see
// call.sink). The read skips agreement: it goes to f_t+1 replicas of the
// owning shard group — the designated responder and f partners — and
// certifies on f_t+1 matching digest endorsements at or above the
// session's lease (the monotonic floor, plus the read-your-writes gate
// against AfterReq). Otherwise it asks the rest of the group once, and
// then deterministically re-issues the same id through agreement under
// the caller's original deadline (see readWait.step): the caller
// observes exactly one reply, never an uncertified one. A replicated
// caller (N > 1) takes the agreement path directly, since fast replies
// could not reach its replicas deterministically; blocking is Do's
// fastPath input for that call.
func (d *Driver) issueRead(target string, key, payload []byte, timeout time.Duration, blocking bool, sink chan outcome) (string, error) {
	tinfo, err := d.resolveShard(target, key, payload)
	if err != nil {
		return "", err
	}
	if d.svc.N > 1 {
		return d.startRequest("", tinfo, &call{payload: payload, timeout: timeout, blocking: blocking, fast: d.fastPath(blocking, timeout), sink: sink})
	}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return "", ErrClosed
	}
	if !d.acquireSlot(tinfo.Name) {
		// Reads respect the same client-edge window as calls: a read
		// flood would otherwise fan authenticated frames at the whole
		// group exactly when it is shedding to protect agreement.
		d.mu.Unlock()
		return "", &OverloadError{RetryAfter: DefaultRetryAfterHint}
	}
	reqID := d.nextReqID()
	rw := &readWait{
		counted:   d.maxOutstanding > 0,
		blocking:  blocking,
		sink:      sink,
		target:    tinfo.Name,
		payload:   payload,
		responder: int(d.reqSeq % uint64(tinfo.N)),
		need:      tinfo.F() + 1,
		minSeq:    d.readFloor[tinfo.Name],
		afterReq:  d.readAfter[tinfo.Name],
		replicas:  make([]readReplica, tinfo.N),
	}
	if timeout > 0 {
		rw.deadline = time.Now().Add(timeout)
	}
	ids := d.askFirst(rw)
	d.readWaits[reqID] = rw
	d.readStats.attempts.Add(1)
	d.armReadWindow(reqID, rw)
	rr := rw.request(reqID, d.svc.Name)
	d.mu.Unlock()

	d.sendRead(rr, ids)
	return reqID, nil
}

// askFirst marks the f_t+1 replicas a read asks first and returns their
// voter ids (caller holds d.mu): the responder, then as its f partners
// the endorsers of this driver's last certified read of the group, in
// the order they answered, topped up with responder+1, responder+2, …
// Which replicas partner never matters for safety — certification
// still takes f_t+1 matching endorsements — only for speed: a partner
// that just answered a read is unlikely to be the silent one, so a
// crashed replica stops costing a widening window after its first.
func (d *Driver) askFirst(rw *readWait) []auth.NodeID {
	n := len(rw.replicas)
	ids := make([]auth.NodeID, 0, rw.need)
	ask := func(i int) {
		if i < n && !rw.replicas[i].asked && len(ids) < rw.need {
			rw.replicas[i].asked = true
			ids = append(ids, auth.VoterID(rw.target, i))
		}
	}
	ask(rw.responder)
	for _, i := range d.readPartners[rw.target] {
		ask(i)
	}
	for k := 1; k < n; k++ {
		ask((rw.responder + k) % n)
	}
	rw.widened = len(ids) == n
	return ids
}

// armReadWindow starts the read's current fast window (caller holds
// d.mu). The timer remembers which window it was armed for, so the
// first window's timer firing late, after the read widened, is ignored.
func (d *Driver) armReadWindow(reqID string, rw *readWait) {
	widened := rw.widened
	rw.tmr = time.AfterFunc(rw.window(d.readFallback), func() { d.readWindowExpired(reqID, widened) })
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

// widen asks every replica of the group not asked yet and re-arms the
// fast window, again bounded by the caller's deadline (caller holds
// d.mu, which widen releases). A read widens at most once.
func (d *Driver) widen(reqID string, rw *readWait) {
	ids := make([]auth.NodeID, 0, len(rw.replicas))
	for i := range rw.replicas {
		if s := &rw.replicas[i]; !s.asked {
			s.asked = true
			ids = append(ids, auth.VoterID(rw.target, i))
		}
	}
	rw.widened = true
	d.readStats.widened.Add(1)
	rw.tmr.Stop()
	d.armReadWindow(reqID, rw)
	rr := rw.request(reqID, d.svc.Name)
	d.mu.Unlock()
	d.sendRead(rr, ids)
}

// readWindowExpired ends a read's fast window; widened says which
// window the timer was armed for. If the responder has answered, the
// silence is a partner's, and the rest of the group can stand in for
// it: the first window widens the read while the deadline allows.
// Otherwise — a silent responder, whose payload no other replica
// sends, or the widened window — the read falls back.
func (d *Driver) readWindowExpired(reqID string, widened bool) {
	d.mu.Lock()
	rw, ok := d.readWaits[reqID]
	if !ok || rw.widened != widened {
		d.mu.Unlock()
		return
	}
	if !rw.widened && rw.replicas[rw.responder].rank != 0 && rw.window(d.readFallback) > 0 {
		d.widen(reqID, rw)
		return
	}
	d.mu.Unlock()
	d.readFallbackFor(reqID, true)
}

// readAnswer admits one replica's answer to a read and returns the
// read, or nil when the answer does not count: an unknown or settled
// read, a sender outside the target group or speaking for another
// index, or a second answer from the same replica (caller holds d.mu).
// Any replica of the group may answer, asked or not.
func (d *Driver) readAnswer(reqID string, from auth.NodeID, replica int) *readWait {
	rw, ok := d.readWaits[reqID]
	if !ok || from.Service != rw.target || replica != from.Index ||
		from.Index < 0 || from.Index >= len(rw.replicas) || rw.replicas[from.Index].rank != 0 {
		return nil
	}
	rw.answers++
	rw.replicas[from.Index].rank = rw.answers
	return rw
}

// finishRead ends a read's fast-path wait (caller holds d.mu): its
// window timer, window slot and readWaits entry all go.
func (d *Driver) finishRead(reqID string, rw *readWait) {
	rw.tmr.Stop()
	d.releaseSlot(rw.target, &rw.counted)
	delete(d.readWaits, reqID)
}

// advanceRead acts on what the read's answers so far decide (caller
// holds d.mu, which advanceRead releases).
func (d *Driver) advanceRead(reqID string, rw *readWait) {
	step, cert := rw.step()
	switch step {
	case readCertify:
		s := &rw.replicas[cert]
		d.finishRead(reqID, rw)
		// The certified sequence is the *minimum* over the matching
		// endorsers: at least one of them is correct, so a faulty
		// endorser inflating its stamp cannot push the floor past state a
		// correct replica actually reached. The endorsers, in answer
		// order, partner the next read of the group (see askFirst).
		certSeq := ^uint64(0)
		partners := d.readPartners[rw.target][:0]
		for rank := 1; rank <= rw.answers; rank++ {
			for i := range rw.replicas {
				if e := &rw.replicas[i]; e.rank == rank && e.endorsed && e.digest == s.digest {
					partners = append(partners, i)
					certSeq = min(certSeq, e.seq)
				}
			}
		}
		d.readPartners[rw.target] = partners
		if certSeq > d.readFloor[rw.target] {
			d.readFloor[rw.target] = certSeq
		}
		d.readStats.certified.Add(1)
		d.post(rw.sink, outcome{reply: Reply{ReqID: reqID, Payload: s.payload, Blocking: rw.blocking}})
		d.mu.Unlock()
	case readShed:
		d.finishRead(reqID, rw)
		d.readStats.shed.Add(1)
		d.post(rw.sink, outcome{reply: Reply{
			ReqID: reqID, Aborted: true, Blocking: rw.blocking,
			Overloaded: true, RetryAfterMillis: rw.retryAfter,
		}})
		d.mu.Unlock()
	case readWiden:
		d.widen(reqID, rw)
	case readFallBack:
		d.mu.Unlock()
		d.readFallbackFor(reqID, false)
	default:
		d.mu.Unlock()
	}
}

// handleReadReply collects one replica's speculative endorsement and
// acts on what the answers so far decide (see readWait.step): certify
// when a bound payload's digest gathers f_t+1 current matching
// endorsements, otherwise widen or fall back to agreement once the
// replicas asked provably cannot certify. Endorsements below the
// session's sequence floor never count: at most f faulty replicas
// exist, so f_t+1 matching current endorsements include a correct
// replica whose state satisfied the lease — the certified answer is
// both fresh and correct.
func (d *Driver) handleReadReply(from auth.NodeID, rp *ReadReply) {
	if rp == nil || from.Role != auth.RoleVoter {
		return
	}
	d.mu.Lock()
	rw := d.readAnswer(rp.ReqID, from, rp.Replica)
	if rw == nil {
		d.mu.Unlock()
		return
	}
	if !rp.Behind {
		s := &rw.replicas[from.Index]
		s.digest, s.seq, s.endorsed = rp.Digest, rp.Seq, rp.Seq >= rw.minSeq
		// Bind a payload to a digest only when it actually hashes to it:
		// a faulty responder cannot attach garbage to a digest the
		// correct replicas endorsed.
		if ReplyDigest(rp.ReqID, rp.Payload) == rp.Digest {
			s.payload, s.bound = rp.Payload, true
		}
	}
	d.advanceRead(rp.ReqID, rw)
}

// readFallbackFor abandons the fast path for a read and re-issues the
// same request id through full agreement, under the read's original
// deadline and to the same consumer. At most one answer surfaces: the
// read's wait ends under the d.mu hold that hands its id to the call.
func (d *Driver) readFallbackFor(reqID string, timedOut bool) {
	d.mu.Lock()
	rw, ok := d.readWaits[reqID]
	if !ok || d.closed {
		d.mu.Unlock()
		return
	}
	d.finishRead(reqID, rw)
	d.readStats.fallbacks.Add(1)
	if timedOut {
		d.readStats.fallbackTimeout.Add(1)
	} else {
		d.readStats.fallbackDiverged.Add(1)
	}
	c := &call{payload: rw.payload, responder: rw.responder, blocking: rw.blocking, sink: rw.sink}
	if rw.replicas[c.responder].rank == 0 {
		// A silent responder would leave the agreed reply unbundled until
		// a retransmission rotates the role; the replica that answered
		// the read first takes it instead.
		for i := range rw.replicas {
			if rw.replicas[i].rank == 1 {
				c.responder = i
			}
		}
	}
	if !rw.deadline.IsZero() {
		if c.timeout = time.Until(rw.deadline); c.timeout <= 0 {
			// The deadline passed inside the fast window: abort here, as
			// any fast-path call does at its deadline (see step).
			d.post(rw.sink, outcome{reply: Reply{ReqID: reqID, Aborted: true, Blocking: rw.blocking}})
			d.mu.Unlock()
			return
		}
	}
	c.fast = d.fastPath(false, c.timeout)
	d.mu.Unlock()

	tinfo, err := d.registry.Lookup(rw.target)
	if err != nil {
		d.logf("read fallback %s: unknown target %s", reqID, rw.target)
		return
	}
	if _, err := d.startRequest(reqID, tinfo, c); err != nil {
		if hint, is := IsOverload(err); is {
			// The window refilled between releasing the read's slot and
			// re-issuing through agreement: the caller is already waiting
			// on this id, so settle it as shed rather than stranding it
			// until its deadline.
			d.mu.Lock()
			if !d.closed && !d.canceled.Contains(reqID) {
				d.post(rw.sink, outcome{reply: Reply{
					ReqID: reqID, Aborted: true, Blocking: rw.blocking,
					Overloaded: true, RetryAfterMillis: uint64(hint.Milliseconds()),
				}})
			}
			d.mu.Unlock()
			return
		}
		d.logf("read fallback %s: %v", reqID, err)
	}
}

// ReadStats reports the driver's session-read fast-path counters.
func (d *Driver) ReadStats() ReadStats {
	return ReadStats{
		Attempts:         d.readStats.attempts.Load(),
		Certified:        d.readStats.certified.Load(),
		Fallbacks:        d.readStats.fallbacks.Load(),
		FallbackTimeout:  d.readStats.fallbackTimeout.Load(),
		FallbackDiverged: d.readStats.fallbackDiverged.Load(),
		Canceled:         d.readStats.canceled.Load(),
		Shed:             d.readStats.shed.Load(),
		Widened:          d.readStats.widened.Load(),
	}
}

// sendRequest encodes a request message once and transmits it to the
// given target voters (one for first attempts, the whole group for
// retransmissions) through the adapter's encode-once multicast path.
// Protocol-internal requests carry a reserved stats class (ClassTxn,
// ClassHandoff) so 2PC and migration bandwidth are separable from
// ordinary request traffic; class zero derives from the payload.
func (d *Driver) sendRequest(req *RequestMsg, tos []auth.NodeID, class uint8) error {
	msg := &Message{Kind: KindRequest, Request: req}
	w := wire.GetWriter(msg.SizeHint())
	msg.EncodeTo(w)
	if class == 0 {
		class = transport.ClassOf(w.Bytes())
	}
	err := d.adapter.SendMultiTagged(tos, w.Bytes(), class)
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
// to its call (see step's evAgreed row). shares carries the agreed reply
// bundle's endorsements, retained as the certificate of a transaction
// or handoff leg; epoch/groupN are the bundle's roster attestation,
// re-carried so the rebuilt certificate verifies under the roster its
// shares were minted for.
func (d *Driver) deliverReply(r Reply, shares []Share, epoch uint64, groupN int) {
	d.run(r.ReqID, callEvent{kind: evAgreed, reply: r, shares: shares, epoch: epoch, groupN: groupN})
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

	d.voter.requestUtil(k)

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
	for _, c := range d.outstanding {
		if c.retryTmr != nil {
			c.retryTmr.Stop()
		}
		if c.abortTmr != nil {
			c.abortTmr.Stop()
		}
	}
	for _, rw := range d.readWaits {
		rw.tmr.Stop()
	}
	close(d.done)
	d.cond.Broadcast()
}
