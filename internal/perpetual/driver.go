package perpetual

import (
	"context"
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

	// events is the merged agreed-order queue; all blocking accessors
	// consume from it, so mixed consumption (NextRequest on one code
	// path, WaitReply on another) stays coherent and deterministic.
	events []Event
	// replySeen deduplicates reply ids queued or consumed. FIFO eviction
	// (like the voter's delivered cache) only ever reopens the window
	// for the oldest ids, never for every in-flight request at once.
	replySeen *boundedCache[struct{}]
	// replyCh holds one buffered channel per Do waiter blocked in
	// waitReplyCtx. Delivering a reply directly to its waiter wakes
	// exactly one goroutine; funneling replies through the shared event
	// queue + cond.Broadcast would wake EVERY concurrent waiter per
	// reply (each rescanning the queue under d.mu), which collapses an
	// open-loop client under overload — precisely when replies and busy
	// settlements are most frequent. Channels are capacity 1 and receive
	// at most one send, guarded by replySeen/settle dedup under d.mu.
	replyCh map[string]chan Reply

	outstanding map[string]*outstandingReq
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

	// Session-tier read fast path (see CallRead). readWaits collects
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
	// Do/cancelRequest): a late agreed reply, or the read fallback's
	// asynchronous re-issue, consults it so a canceled request can never
	// resurface.
	canceled *boundedCache[struct{}]

	// txnReplies feeds CallTxn: replies to transaction requests bypass
	// the application event queue (see deliverReply).
	txnReplies *boundedCache[txnReply]
	// txnPending holds one decision slot per transaction this replica's
	// CallTxn is driving; registered slots are never evicted (see
	// registerTxnLocked). txnEarly buffers agreed decisions that arrive
	// before the local executor reaches the transaction — coordinator
	// replicas run the same deterministic schedule but not in lockstep.
	txnPending map[string]*txnDecision
	txnEarly   *boundedCache[bool]

	// early holds outcomes that arrived for request ids this driver has
	// not issued yet (id number above reqSeq): a lagging replica's
	// executor often issues a call after the target's verified bundle, or
	// the agreed reply, already reached its driver. startRequest consumes
	// the entry when the call is issued (see parkable).
	early *boundedCache[earlyOutcome]
}

// earlyOutcome is what arrived for a not-yet-issued request id. Which
// field answers the call is only known at issue time: a fast-path call
// takes the verified bundle, an agreed-path call the agreed outcome.
type earlyOutcome struct {
	bundle *ReplyBundle // verified by handleBundle before parking
	agreed *Reply
	// shares, epoch and groupN re-carry the agreed reply's certificate
	// for a transaction request (see deliverReply).
	shares []Share
	epoch  uint64
	groupN int
}

// txnDecision is a registered transaction's decision slot.
type txnDecision struct {
	done   bool
	commit bool
}

// outstandingReq tracks a request this driver issued and is awaiting.
type outstandingReq struct {
	target    string
	payload   []byte
	responder int
	attempt   int
	timeout   time.Duration
	retryTmr  *time.Timer
	abortTmr  *time.Timer
	// txn marks a protocol-internal request (2PC, see txn.go; state
	// handoff, see handoff.go): its agreed reply is routed to the txn
	// wait table instead of the event queue, with the reply bundle's
	// shares retained as the vote/handoff certificate.
	txn bool
	// class optionally overrides the transport stats class of the
	// request's frames (ClassTxn for 2PC, ClassHandoff for resharding);
	// zero derives the class from the payload as usual.
	class uint8
	// suppressReply marks a request settled internally (aborted by a
	// failed CallAllShards fan-out): the application never learned its
	// id, so the agreed abort/reply must not surface as an event.
	suppressReply bool
	// expiry is the absolute unix-milli deadline stamped into the
	// request envelope (0 = none): replicas drop the request at every
	// pre-agreement stage once it passes, and retransmission stops.
	expiry uint64
	// busy collects distinct target voters that refused the request
	// under overload (index -> their retry-after hint); at f_t+1 the
	// request settles as overloaded. busyExpired counts refusals that
	// reported the deadline expired.
	busy        map[int]uint64
	busyExpired int
	// busyFanned records the one-shot whole-group retransmit triggered by
	// the first below-quorum busy: first attempts are primary-routed, so
	// without the fan-out only the primary could ever refuse and the
	// f_t+1 busy quorum would never form under honest overload.
	busyFanned bool
	// counted marks a request holding one of the driver's in-flight
	// window slots (see Driver.maxOutstanding); release is idempotent.
	counted bool
	// fast marks a reply fast-path call (see Driver.fastPath): its
	// verified bundle settles it directly, and no caller-side agreement
	// ever orders its outcome.
	fast     bool
	blocking bool // Request.Blocking, copied onto the settled Reply
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
	settled   bool
	blocking  bool // Request.Blocking, copied onto the settled Reply
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

// txnReply is the agreed outcome of a transaction request, with the
// endorsement shares retained for the coordinator's decision proposal.
type txnReply struct {
	reply  Reply
	bundle *ReplyBundle // nil for aborts
}

// replySeenCacheSize bounds the driver's reply dedup window.
const replySeenCacheSize = 4 * deliveredCacheSize

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
		replySeen:          newBoundedCache[struct{}](replySeenCacheSize),
		replyCh:            make(map[string]chan Reply),
		outstanding:        make(map[string]*outstandingReq),
		inflight:           make(map[string]int),
		utils:              make(map[uint64]int64),
		primaryHint:        make(map[string]int),
		readWaits:          make(map[string]*readWait),
		readFloor:          make(map[string]uint64),
		readAfter:          make(map[string]uint64),
		readPartners:       make(map[string][]int),
		canceled:           newBoundedCache[struct{}](replySeenCacheSize),
		txnReplies:         newBoundedCache[txnReply](inFlightCacheSize),
		txnPending:         make(map[string]*txnDecision),
		txnEarly:           newBoundedCache[bool](deliveredCacheSize),
		early:              newBoundedCache[earlyOutcome](inFlightCacheSize),
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

// releaseSlot returns a held window slot (caller holds d.mu). counted
// makes the release idempotent across the several settle paths that can
// race to remove the same entry.
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
// bundles from responders).
func (d *Driver) handleTransport(from auth.NodeID, payload []byte) {
	m, err := DecodeMessage(payload)
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
// deadline pass). Below the quorum the request simply keeps waiting
// (retransmission re-attempts admission), and a busy-read counts as a
// non-endorsing response toward the read's impossibility check.
//
// Only unreplicated callers (d.svc.N == 1: the session tier, bench
// clients) settle overload locally — each replica of a replicated
// caller would collect its own busy quorum at its own time with its own
// hints, so surfacing a locally synthesized reply would diverge the
// replicated event stream. A replicated caller instead proposes the
// deterministic group-wide abort and observes overload as the agreed
// abort every replica delivers identically — except on a reply
// fast-path call, whose outcome agreement no longer orders: an agreed
// abort there would race the certified reply, so the driver keeps
// retransmitting, the first time after the refusers' RETRY-AFTER hint.
func (d *Driver) handleBusy(from auth.NodeID, bz *BusyReply) {
	if bz == nil || from.Role != auth.RoleVoter || bz.Replica != from.Index || from.Index < 0 {
		return
	}
	if bz.Read {
		d.handleBusyRead(from, bz)
		return
	}
	d.mu.Lock()
	o, ok := d.outstanding[bz.ReqID]
	if !ok || from.Service != o.target || o.txn {
		d.mu.Unlock()
		return
	}
	tinfo, err := d.registry.Lookup(o.target)
	if err != nil || from.Index >= tinfo.N {
		d.mu.Unlock()
		return
	}
	if o.busy == nil {
		o.busy = make(map[int]uint64)
	}
	o.busy[from.Index] = bz.RetryAfterMillis
	if bz.Expired {
		o.busyExpired++
	}
	if len(o.busy) < tinfo.F()+1 {
		// Below the quorum a single busy is unverifiable — but if the
		// refusal is honest, the rest of the group is overloaded too and
		// only the primary has seen the request (first attempts are
		// primary-routed). Fan the request to the whole group once, so
		// correct overloaded voters can join the quorum promptly; a lying
		// voter's lone busy is instead outvoted by admission elsewhere.
		fan := !o.busyFanned
		o.busyFanned = true
		d.mu.Unlock()
		if fan {
			d.retransmit(bz.ReqID)
		}
		return
	}
	var hint uint64
	for _, h := range o.busy {
		if h > hint {
			hint = h
		}
	}
	switch {
	case d.svc.N > 1 && o.fast:
		// Start a fresh quorum and retry once the group said it may have
		// room; the callee's own agreement still decides the one outcome.
		reqID := bz.ReqID
		o.busy, o.busyExpired = nil, 0
		if o.retryTmr != nil {
			o.retryTmr.Stop()
		}
		wait := time.Duration(hint) * time.Millisecond
		if wait <= 0 {
			wait = d.retransmitInterval
		}
		o.retryTmr = time.AfterFunc(wait, func() { d.retransmit(reqID) })
		d.mu.Unlock()
	case d.svc.N > 1:
		// Replicated caller: settle through the agreed abort only.
		d.mu.Unlock()
		d.voter.requestAbort(bz.ReqID)
	default:
		// Unreplicated callers only issue fast-path calls (txn traffic
		// returned above), so the settle is local and final.
		d.settleLocked(Reply{
			ReqID: bz.ReqID, Aborted: true,
			Overloaded: true, Expired: o.busyExpired > 0, RetryAfterMillis: hint,
		}, o, nil, 0, 0)
		d.mu.Unlock()
	}
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

// handleBundle verifies a stage-6 reply bundle. A fast-path call is
// settled by it directly; any other call forwards it to the voter group
// primary for agreement (stage 7). A bundle for a request this driver
// has not issued yet is parked for the issue (see parkable).
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
	// The outstanding check and the parking decision share this hold with
	// startRequest's issue-time lookup: a bundle is either seen by the
	// registered call or parked where the issue will find it.
	o, waiting := d.outstanding[b.ReqID]
	if !waiting {
		if d.parkable(b.ReqID) {
			e, _ := d.early.Get(b.ReqID)
			e.bundle = b
			d.early.Put(b.ReqID, e)
		}
		d.mu.Unlock()
		return
	}
	if o.fast {
		if b.Target == o.target {
			d.settleLocked(Reply{ReqID: b.ReqID, Payload: b.Payload}, o, nil, 0, 0)
		}
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()
	// Forward to our group's primary voter; non-primary voters relay.
	fw := &Message{Kind: KindResultForward, ResultForward: b}
	w := wire.GetWriter(fw.SizeHint())
	fw.EncodeTo(w)
	primary := d.voter.bft().Primary()
	if err := d.adapter.Send(auth.VoterID(d.svc.Name, primary), w.Bytes()); err != nil {
		d.logf("result forward for %s: %v", b.ReqID, err)
	}
	w.Free()
}

// Call issues a request to a target service (stage 1) and returns its
// request ID without blocking. A sharded target is routed by the
// request's payload digest; use CallKey to route by an explicit key
// (e.g. a customer ID) so related requests share a shard. Call is a
// thin wrapper over Do; its bare timeout parameter is deprecated in
// favor of Do's context (zero means never abort, the paper's default;
// otherwise the request is deterministically aborted group-wide if no
// reply is agreed in time).
func (d *Driver) Call(target string, payload []byte, timeout time.Duration) (string, error) {
	res, err := d.Do(context.Background(), Request{Target: target, Payload: payload, Timeout: timeout, NoWait: true})
	return res.ReqID, err
}

// CallKey issues a request routed by an explicit routing key: for a
// sharded target, every driver replica maps the same key to the same
// shard group (ShardFor is replica-consistent), so state partitioned by
// key stays on one shard across calls. A nil/empty key falls back to
// the payload digest. For an unsharded target the key is ignored.
// CallKey is a thin wrapper over Do; its bare timeout parameter is
// deprecated in favor of Do's context.
func (d *Driver) CallKey(target string, key, payload []byte, timeout time.Duration) (string, error) {
	res, err := d.Do(context.Background(), Request{Target: target, Key: key, Payload: payload, Timeout: timeout, NoWait: true})
	return res.ReqID, err
}

// CallAllShards fans a broadcast-style request out to every shard of a
// sharded target (one independent request per shard, in shard order) and
// returns the per-shard request IDs. On an unsharded target it degrades
// to a single Call. The caller collects replies with WaitReply per ID;
// aggregation across shards is application policy; fan-outs that must
// succeed or fail together belong in CallTxn instead.
//
// A mid-fan-out error settles the already-issued requests with
// deterministic aborts (every replica fails the same shard the same
// way), so no request is left outstanding with timers running. The
// aborts never surface as application events: the application only
// receives the error, so replies to ids it never learned would sit in
// the event queue unconsumable. CallAllShards is a thin wrapper over Do
// (AllShards + NoWait); its bare timeout parameter is deprecated in
// favor of Do's context.
func (d *Driver) CallAllShards(target string, payload []byte, timeout time.Duration) ([]string, error) {
	res, err := d.Do(context.Background(), Request{Target: target, Payload: payload, Timeout: timeout, AllShards: true, NoWait: true})
	return res.ShardIDs, err
}

// fanAllShards issues one independent request per shard of a sharded
// target, in shard order (the AllShards arm of Do).
func (d *Driver) fanAllShards(target string, payload []byte, timeout time.Duration) ([]string, error) {
	tinfo, err := d.registry.Lookup(target)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, tinfo.ShardCount())
	for k := 0; k < tinfo.ShardCount(); k++ {
		id, err := d.call(tinfo.Shard(k), payload, timeout, false, 0)
		if err != nil {
			d.suppressReplies(ids)
			for _, issued := range ids {
				d.abort(issued)
			}
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// suppressReplies marks requests settled internally so their agreed
// replies (typically the aborts just proposed) never surface as
// application events. A reply that already raced into the event queue
// is removed from it.
func (d *Driver) suppressReplies(ids []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, id := range ids {
		if o, ok := d.outstanding[id]; ok {
			o.suppressReply = true
			continue
		}
		for i := len(d.events) - 1; i >= 0; i-- {
			if d.events[i].Kind == EventReply && d.events[i].Reply.ReqID == id {
				d.events = append(d.events[:i], d.events[i+1:]...)
			}
		}
	}
}

// call issues a request to one concrete replica group. txn marks a
// protocol-internal request (2PC vote or handoff step) whose reply is
// routed to the transaction wait table; class optionally overrides the
// transport stats class of its frames.
func (d *Driver) call(tinfo ServiceInfo, payload []byte, timeout time.Duration, txn bool, class uint8) (string, error) {
	return d.startRequest("", tinfo, &outstandingReq{
		payload: payload, timeout: timeout, txn: txn, class: class,
		fast: !txn && d.fastPath(false, timeout),
	})
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
// filling in o's target and, for a fresh call, its responder. An empty
// reqID reserves the next id. The reservation, the registration in
// d.outstanding and the lookup of an outcome parked before the issue
// happen under one d.mu hold, so a bundle arriving concurrently is
// either seen by the registered call or parked where this lookup finds
// it. The read fast path re-enters with its already-reserved id on
// fallback, so the agreement-path reply answers the very id the caller
// is already waiting on.
func (d *Driver) startRequest(reqID string, tinfo ServiceInfo, o *outstandingReq) (string, error) {
	target := tinfo.Name
	o.target = target
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return "", ErrClosed
	}
	if reqID == "" {
		reqID = d.nextReqID()
		o.responder = int(d.reqSeq % uint64(tinfo.N))
	} else if d.canceled.Contains(reqID) {
		// A ctx cancel settled this id while the read fallback (the only
		// re-entrant) was in flight; re-issuing would resurrect it.
		d.mu.Unlock()
		return "", errRequestCanceled
	}
	if !o.txn && !d.acquireSlot(target) {
		// Client-edge admission: the in-flight window to this target is
		// full, so refuse with the deterministic RETRY-AFTER fault before
		// building or sending anything (txn traffic is protocol-internal
		// 2PC/handoff machinery and is never shed here).
		d.mu.Unlock()
		return "", &OverloadError{RetryAfter: DefaultRetryAfterHint}
	}
	o.counted = !o.txn && d.maxOutstanding > 0
	if e, ok := d.early.Get(reqID); ok {
		d.early.Delete(reqID)
		// The outcome that matches how the call was issued answers it
		// without sending anything; the other kind is dropped.
		switch {
		case o.fast && e.bundle != nil && e.bundle.Target == target:
			d.settleLocked(Reply{ReqID: reqID, Payload: e.bundle.Payload}, o, nil, 0, 0)
			d.mu.Unlock()
			return reqID, nil
		case !o.fast && e.agreed != nil:
			d.settleLocked(*e.agreed, o, e.shares, e.epoch, e.groupN)
			d.mu.Unlock()
			return reqID, nil
		}
	}
	if o.timeout > 0 && !o.txn {
		// Deadline propagation: stamp the caller's deadline (ctx deadline
		// or explicit Timeout, both already folded into timeout) into the
		// request envelope so replicas can drop expired work at every
		// pre-agreement stage instead of ordering it.
		o.expiry = uint64(time.Now().Add(o.timeout).UnixMilli())
	}
	d.outstanding[reqID] = o
	hint := d.primaryHint[target]
	d.mu.Unlock()
	if hint < 0 || hint >= tinfo.N {
		hint = 0
	}

	req, err := d.buildRequest(reqID, tinfo, o.payload, o.responder, 0, o.expiry)
	if err != nil {
		// The entry has no timers yet; without this removal it would
		// never be reaped and Outstanding() would over-count forever.
		d.mu.Lock()
		d.releaseSlot(target, &o.counted)
		delete(d.outstanding, reqID)
		d.mu.Unlock()
		return "", err
	}
	// First attempt goes to the believed primary — the hint learned from
	// the target's reply bundles, index 0 before the first bundle;
	// retransmissions fan out to the whole group, so a crashed or
	// superseded primary costs one retransmission interval, never
	// liveness.
	if err := d.sendRequest(req, []auth.NodeID{auth.VoterID(target, hint)}, o.class); err != nil {
		d.logf("request %s: %v", reqID, err)
	}

	d.mu.Lock()
	if cur, ok := d.outstanding[reqID]; ok && cur.retryTmr == nil {
		// (A busy refusal may already have re-armed retransmission.)
		cur.retryTmr = time.AfterFunc(d.retransmitInterval, func() { d.retransmit(reqID) })
		if o.timeout > 0 {
			cur.abortTmr = time.AfterFunc(o.timeout, func() { d.abort(reqID) })
		}
	}
	d.mu.Unlock()
	return reqID, nil
}

// CallRead issues a read-only request through the session-tier fast
// path: the request goes straight to f_t+1 replicas of the owning shard
// group — the designated responder and f partners — skipping agreement
// entirely, and is answered as soon as f_t+1 replicas return matching
// digest endorsements at or above the session's lease (the monotonic
// sequence floor, plus the read-your-writes gate the replicas enforce
// against AfterReq). The channel MACs already authenticate both
// endpoints, so the read carries no application-level authenticator.
// When the replicas asked cannot certify (a divergent digest, a Behind
// decline, a busy refusal short of the busy quorum, or a partner silent
// through the fast window) the read asks the rest of the group once.
// A silent or payload-less responder, or a widened read that still
// cannot certify, deterministically re-issues the same request id
// through the normal agreement path under the caller's original
// deadline — the caller observes exactly one reply either way, and
// never an uncertified one. A replicated caller (N > 1) degrades to
// the agreement path: fast replies arrive outside agreement and so
// could not reach its replicas deterministically; the session tier is
// unreplicated by design. CallRead is a thin wrapper over Do (Read +
// NoWait); its bare timeout parameter is deprecated in favor of Do's
// context.
func (d *Driver) CallRead(target string, key, payload []byte, timeout time.Duration) (string, error) {
	res, err := d.Do(context.Background(), Request{Target: target, Key: key, Payload: payload, Timeout: timeout, Read: true, NoWait: true})
	return res.ReqID, err
}

// issueRead resolves and issues one fast-path read (the Read arm of
// Do), returning its id without waiting. blocking is Do's fastPath
// input for the agreement-path degrade of a replicated caller.
func (d *Driver) issueRead(target string, key, payload []byte, timeout time.Duration, blocking bool) (string, error) {
	tinfo, err := d.resolveShard(target, key, payload)
	if err != nil {
		return "", err
	}
	if d.svc.N > 1 {
		return d.startRequest("", tinfo, &outstandingReq{payload: payload, timeout: timeout, blocking: blocking, fast: d.fastPath(blocking, timeout)})
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
	if !ok || rw.settled || rw.widened != widened {
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
	if !ok || rw.settled || from.Service != rw.target || replica != from.Index ||
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
	rw.settled = true
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
		d.mu.Unlock()
		d.deliverReply(Reply{ReqID: reqID, Payload: s.payload, Blocking: rw.blocking}, nil, 0, 0)
	case readShed:
		d.finishRead(reqID, rw)
		d.readStats.shed.Add(1)
		// Block a late fallback re-issue and a late duplicate alike.
		d.replySeen.Put(reqID, struct{}{})
		d.canceled.Put(reqID, struct{}{})
		d.postReply(Reply{
			ReqID: reqID, Aborted: true, Blocking: rw.blocking,
			Overloaded: true, RetryAfterMillis: rw.retryAfter,
		})
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
// deadline. At most one answer surfaces: settling is exclusive under
// d.mu, and replySeen dedups a late agreed duplicate of an
// already-certified read.
func (d *Driver) readFallbackFor(reqID string, timedOut bool) {
	d.mu.Lock()
	rw, ok := d.readWaits[reqID]
	if !ok || rw.settled || d.closed {
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
	o := &outstandingReq{payload: rw.payload, responder: rw.responder, blocking: rw.blocking}
	if rw.replicas[o.responder].rank == 0 {
		// A silent responder would leave the agreed reply unbundled until
		// a retransmission rotates the role; the replica that answered
		// the read first takes it instead.
		for i := range rw.replicas {
			if rw.replicas[i].rank == 1 {
				o.responder = i
			}
		}
	}
	if !rw.deadline.IsZero() {
		if o.timeout = time.Until(rw.deadline); o.timeout <= 0 {
			// The deadline passed inside the fast window: abort here, as
			// any fast-path call does at its deadline (see Driver.abort).
			d.settleLocked(Reply{ReqID: reqID, Aborted: true, Blocking: rw.blocking}, nil, nil, 0, 0)
			d.mu.Unlock()
			return
		}
	}
	o.fast = d.fastPath(false, o.timeout)
	d.mu.Unlock()

	tinfo, err := d.registry.Lookup(rw.target)
	if err != nil {
		d.logf("read fallback %s: unknown target %s", reqID, rw.target)
		return
	}
	if _, err := d.startRequest(reqID, tinfo, o); err != nil {
		if hint, is := IsOverload(err); is {
			// The window refilled between releasing the read's slot and
			// re-issuing through agreement: the caller is already waiting
			// on this id, so settle it as shed rather than stranding it
			// until its deadline.
			d.mu.Lock()
			if !d.closed && !d.canceled.Contains(reqID) {
				d.replySeen.Put(reqID, struct{}{})
				d.canceled.Put(reqID, struct{}{})
				d.postReply(Reply{
					ReqID: reqID, Aborted: true, Blocking: rw.blocking,
					Overloaded: true, RetryAfterMillis: uint64(hint.Milliseconds()),
				})
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

// retransmit re-sends an unanswered request to every target voter with a
// rotated responder choice, with exponential backoff.
func (d *Driver) retransmit(reqID string) {
	d.mu.Lock()
	o, ok := d.outstanding[reqID]
	if !ok || d.closed {
		d.mu.Unlock()
		return
	}
	if expiredStamp(o.expiry) {
		// Past the caller's deadline nothing downstream will serve this
		// request; stop probing and let the abort timer settle it.
		d.mu.Unlock()
		return
	}
	o.attempt++
	attempt := o.attempt
	target := o.target
	payload := o.payload
	tinfo, err := d.registry.Lookup(target)
	if err != nil {
		d.mu.Unlock()
		return
	}
	o.responder = int((fnv64a([]byte(reqID)) + uint64(attempt)) % uint64(tinfo.N))
	responder := o.responder
	class := o.class
	backoff := d.retransmitInterval << uint(min(attempt, 6))
	if backoff > maxRetransmitBackoff {
		backoff = maxRetransmitBackoff
	}
	// ±20% jitter decorrelates retransmission fan-outs across drivers:
	// without it, every caller that issued during the same outage
	// retransmits to the whole group on the same beat forever.
	if j := int64(backoff) / 5; j > 0 {
		backoff += time.Duration(rand.Int63n(2*j+1) - j)
	}
	o.retryTmr = time.AfterFunc(backoff, func() { d.retransmit(reqID) })
	d.mu.Unlock()

	req, err := d.buildRequest(reqID, tinfo, payload, responder, attempt, o.expiry)
	if err != nil {
		d.logf("retransmit %s: %v", reqID, err)
		return
	}
	if err := d.sendRequest(req, tinfo.VoterIDs(), class); err != nil {
		d.logf("retransmit %s: %v", reqID, err)
	}
	d.logf("retransmitted %s (attempt %d, responder %d)", reqID, attempt, responder)
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

// deliverReply records an agreed reply or abort (stage 9), and a
// certified fast-path read. shares carries the agreed reply bundle's
// endorsements, retained as the vote certificate when the request
// belongs to a transaction; epoch/groupN are the bundle's roster
// attestation, re-carried so the rebuilt certificate verifies under the
// roster its shares were minted for.
func (d *Driver) deliverReply(r Reply, shares []Share, epoch uint64, groupN int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.replySeen.Contains(r.ReqID) {
		return
	}
	o, ok := d.outstanding[r.ReqID]
	switch {
	case ok && o.fast:
		// No correct replica proposes an outcome for a fast-path call; an
		// agreed one (a faulty voter's abort) must not race the certified
		// reply, which each replica takes from its own verified bundle.
		return
	case !ok && d.parkable(r.ReqID):
		e, _ := d.early.Get(r.ReqID)
		e.agreed, e.shares, e.epoch, e.groupN = &r, shares, epoch, groupN
		d.early.Put(r.ReqID, e)
		return
	}
	if !ok {
		o = nil
	}
	d.settleLocked(r, o, shares, epoch, groupN)
}

// settleLocked records the one outcome of a request and hands it to its
// consumer (caller holds d.mu). o is the request's outstanding entry,
// nil when there is none (a certified read, or an id settled before).
func (d *Driver) settleLocked(r Reply, o *outstandingReq, shares []Share, epoch uint64, groupN int) {
	d.replySeen.Put(r.ReqID, struct{}{})
	if o != nil {
		r.Blocking = o.blocking
		if o.retryTmr != nil {
			o.retryTmr.Stop()
		}
		if o.abortTmr != nil {
			o.abortTmr.Stop()
		}
		d.releaseSlot(o.target, &o.counted)
		delete(d.outstanding, r.ReqID)
		if !o.txn && !r.Aborted {
			// Session-lease bookkeeping: a completed agreement-path request
			// is conservatively a write this session's later fast-path
			// reads must observe (read-your-writes), so advance the lease
			// to its request number.
			if n, okN := callerReqSeq(r.ReqID, d.svc.Name); okN && n > d.readAfter[o.target] {
				d.readAfter[o.target] = n
			}
		}
	}
	if (o != nil && o.suppressReply) || d.canceled.Contains(r.ReqID) {
		// Settled internally (failed fan-out or ctx cancel): the caller
		// gave up on this id or never learned it, so nothing may surface.
		return
	}
	if o != nil && o.txn {
		// Transaction replies feed CallTxn, not the application event
		// queue; agreement order still decided the content.
		tr := txnReply{reply: r}
		if !r.Aborted && len(shares) > 0 {
			tr.bundle = &ReplyBundle{ReqID: r.ReqID, Target: o.target, Epoch: epoch, GroupN: groupN, Payload: r.Payload, Shares: shares}
		}
		d.txnReplies.Put(r.ReqID, tr)
		d.cond.Broadcast()
		return
	}
	d.postReply(r)
}

// abort settles an outstanding request its caller gave up on (timeout,
// ctx cancel, failed fan-out). A fast-path call aborts locally: no
// caller-side agreement orders its outcome. Any other request is
// aborted through agreement, so every replica settles it at one point.
func (d *Driver) abort(reqID string) {
	d.mu.Lock()
	if o, ok := d.outstanding[reqID]; ok && o.fast {
		d.settleLocked(Reply{ReqID: reqID, Aborted: true}, o, nil, 0, 0)
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()
	d.voter.requestAbort(reqID)
}

// postReply hands an application-visible reply to its consumer (caller
// holds d.mu): a Do waiter registered in replyCh receives it directly —
// waking exactly that goroutine — and anything else joins the shared
// event queue for NextEvent/WaitReply consumers. At most one post ever
// happens per request id (replySeen and the settle paths gate under
// d.mu), so the capacity-1 send cannot block.
func (d *Driver) postReply(r Reply) {
	if ch, ok := d.replyCh[r.ReqID]; ok {
		delete(d.replyCh, r.ReqID)
		ch <- r
		return
	}
	d.events = append(d.events, Event{Kind: EventReply, Reply: r})
	d.cond.Broadcast()
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

// NextEvent returns the next agreed event — request or reply — in
// agreement order, blocking until one is available. Mixing NextEvent
// with the filtered accessors is allowed: they all consume from the
// same queue.
func (d *Driver) NextEvent() (Event, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return Event{}, ErrClosed
		}
		if len(d.events) > 0 {
			return d.popAt(0), nil
		}
		d.cond.Wait()
	}
}

// NextReply returns the oldest unconsumed reply in agreement order,
// blocking until one is available.
func (d *Driver) NextReply() (Reply, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return Reply{}, ErrClosed
		}
		for i := range d.events {
			if d.events[i].Kind == EventReply {
				return d.popAt(i).Reply, nil
			}
		}
		d.cond.Wait()
	}
}

// WaitReply blocks until the reply for a specific request arrives and
// returns it.
func (d *Driver) WaitReply(reqID string) (Reply, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return Reply{}, ErrClosed
		}
		for i := range d.events {
			if d.events[i].Kind == EventReply && d.events[i].Reply.ReqID == reqID {
				return d.popAt(i).Reply, nil
			}
		}
		d.cond.Wait()
	}
}

// NextRequest returns the oldest unexecuted incoming request, blocking
// until one is available.
func (d *Driver) NextRequest() (IncomingRequest, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return IncomingRequest{}, ErrClosed
		}
		for i := range d.events {
			if d.events[i].Kind == EventRequest {
				return d.popAt(i).Request, nil
			}
		}
		d.cond.Wait()
	}
}

// TryNextRequest returns an incoming request if one is queued, without
// blocking.
func (d *Driver) TryNextRequest() (IncomingRequest, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return IncomingRequest{}, false
	}
	for i := range d.events {
		if d.events[i].Kind == EventRequest {
			return d.popAt(i).Request, true
		}
	}
	return IncomingRequest{}, false
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
	for _, o := range d.outstanding {
		if o.retryTmr != nil {
			o.retryTmr.Stop()
		}
		if o.abortTmr != nil {
			o.abortTmr.Stop()
		}
	}
	for _, rw := range d.readWaits {
		rw.tmr.Stop()
	}
	// Closing each registered reply channel unblocks its waiter with
	// ErrClosed (a closed-channel receive reports ok=false).
	for id, ch := range d.replyCh {
		delete(d.replyCh, id)
		close(ch)
	}
	d.cond.Broadcast()
}
