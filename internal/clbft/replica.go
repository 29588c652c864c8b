package clbft

import (
	"crypto/sha256"
	"encoding/binary"
	"log"
	"slices"
	"sync/atomic"
	"time"

	"perpetualws/internal/inbox"
)

// Delivery is one agreed operation handed to the application, in strict
// sequence order. Tentative marks an operation executed after its
// prepared certificate but before its commit certificate (tentative
// execution); a tentative delivery is revoked through the rollback
// callback if a view change reassigns its sequence number, and is
// final otherwise.
//
// Op belongs to the replica (it may be one entry of a larger batch
// buffer) and must not be modified; the application may retain it.
// Parsed is the value the WithValidator function returned when this
// replica validated these very bytes, so the application does not
// decode what its validator already decoded. It is nil without a
// validator, and for operations the validator never saw: history
// replayed by catch-up, and rollbacks.
//
// Pos names the operation, not its batch: Position(Seq, i), where i is
// the operation's index in the request agreed at Seq (0 for an unbatched
// operation). Positions order deliveries as the group executes them, so
// "state reflects position p" is one comparison.
type Delivery struct {
	Seq       uint64
	Pos       uint64
	OpID      string
	Op        []byte
	Parsed    any
	Tentative bool
}

// Transport sends protocol messages to other members of the voter group,
// addressed by replica index. Implementations must not block for long;
// the Perpetual ChannelAdapter satisfies this. Multicast delivers one
// message to several receivers; every broadcast goes through it, so a
// transport can serialize the message once and vary only per-receiver
// authentication.
type Transport interface {
	Send(to int, m *Message)
	Multicast(tos []int, m *Message)
}

// TransportFunc adapts a function to the Transport interface.
type TransportFunc func(to int, m *Message)

// Send implements Transport.
func (f TransportFunc) Send(to int, m *Message) { f(to, m) }

// Multicast implements Transport with one call per receiver.
func (f TransportFunc) Multicast(tos []int, m *Message) {
	for _, to := range tos {
		f(to, m)
	}
}

type eventKind uint8

const (
	evStart eventKind = iota + 1
	evMessage
	evVote
	evSubmit
	evFire
	evStop
	evDebug
)

// timerKind names a replica timer. A handler arms one by setting its due
// time (arm); its fire is an evFire event for the kind.
type timerKind uint8

const (
	timerSuspect timerKind = iota // suspicion: outstanding work did not execute
	timerFlush                    // commit flush: queued votes found no carrier
	timerJoin                     // join retry: re-issue the catch-up fetch
	numTimers
)

// event is one input to the replica. now is the time the loop shell
// handed it to handle; it is the only clock a handler sees. A vote
// travels by value: a votes message enters as one event per vote.
type event struct {
	kind  eventKind
	timer timerKind
	now   time.Time
	from  int
	msg   *Message
	vote  Vote
	req   *Request
	debug *debugRequest
}

// inboxDepth bounds the protocol messages waiting in the replica's event
// queue, not the batch the loop holds. Overflow drops them (they are
// retransmitted or recovered by view changes); submissions, timer fires,
// Stop and DebugState bypass the bound and are never refused.
const inboxDepth = 16384

// Replica is one member of a CLBFT group. All protocol state is owned by
// a single event-loop goroutine; public methods only enqueue events and
// read atomics, so the type is safe for concurrent use.
type Replica struct {
	cfg          Config
	deliver      func(Delivery)
	transport    Transport
	logger       *log.Logger
	validate     func(opID string, op []byte) (parsed any, ok bool)
	verdictEpoch func() uint64
	ckptHook     func(seq uint64, state Digest)
	rollback     func(d Delivery) bool
	barrier      func(opID string) bool
	haltHook     func(seq uint64, state Digest)

	inbox   *inbox.Queue[event]
	stopped chan struct{}

	// Event-loop-confined protocol state.
	view        uint64
	seqCounter  uint64
	h           uint64 // low watermark: last stable checkpoint
	lastExec    uint64
	stateDigest Digest
	log         *msgLog

	// Tentative-execution state. lastCommitted trails lastExec by the
	// tentatively executed suffix (at most one sequence number: an
	// operation executes tentatively only when everything below it has
	// committed). chainAt records the digest chain per executed
	// sequence number so checkpoints certify committed history and
	// rollback can rewind the chain; pendingPiggy queues this
	// replica's commit votes until a pre-prepare/prepare carries them
	// or the flush heartbeat fires.
	lastCommitted uint64
	chainAt       map[uint64]Digest
	pendingPiggy  []Vote

	pending      map[string]*pendingReq
	pendingOrder []string
	executedOps  map[string]uint64

	checkpoints    map[uint64]map[int]Digest
	certifiedCkpts map[uint64]Digest
	execCache      map[uint64]*Request

	inViewChange bool
	viewChanges  map[uint64]map[int]*ViewChange
	vcTimeout    time.Duration

	// probeSeq is the sequence number this replica last probed its
	// peers for before suspecting the primary, and probeReplies the
	// request digest each peer reported committed there (see probe).
	probeSeq     uint64
	probeReplies map[int]Digest

	// Membership barrier state (see bootstrap.go): haltAt is the
	// sequence number of an executed barrier operation — execution never
	// advances past it, and haltHook fires once when it commits.
	// joinTarget is the sequence number a joining replica must replay to
	// before it votes.
	haltAt     uint64
	haltFired  bool
	joinTarget uint64

	now time.Time            // the current event's time
	due [numTimers]time.Time // each timer's due time, zero while disarmed

	// others lists every replica index but this one (broadcast
	// destinations), computed once.
	others []int

	// bcastDepth and sendQ implement local-first broadcasting with
	// causal wire order: see broadcast.
	bcastDepth int
	sendQ      []*Message

	// Cross-goroutine visible state.
	curView    atomic.Uint64
	execCount  atomic.Uint64
	execSeq    atomic.Uint64
	commitSeq  atomic.Uint64
	vcCount    atomic.Uint64
	tentExecs  atomic.Uint64
	rollbacks  atomic.Uint64
	piggyVotes atomic.Uint64
	haltA      atomic.Uint64
	joinA      atomic.Uint64
	pendingA   atomic.Int64
}

// pendingReq is a buffered operation waiting to be ordered, with the
// validator's verdict on it and the verdict epoch (WithVerdictEpoch) it
// was reached in. validated is false only for operations carried across
// a membership boundary (see Bootstrap.Pending), whose verdict belongs
// to the previous epoch's keys: they are validated when a pre-prepare
// carrying them is accepted, like any operation this replica had not
// seen.
type pendingReq struct {
	req       *Request
	parsed    any
	validated bool
	epoch     uint64
}

// Option configures a Replica.
type Option func(*Replica)

// WithLogger directs diagnostics to l. By default diagnostics are
// discarded.
func WithLogger(l *log.Logger) Option {
	return func(r *Replica) { r.logger = l }
}

// WithValidator installs an operation validator. Replicas refuse to
// pre-prepare or prepare operations the validator rejects, so a faulty
// primary cannot push fabricated operations through agreement. The
// validator must be cheap and must not call back into the replica.
//
// Validators may consult per-replica secrets (e.g., MAC entries
// addressed to this replica), so acceptance can differ across replicas
// for adversarial operations; such operations stall and are recovered by
// a view change, a liveness (not safety) concern inherited from
// MAC-authenticated BFT protocols.
//
// Whatever the validator had to parse out of op to reach its verdict it
// may hand back as parsed: the replica keeps the value beside the
// operation and passes it on in Delivery.Parsed. Every operation is
// validated once per replica instance, on the bytes that are delivered;
// op is the replica's own buffer, so parsed may alias it.
func WithValidator(f func(opID string, op []byte) (parsed any, ok bool)) Option {
	return func(r *Replica) { r.validate = f }
}

// WithVerdictEpoch names the state outside an operation's bytes that the
// validator's verdicts depend on (the keys its MACs are checked under):
// epoch returns a number that changes whenever that state does. A
// verdict kept with a buffered operation is reused only while epoch
// still returns what it returned just before the verdict was reached;
// otherwise the operation is validated again when its pre-prepare is
// accepted. epoch may be called from the event loop at any time and
// must not call back into the replica. Without this option verdicts
// depend on the operation's bytes alone.
func WithVerdictEpoch(epoch func() uint64) Option {
	return func(r *Replica) { r.verdictEpoch = epoch }
}

// WithCheckpointHook installs an observer invoked whenever a checkpoint
// becomes stable (quorum-certified and locally executed): the hook
// receives the checkpoint's sequence number and chained state digest.
// Perpetual surfaces the group's stable log position through it
// (Replica.StableCheckpointSeq); diagnostics and external snapshotting
// can hang off it too. The hook runs on the event-loop
// goroutine and must not call back into the replica.
func WithCheckpointHook(f func(seq uint64, state Digest)) Option {
	return func(r *Replica) { r.ckptHook = f }
}

// WithRollback installs the application's undo handler for tentative
// executions revoked by a view change. The handler receives each
// revoked delivery newest-first and reports whether it undid the
// operation's effects: if true, the operation is forgotten (and
// re-delivered when agreement re-orders it); if false, the replica
// keeps it marked executed so it is never delivered twice — the
// application's state then reflects the operation at its old position,
// which is safe for commuting operations and is surfaced through
// Rollbacks() for ones that are not. The handler runs on the
// event-loop goroutine and must not call back into the replica.
func WithRollback(f func(d Delivery) bool) Option {
	return func(r *Replica) { r.rollback = f }
}

// WithBarrier installs a membership-barrier predicate. When a delivered
// operation's ID matches, execution halts at that operation's sequence
// number: nothing above it executes in this replica incarnation, and the
// primary stops proposing. The halted sequence number still runs the
// commit round, and once it commits the WithHaltHook observer fires; the
// embedder then stops the replica, exports a Bootstrap, and restarts the
// group with its new composition. If a view change revokes the barrier
// operation's tentative execution, the halt lifts and the operation is
// re-agreed. The predicate runs on the event-loop goroutine.
func WithBarrier(f func(opID string) bool) Option {
	return func(r *Replica) { r.barrier = f }
}

// WithHaltHook installs the observer fired exactly once per incarnation
// when a barrier operation's sequence number commits; it receives that
// sequence number and the chained state digest at it — the (seq, digest)
// pair every correct member exports identically into its Bootstrap. The
// hook runs on the event-loop goroutine and must not call back into the
// replica (in particular it must not call Stop; hand off to another
// goroutine).
func WithHaltHook(f func(seq uint64, state Digest)) Option {
	return func(r *Replica) { r.haltHook = f }
}

// New creates a replica. deliver is invoked on the event-loop goroutine,
// exactly once per sequence number, in order; it must not call back into
// the replica synchronously.
func New(cfg Config, transport Transport, deliver func(Delivery), opts ...Option) (*Replica, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Replica{
		cfg:            cfg,
		deliver:        deliver,
		transport:      transport,
		inbox:          inbox.New[event](inboxDepth),
		stopped:        make(chan struct{}),
		log:            newMsgLog(cfg.N),
		pending:        make(map[string]*pendingReq),
		executedOps:    make(map[string]uint64),
		checkpoints:    make(map[uint64]map[int]Digest),
		certifiedCkpts: make(map[uint64]Digest),
		execCache:      make(map[uint64]*Request),
		chainAt:        make(map[uint64]Digest),
		viewChanges:    make(map[uint64]map[int]*ViewChange),
		vcTimeout:      cfg.ViewChangeTimeout,
		verdictEpoch:   func() uint64 { return 0 },
	}
	for i := 0; i < cfg.N; i++ {
		if i != cfg.ID {
			r.others = append(r.others, i)
		}
	}
	for _, o := range opts {
		o(r)
	}
	return r, nil
}

// Start launches the event loop.
func (r *Replica) Start() {
	go r.run()
}

// Stop terminates the event loop and waits for it to exit.
func (r *Replica) Stop() {
	r.inbox.Put(event{kind: evStop}, false)
	<-r.stopped
}

// Submit proposes an operation for ordering. It may be called by any
// replica's embedder; non-primaries forward to the primary. Duplicate
// OpIDs are ignored once executed (within the retention window). Submit
// never blocks and, until Stop, is never refused.
func (r *Replica) Submit(opID string, op []byte) {
	r.inbox.Put(event{kind: evSubmit, req: &Request{OpID: opID, Op: op}}, false)
}

// Receive enqueues a protocol message attributed (by the authenticated
// transport) to replica from. Malformed or untimely messages are safely
// ignored by the event loop.
func (r *Replica) Receive(from int, m *Message) {
	if from < 0 || from >= r.cfg.N || m == nil {
		return
	}
	if m.Type == MsgVotes {
		r.receiveVotes(from, m.Votes)
		return
	}
	// Dropped on overflow: blocking here could deadlock the transport.
	r.inbox.Put(event{kind: evMessage, from: from, msg: m}, true)
}

// ReceiveEncoded is Receive for a message still in its wire form, which
// it does not retain. A votes frame decodes straight into events, so
// its votes allocate nothing on their way to the log.
func (r *Replica) ReceiveEncoded(from int, buf []byte) {
	if from < 0 || from >= r.cfg.N {
		return
	}
	var stack [16]Vote
	if votes, ok := decodeVotes(buf, stack[:0]); ok {
		r.receiveVotes(from, votes)
	} else if m, err := DecodeMessage(buf); err == nil {
		r.Receive(from, m)
	}
}

// receiveVotes enqueues one event per vote, in order.
func (r *Replica) receiveVotes(from int, votes []Vote) {
	for _, v := range votes {
		r.inbox.Put(event{kind: evVote, from: from, vote: v}, true)
	}
}

// View returns the replica's current view.
func (r *Replica) View() uint64 { return r.curView.Load() }

// Primary returns the index of the current view's primary.
func (r *Replica) Primary() int { return r.cfg.PrimaryOf(r.View()) }

// IsPrimary reports whether this replica currently leads the group.
func (r *Replica) IsPrimary() bool { return r.Primary() == r.cfg.ID }

// Executed returns the number of operations delivered so far.
func (r *Replica) Executed() uint64 { return r.execCount.Load() }

// LastExecutedSeq returns the agreement sequence of the last operation
// this replica delivered (0 before any delivery). It exposes the log
// position local state reflects, which speculative read paths stamp
// into replies so clients can order observed states across replicas.
// With tentative execution it includes the tentative suffix.
func (r *Replica) LastExecutedSeq() uint64 { return r.execSeq.Load() }

// CommittedSeq returns the highest sequence number through which every
// operation is both committed and executed: the stable horizon.
// Deliveries at or below it are final; above it they are tentative.
// Without tentative execution this tracks LastExecutedSeq.
func (r *Replica) CommittedSeq() uint64 { return r.commitSeq.Load() }

// TentativeExecs returns the number of operations executed tentatively
// (before their commit certificate) so far (diagnostic).
func (r *Replica) TentativeExecs() uint64 { return r.tentExecs.Load() }

// Rollbacks returns the number of tentative executions revoked by view
// changes (diagnostic).
func (r *Replica) Rollbacks() uint64 { return r.rollbacks.Load() }

// PiggybackedCommits returns the number of commit votes that rode
// pre-prepare/prepare messages instead of paying their own frame
// (diagnostic).
func (r *Replica) PiggybackedCommits() uint64 { return r.piggyVotes.Load() }

// ViewChanges returns the number of view changes this replica has
// entered (diagnostic).
func (r *Replica) ViewChanges() uint64 { return r.vcCount.Load() }

// PendingLen returns the number of accepted-but-not-yet-executed
// operations buffered at this replica (the proposer backlog), published
// atomically from the event loop so admission control can read it
// lock-free on the request path without a DebugState round trip.
func (r *Replica) PendingLen() int { return int(r.pendingA.Load()) }

// pubPendingLen republishes len(r.pending) for the lock-free PendingLen
// accessor; event-loop callers invoke it after every pending-map
// mutation.
func (r *Replica) pubPendingLen() { r.pendingA.Store(int64(len(r.pending))) }

func (r *Replica) logf(format string, args ...any) {
	if r.logger != nil {
		r.logger.Printf("clbft[%d v%d]: "+format, append([]any{r.cfg.ID, r.view}, args...)...)
	}
}

// run is the loop shell, the one place clbft reads the clock or runs a
// time.Timer. It takes the inbox a batch at a time and, for each event
// in order, stamps it with the time it was handled, hands it to handle
// (evStart first), and then syncs its timers to the due times.
func (r *Replica) run() {
	var timers shellTimers
	defer func() {
		r.inbox.Close() // refuse what comes after Stop
		clear(r.due[:]) // disarm every timer, so sync stops them
		timers.sync(r)
		close(r.stopped)
	}()
	for batch, ok := []event{{kind: evStart}}, true; ok; batch, ok = r.inbox.Take(batch) {
		for _, ev := range batch {
			if ev.kind == evStop {
				return
			}
			ev.now = time.Now()
			if ev.kind == evFire {
				timers.due[ev.timer] = time.Time{} // that timer has run out
			}
			r.handle(ev)
			timers.sync(r)
		}
	}
}

// shellTimers is the shell's timer bookkeeping: one reusable time.Timer
// per timer kind, and the due time each is set for.
type shellTimers struct {
	t   [numTimers]*time.Timer
	due [numTimers]time.Time
}

// sync resets each timer whose due time the last event moved and stops
// each it cleared. A timer is made once, then re-armed without allocating.
func (s *shellTimers) sync(r *Replica) {
	for k := range s.t {
		due := r.due[k]
		if due.Equal(s.due[k]) {
			continue
		}
		s.due[k] = due
		switch {
		case due.IsZero():
			s.t[k].Stop()
		case s.t[k] != nil:
			s.t[k].Reset(due.Sub(r.now))
		default:
			s.t[k] = time.AfterFunc(due.Sub(r.now), func() {
				r.inbox.Put(event{kind: evFire, timer: timerKind(k)}, false)
			})
		}
	}
}

// handle applies one event to the replica's state. It is the replica's
// only entry, and ev.now its only clock.
func (r *Replica) handle(ev event) {
	r.now = ev.now
	switch ev.kind {
	case evStart:
		r.start()
	case evSubmit:
		r.onSubmit(ev.req)
	case evMessage:
		r.onMessage(ev.from, ev.msg)
	case evVote:
		r.onVote(ev.from, ev.vote)
	case evFire:
		r.onFire(ev.timer)
	case evDebug:
		r.onDebug(ev.debug)
	}
}

// arm sets timer k to fire d after the current event.
func (r *Replica) arm(k timerKind, d time.Duration) { r.due[k] = r.now.Add(d) }

// disarm clears timer k; a fire already on its way is then dropped.
func (r *Replica) disarm(k timerKind) { r.due[k] = time.Time{} }

func (r *Replica) armed(k timerKind) bool { return !r.due[k].IsZero() }

// onFire runs timer k's action if k is armed and due, disarming it first.
// Any other fire is stale: one for a disarmed timer, or an earlier
// arming's, which arrives before the current due time.
func (r *Replica) onFire(k timerKind) {
	if !r.armed(k) || r.now.Before(r.due[k]) {
		return
	}
	r.disarm(k)
	switch k {
	case timerSuspect:
		r.onSuspect()
	case timerFlush:
		r.flushPiggy()
	case timerJoin:
		r.joinFetch()
	}
}

// broadcast processes m locally — so that single-replica groups (n=1,
// used for unreplicated endpoints) and the sender's own certificates
// work uniformly — and then sends it to every other replica. The local
// copy is processed first: transport sends may be arbitrarily slow (a
// congested TCP link, a dead peer with backpressure), and the sender's
// own vote must never wait on the network — otherwise a single slow
// link delays the primary's own prepare and with it the whole group.
//
// Local processing can itself broadcast (a prepare completing a
// certificate broadcasts the commit; assembling a new-view replays
// pre-prepares). Those nested messages must not hit the wire before the
// message that caused them — a pre-prepare of view v+1 arriving before
// the new-view that installs v+1 is dropped by every peer, which would
// stall the new view until the next timeout. So sends are queued in
// broadcast-call (causal) order and flushed by the outermost broadcast
// once all local processing is done.
func (r *Replica) broadcast(m *Message) {
	r.attachPiggy(m)
	r.sendQ = append(r.sendQ, m) // reserve the wire slot in causal order
	r.bcastDepth++
	r.onMessage(r.cfg.ID, m)
	r.bcastDepth--
	if r.bcastDepth == 0 {
		q := r.sendQ
		r.sendQ = r.sendQ[:0]
		for _, qm := range q {
			r.multicastOthers(qm)
		}
	}
}

// attachPiggy hands queued commit votes to an outgoing pre-prepare or
// prepare: the carrier frame was being paid for anyway, so the votes
// travel free. Votes recorded here were already counted locally (the
// sender's own commit), so only the wire copy is deferred. Nothing is
// queued without tentative execution, so the votes message that takes
// them is always a backup's prepare.
func (r *Replica) attachPiggy(m *Message) {
	if len(r.pendingPiggy) == 0 {
		return
	}
	switch m.Type {
	case MsgPrePrepare:
		m.PrePrepare.Piggy = slices.Clone(r.pendingPiggy)
	case MsgVotes:
		m.Votes = append(m.Votes, r.pendingPiggy...)
	default:
		return
	}
	r.piggyVotes.Add(uint64(len(r.pendingPiggy)))
	r.pendingPiggy = r.pendingPiggy[:0]
	// The carrier drained the queue: disarm the heartbeat so it measures
	// carrier-less idle time from the next queued vote, instead of firing
	// mid-traffic and paying a standalone frame for votes the next
	// carrier (typically under a request period away) would carry free.
	r.disarm(timerFlush)
}

// armFlush schedules the commit flush heartbeat: if no carrier message
// picks the queued votes up within CommitFlushDelay, they go out in
// their own frame so peers' committed horizons (and with them
// checkpoints and reply stability) keep advancing when traffic stops.
func (r *Replica) armFlush() {
	if r.armed(timerFlush) || r.cfg.N <= 1 {
		return
	}
	r.arm(timerFlush, r.cfg.CommitFlushDelay)
}

// flushPiggy sends queued commit votes standalone. Called by the
// heartbeat and before view-change messages (votes for the abandoned
// view still complete peers' commit certificates there).
func (r *Replica) flushPiggy() {
	if len(r.pendingPiggy) == 0 {
		return
	}
	m := &Message{Type: MsgVotes, Votes: slices.Clone(r.pendingPiggy)}
	r.pendingPiggy = r.pendingPiggy[:0]
	r.disarm(timerFlush)
	r.multicastOthers(m)
}

// multicastOthers sends m to every group member but this one in one
// transport Multicast.
func (r *Replica) multicastOthers(m *Message) {
	if r.cfg.N <= 1 {
		return
	}
	r.multicastTo(r.others, m)
}

// multicastTo sends m to the given replica indices.
func (r *Replica) multicastTo(tos []int, m *Message) {
	if len(tos) > 0 {
		r.transport.Multicast(tos, m)
	}
}

// forwardPending sends every buffered operation to the current primary.
func (r *Replica) forwardPending() {
	for _, opID := range r.pendingOrder {
		if p, ok := r.pending[opID]; ok {
			r.transport.Send(r.cfg.PrimaryOf(r.view), &Message{Type: MsgRequest, Request: p.req})
		}
	}
}

func (r *Replica) onSubmit(req *Request) {
	if req.IsNull() {
		return
	}
	p, ok := r.vouch(req)
	if !ok {
		return // never buffer an op we would refuse to prepare
	}
	if _, done := r.executedOps[req.OpID]; done {
		return
	}
	if _, dup := r.pending[req.OpID]; dup {
		// Adopt the re-submission in place: a retransmission may carry
		// fresher credentials than the buffered copy — the validator
		// accepted *these* bytes just now, while a copy carried across a
		// membership rebuild can hold authenticators the rotated keys no
		// longer verify, and re-proposing that copy would be rejected by
		// every correct backup forever. Ordering identity is the OpID,
		// so only whichever copy gets ordered executes. The verdict travels
		// with the bytes it was reached on.
		r.pending[req.OpID] = p
		return
	}
	r.pending[req.OpID] = p
	r.pendingOrder = append(r.pendingOrder, req.OpID)
	r.pubPendingLen()
	if r.isPrimaryLocked() && !r.inViewChange {
		r.proposePending()
	} else {
		// Forward to the primary for ordering.
		r.transport.Send(r.cfg.PrimaryOf(r.view), &Message{Type: MsgRequest, Request: req})
	}
	r.armTimer()
}

func (r *Replica) isPrimaryLocked() bool { return r.cfg.PrimaryOf(r.view) == r.cfg.ID }

// proposePending assigns sequence numbers to buffered requests within
// the watermark window, batching up to MaxBatch operations per sequence
// number. Requests stay in pending (and pendingOrder) until they
// execute, so they survive view changes and are re-proposed by the new
// primary if their certificates were lost.
// proposePipeline bounds the batched proposals in flight at the primary
// (proposed but not yet locally executed): 2 lets the next batch gather
// while the current one runs its prepare round, without letting
// propose-on-arrival degenerate into singleton batches.
const proposePipeline = 2

func (r *Replica) proposePending() {
	if !r.isPrimaryLocked() || r.inViewChange {
		return
	}
	if r.haltAt != 0 || r.joining() {
		return // halted at a membership barrier, or still catching up
	}
	if r.seqCounter >= r.h+r.cfg.LogWindow() {
		return // window full; retried after the next stable checkpoint
	}
	maxBatch := min(max(r.cfg.MaxBatch, 1), maxBatchOps)
	// Batching only amortizes agreement traffic when concurrent requests
	// share a sequence number, and they only can if a backlog is allowed
	// to form: propose-on-arrival (the unbatched, paper-faithful mode)
	// almost always proposes singleton batches because the event loop
	// outruns the wire. With batching enabled, bound the proposals in
	// flight (proposed but not yet locally executed); while the pipe is
	// full, arriving requests accumulate in pending, and executeReady
	// re-proposes them as one batch when execution advances.
	if maxBatch > 1 && r.seqCounter >= r.lastExec+proposePipeline {
		return
	}
	var batch []*Request
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		if r.seqCounter >= r.h+r.cfg.LogWindow() {
			return false // window filled up mid-pass; ops stay pending
		}
		req := batch[0]
		if len(batch) > 1 {
			req = encodeBatch(batch)
		}
		batch = batch[:0]
		r.seqCounter++
		pp := &PrePrepare{View: r.view, Seq: r.seqCounter, Digest: req.Digest(), Request: *req}
		r.broadcast(&Message{Type: MsgPrePrepare, PrePrepare: pp})
		return true
	}
	kept := r.pendingOrder[:0]
	for idx, opID := range r.pendingOrder {
		p, ok := r.pending[opID]
		if !ok {
			continue // executed: lazily dropped from the order
		}
		kept = append(kept, opID)
		if r.log.hasLiveOp(r.view, opID) {
			continue // already assigned a live sequence number
		}
		batch = append(batch, p.req)
		if len(batch) >= maxBatch {
			if !flush() {
				// Watermark window exhausted: keep the remaining order
				// untouched and stop scanning — under burst submission
				// this pass must not be quadratic in the backlog.
				kept = append(kept, r.pendingOrder[idx+1:]...)
				r.pendingOrder = kept
				return
			}
		}
	}
	flush()
	r.pendingOrder = kept
}

func (r *Replica) onMessage(from int, m *Message) {
	switch m.Type {
	case MsgRequest:
		r.onRequest(from, m.Request)
	case MsgPrePrepare:
		r.onPrePrepare(from, m.PrePrepare)
		for _, v := range m.PrePrepare.Piggy {
			r.onVote(from, v)
		}
	case MsgVotes:
		for _, v := range m.Votes {
			r.onVote(from, v)
		}
	case MsgCheckpoint:
		r.onCheckpoint(from, m.Checkpoint)
	case MsgViewChange:
		r.onViewChange(from, m.ViewChange)
	case MsgNewView:
		r.onNewView(from, m.NewView)
	case MsgFetch:
		r.onFetch(from, m.Fetch)
	case MsgFetchReply:
		r.onFetchReply(from, m.FetchReply)
	}
}

// onRequest handles an operation forwarded by another replica.
func (r *Replica) onRequest(from int, req *Request) {
	if req == nil || req.IsNull() {
		return
	}
	if _, done := r.executedOps[req.OpID]; done {
		return
	}
	if _, dup := r.pending[req.OpID]; !dup {
		p, ok := r.vouch(req)
		if !ok {
			return // see onSubmit: invalid ops must not pin the suspicion timer
		}
		r.pending[req.OpID] = p
		r.pendingOrder = append(r.pendingOrder, req.OpID)
		r.pubPendingLen()
	}
	if r.isPrimaryLocked() && !r.inViewChange {
		r.proposePending()
	}
	r.armTimer()
}

func (r *Replica) onPrePrepare(from int, pp *PrePrepare) {
	if pp == nil || r.inViewChange || pp.View != r.view {
		return
	}
	if from != r.cfg.PrimaryOf(pp.View) {
		return // only the primary may pre-prepare
	}
	if pp.Seq <= r.h || pp.Seq > r.h+r.cfg.LogWindow() {
		return // outside watermarks
	}
	if e, ok := r.log.at(pp.Seq); ok && e.view == pp.View && e.prePrepared {
		return // duplicate, or conflicting pre-prepare in same view (primary is faulty): ignore
	}
	req := pp.Request
	digest, ops, ok := r.accept(&req, pp.Digest)
	if !ok {
		return // digest mismatch, malformed batch, or an operation the validator rejects
	}
	e := r.log.get(pp.View, pp.Seq)
	r.log.prePrepare(e, &req, digest, ops)

	if r.cfg.ID != r.cfg.PrimaryOf(pp.View) && !r.joining() {
		votes := make([]Vote, 1, 1+len(r.pendingPiggy))
		votes[0] = Vote{Phase: PhasePrepare, View: pp.View, Seq: pp.Seq, Digest: pp.Digest}
		r.broadcast(&Message{Type: MsgVotes, Votes: votes})
	}
	// An accepted-but-unexecuted request is outstanding work: arm the
	// suspicion timer so a primary that equivocates or stalls after
	// pre-preparing still gets replaced.
	r.armTimer()
	r.maybePrepared(e)
}

// onVote records replica from's prepare or commit. Votes arriving
// before the pre-prepare are recorded with their claimed digest and
// only counted once the pre-prepare fixes the entry's digest.
func (r *Replica) onVote(from int, v Vote) {
	if v.View != r.view || r.inViewChange {
		return
	}
	if v.Seq <= r.h || v.Seq > r.h+r.cfg.LogWindow() {
		return // outside watermarks
	}
	switch v.Phase {
	case PhasePrepare:
		if from == r.cfg.PrimaryOf(v.View) {
			return // the primary's pre-prepare is its prepare
		}
		e := r.log.get(v.View, v.Seq)
		e.setPrepare(from, v.Digest)
		r.maybePrepared(e)
	case PhaseCommit:
		e := r.log.get(v.View, v.Seq)
		e.setCommit(from, v.Digest)
		r.maybeCommitted(e)
	}
}

func (r *Replica) maybePrepared(e *entry) {
	if e.prepared || !e.prePrepared {
		return
	}
	// The pre-prepare counts as the primary's vote, so a prepared
	// certificate needs Quorum()-1 matching prepares from backups.
	if e.matchingPrepares() < r.cfg.Quorum()-1 {
		return
	}
	e.prepared = true
	r.log.recordPrepared(e)
	// A joiner records the certificate but emits no commit vote: it must
	// not influence agreement before it has replayed the history its
	// quorum membership vouches for.
	if !e.sentCommit && !r.joining() {
		e.sentCommit = true
		c := Vote{Phase: PhaseCommit, View: e.view, Seq: e.seq, Digest: e.digest}
		if r.cfg.Tentative {
			// Count the own vote immediately; the wire copy rides the
			// next pre-prepare/prepare or the flush heartbeat instead
			// of paying its own frame.
			e.setCommit(r.cfg.ID, e.digest)
			if r.cfg.N > 1 {
				r.pendingPiggy = append(r.pendingPiggy, c)
				r.armFlush()
			}
			r.maybeCommitted(e)
		} else {
			r.broadcast(&Message{Type: MsgVotes, Votes: []Vote{c}})
		}
	}
	if r.cfg.Tentative && !e.committed {
		r.executeReady() // the prepared certificate may unlock tentative execution
	}
}

func (r *Replica) maybeCommitted(e *entry) {
	if e.committed || !e.prepared {
		return
	}
	if e.matchingCommits() < r.cfg.Quorum() {
		return
	}
	e.committed = true
	r.executeReady()
}

// executeReady delivers operations in sequence order — committed ones
// always, prepared ones tentatively when everything below them has
// committed (the Castro-Liskov condition bounding rollback to a single
// sequence number) — and advances the committed horizon, emitting
// checkpoints as it crosses checkpoint boundaries.
func (r *Replica) executeReady() {
	for {
		progressed := false
		canExec := r.haltAt == 0 || r.lastExec < r.haltAt
		if e, ok := r.log.at(r.lastExec + 1); ok && !e.executed && canExec {
			switch {
			case e.committed:
				r.log.markExecuted(e)
				r.lastExec++
				r.applyOp(r.lastExec, e.request, e.digest, e.ops, false)
				progressed = true
			case r.cfg.Tentative && e.prepared && r.lastCommitted == r.lastExec:
				r.log.markExecuted(e)
				r.lastExec++
				r.tentExecs.Add(1)
				r.applyOp(r.lastExec, e.request, e.digest, e.ops, true)
				progressed = true
			}
		}
		// Advance the stable horizon over entries that are both
		// committed and executed; a commit certificate completing may
		// in turn unlock the next tentative execution above.
		for {
			e, ok := r.log.at(r.lastCommitted + 1)
			if !ok || !e.committed || !e.executed {
				break
			}
			r.lastCommitted++
			r.commitSeq.Store(r.lastCommitted)
			progressed = true
			if r.lastCommitted%r.cfg.CheckpointInterval == 0 {
				ck := &Checkpoint{Seq: r.lastCommitted, State: r.chainAt[r.lastCommitted], Replica: r.cfg.ID}
				r.broadcast(&Message{Type: MsgCheckpoint, Checkpoint: ck})
			}
		}
		if !progressed {
			break
		}
	}
	r.maybeHalt()
	// Execution advanced (or nothing was ready): with batched proposing,
	// freed pipeline slots sweep the accumulated backlog into the next
	// batch.
	if r.cfg.MaxBatch > 1 && len(r.pendingOrder) > 0 && r.isPrimaryLocked() && !r.inViewChange {
		r.proposePending()
	}
}

// maybeHalt fires the membership halt hook once the barrier sequence
// number is covered by the committed horizon: from here every correct
// member's (seq, state digest) pair is final and identical, so the
// embedder can rebuild the group.
func (r *Replica) maybeHalt() {
	if r.haltAt == 0 || r.haltFired || r.lastCommitted < r.haltAt {
		return
	}
	r.haltFired = true
	if r.haltHook != nil {
		r.haltHook(r.haltAt, r.chainAt[r.haltAt])
	}
}

// applyOp updates replica state for one executed request and hands the
// operations it carries to the application, individually and in batch
// order. reqDigest and ops are the request's digest and carried
// operations as computed when it was accepted (or fetched); a null
// request has neither.
func (r *Replica) applyOp(seq uint64, req *Request, reqDigest Digest, ops []agreedOp, tentative bool) {
	r.execSeq.Store(seq)
	r.stateDigest = chainDigest(r.stateDigest, seq, reqDigest)
	r.chainAt[seq] = r.stateDigest
	if req != nil && !req.IsNull() {
		r.execCache[seq] = req
		if isBatch(req) {
			r.executedOps[req.OpID] = seq
		}
		for i := range ops {
			op := &ops[i]
			delete(r.pending, op.OpID)
			r.pubPendingLen()
			// Deliver at most once: an operation that already executed under
			// an earlier sequence number — batched twice, double-assigned, or
			// rolled back but not undone — keeps its original mapping so
			// re-agreement at a new sequence number does not re-apply it.
			if _, done := r.executedOps[op.OpID]; done {
				continue
			}
			r.executedOps[op.OpID] = seq
			r.execCount.Add(1)
			if r.barrier != nil && r.haltAt == 0 && r.barrier(op.OpID) {
				r.haltAt = seq
				r.haltA.Store(seq)
			}
			if r.deliver != nil {
				r.deliver(Delivery{Seq: seq, Pos: Position(seq, i), OpID: op.OpID, Op: op.Op, Parsed: op.parsed, Tentative: tentative})
			}
		}
	}
	// Execution is progress: restart the suspicion timer for the
	// remaining outstanding requests, or clear it when none remain.
	r.joinProgress()
	r.progressTimer()
}

// chainDigest extends the running state digest with one executed
// operation. The chain lets lagging replicas verify fetched history
// against a quorum-certified checkpoint digest.
func chainDigest(prev Digest, seq uint64, reqDigest Digest) Digest {
	var in [2*sha256.Size + 8]byte
	copy(in[:], prev[:])
	binary.BigEndian.PutUint64(in[sha256.Size:], seq)
	copy(in[sha256.Size+8:], reqDigest[:])
	return sha256.Sum256(in[:])
}

func (r *Replica) onCheckpoint(from int, c *Checkpoint) {
	if c == nil || c.Seq == 0 || c.Replica != from {
		return
	}
	if c.Seq <= r.h {
		return // already stable
	}
	byReplica, ok := r.checkpoints[c.Seq]
	if !ok {
		byReplica = make(map[int]Digest)
		r.checkpoints[c.Seq] = byReplica
	}
	byReplica[from] = c.State

	count := 0
	for _, d := range byReplica {
		if d == c.State {
			count++
		}
	}
	if count < r.cfg.Quorum() {
		return
	}
	// Quorum-certified checkpoint.
	r.certifiedCkpts[c.Seq] = c.State
	if r.lastExec >= c.Seq {
		r.stabilize(c.Seq)
	} else {
		// We are behind: fetch missing operations from peers.
		r.requestCatchUp(c.Seq)
	}
}

// stabilize advances the low watermark to seq and garbage-collects.
func (r *Replica) stabilize(seq uint64) {
	if seq <= r.h {
		return
	}
	r.h = seq
	if r.lastCommitted < seq {
		// A quorum-certified checkpoint proves the history through seq
		// committed globally; entries about to be truncated can no
		// longer advance the horizon entry by entry.
		r.lastCommitted = seq
		r.commitSeq.Store(seq)
	}
	if r.ckptHook != nil {
		r.ckptHook(seq, r.certifiedCkpts[seq])
	}
	r.maybeHalt() // the jump may have covered the membership barrier
	if r.seqCounter < seq {
		r.seqCounter = seq
	}
	r.log.truncate(seq)
	for s := range r.checkpoints {
		if s <= seq {
			delete(r.checkpoints, s)
		}
	}
	for s := range r.certifiedCkpts {
		if s < seq { // keep the digest at seq for catch-up serving
			delete(r.certifiedCkpts, s)
		}
	}
	// Prune deduplication state and the catch-up cache outside the
	// retention window.
	retain := uint64(0)
	if seq > retentionWindows*r.cfg.LogWindow() {
		retain = seq - retentionWindows*r.cfg.LogWindow()
	}
	for opID, s := range r.executedOps {
		if s <= retain {
			delete(r.executedOps, opID)
		}
	}
	for s := range r.execCache {
		if s <= retain {
			delete(r.execCache, s)
		}
	}
	for s := range r.chainAt {
		if s < seq { // chain digests matter only above the stable watermark
			delete(r.chainAt, s)
		}
	}
	if r.isPrimaryLocked() && !r.inViewChange {
		r.proposePending() // window advanced; propose buffered requests
	}
}

// retentionWindows controls how many log windows of executed operations
// are kept for catch-up serving and deduplication after stabilization.
const retentionWindows = 4

// hasOutstanding reports whether the replica is waiting for agreement on
// anything: buffered requests, accepted log entries not yet executed, or
// tentative executions whose commit certificates have not completed —
// commit votes are not retransmitted, so a stalled commit phase (lost
// votes, a dead peer inside every would-be quorum) must eventually fall
// back to a view change, whose replay re-forms the certificates.
func (r *Replica) hasOutstanding() bool {
	return len(r.pending) > 0 || r.log.hasLive() || r.lastExec > r.lastCommitted
}

// armTimer starts the suspicion timer if outstanding work needs one and
// no timer is already running.
func (r *Replica) armTimer() {
	if !r.inViewChange && !r.hasOutstanding() {
		return
	}
	if r.armed(timerSuspect) {
		return // already armed; progressTimer restarts it on execution
	}
	r.arm(timerSuspect, r.vcTimeout)
}

// progressTimer restarts the suspicion window after progress (an
// execution), or clears the timer when nothing is outstanding.
func (r *Replica) progressTimer() {
	if r.inViewChange {
		return // the view-change timer stays armed until new-view
	}
	if !r.hasOutstanding() {
		r.disarm(timerSuspect)
		return
	}
	r.arm(timerSuspect, r.vcTimeout)
}

// onSuspect is the suspicion timer's action.
func (r *Replica) onSuspect() {
	if !r.inViewChange && !r.hasOutstanding() {
		return // nothing outstanding
	}
	if r.joining() {
		// A joiner does not suspect the primary for backlog it cannot yet
		// execute; catch-up has its own retry timer.
		r.arm(timerSuspect, r.vcTimeout)
		return
	}
	// Share outstanding requests with every replica first (the PBFT
	// client-multicast step): peers that never saw them buffer the
	// requests, arm their own timers, and join the view change, which
	// needs a quorum to complete.
	for _, opID := range r.pendingOrder {
		p, ok := r.pending[opID]
		if !ok {
			continue
		}
		r.multicastOthers(&Message{Type: MsgRequest, Request: p.req})
	}
	// A replica that lacks the next sequence number while a peer votes
	// on it in this view has most likely missed messages, not been let
	// down by the primary: ask the peers once per sequence number and
	// give them one more timeout before suspecting.
	if !r.inViewChange && r.probeSeq != r.lastExec+1 && r.peerVotedNext() {
		r.probe()
		r.arm(timerSuspect, r.vcTimeout)
		return
	}
	// The primary did not order our pending requests (or the view change
	// did not complete) in time: suspect it and move on.
	r.startViewChange(r.view + 1)
}
