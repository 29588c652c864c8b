package perpetual

// Cross-shard atomic transactions. PR 1 sharded services into
// independent CLBFT voter groups, which made multi-key operations
// non-atomic: an AllShards fan-out issues one independent request per
// shard with no way to make them succeed or fail together. This file adds a
// two-phase commit layer in which the *calling service's voter group*
// is the replicated coordinator, following Zhao's "A Byzantine Fault
// Tolerant Distributed Commit Protocol": each participant's vote is the
// shard's BFT-agreed reply to a PREPARE request (f_t+1-endorsed reply
// bundle), and the coordinator's commit/abort decision is itself agreed
// as an OpTxnDecision in the coordinator's CLBFT log — so all correct
// coordinator replicas decide identically and no single coordinator
// replica is trusted with the decision (the XFT argument for keeping
// commit inside the replicated groups).
//
// Wire framing: PREPARE/COMMIT/ABORT ride the existing request path as
// TxnFrame-encoded payloads; participants answer PREPAREs with
// TxnVote-encoded payloads. Both encodings start with a reserved
// leading NUL byte, so they can never collide with XML/SOAP application
// payloads (package core unwraps them transparently for SOAP-level
// applications).

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"perpetualws/internal/transport"
	"perpetualws/internal/wire"
)

// TxnPhase discriminates the three 2PC messages a participant shard
// receives.
type TxnPhase uint8

// Transaction phases.
const (
	// TxnPrepare asks a participant to validate and reserve the effects
	// of the carried payload, then vote commit or abort.
	TxnPrepare TxnPhase = iota + 1
	// TxnCommit orders a participant to apply every effect it prepared
	// under the transaction.
	TxnCommit
	// TxnAbort orders a participant to release every reservation it
	// holds under the transaction.
	TxnAbort
)

// String names the phase.
func (p TxnPhase) String() string {
	switch p {
	case TxnPrepare:
		return "prepare"
	case TxnCommit:
		return "commit"
	case TxnAbort:
		return "abort"
	default:
		return fmt.Sprintf("txn-phase(%d)", uint8(p))
	}
}

// Frame and vote magics: a leading NUL guarantees no collision with XML
// application payloads.
var (
	txnFrameMagic = []byte{0x00, 'p', 't', 'x', 'n'}
	txnVoteMagic  = []byte{0x00, 'p', 'v', 't', 'e'}
)

// TxnFrame is the payload of a 2PC protocol request: a PREPARE carries
// the application payload destined for the participant shard;
// COMMIT/ABORT carry only the transaction identity. Participants holds
// the wire names of every participant shard group of the transaction;
// it is echoed back inside each vote, which is what lets the
// coordinator-side agreement validator check that a proposed commit
// certifies the *complete* participant set of this very transaction.
type TxnFrame struct {
	Phase        TxnPhase
	TxnID        string
	Participants []string
	// Prepares is the total number of PREPARE requests the transaction
	// issues (one per key — two keys routing to the same shard yield two
	// PREPAREs). Echoed into every vote, it lets the coordinator-side
	// agreement validator demand one distinct commit vote per PREPARE: a
	// shard-level count would let a faulty primary omit the abort vote
	// of one key when another key of the same shard voted commit.
	Prepares int
	Payload  []byte
}

// EncodeTxnFrame serializes a transaction protocol frame.
func EncodeTxnFrame(f *TxnFrame) []byte {
	w := wire.NewWriter(len(txnFrameMagic) + 24 + len(f.TxnID) + len(f.Payload))
	for _, b := range txnFrameMagic {
		w.PutUint8(b)
	}
	w.PutUint8(uint8(f.Phase))
	w.PutString(f.TxnID)
	w.PutUvarint(uint64(len(f.Participants)))
	for _, p := range f.Participants {
		w.PutString(p)
	}
	w.PutUvarint(uint64(f.Prepares))
	w.PutBytes(f.Payload)
	return w.Bytes()
}

// DecodeTxnFrame parses a transaction protocol frame. The second return
// is false for any non-frame payload (ordinary application bytes).
func DecodeTxnFrame(buf []byte) (*TxnFrame, bool) {
	if len(buf) < len(txnFrameMagic) || !bytes.Equal(buf[:len(txnFrameMagic)], txnFrameMagic) {
		return nil, false
	}
	r := wire.NewReader(buf[len(txnFrameMagic):])
	f := &TxnFrame{Phase: TxnPhase(r.Uint8()), TxnID: r.String()}
	n := int(r.Uvarint())
	if n > r.Remaining() {
		return nil, false
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		f.Participants = append(f.Participants, r.String())
	}
	f.Prepares = int(r.Uvarint())
	f.Payload = r.BytesCopy()
	if r.Done() != nil || f.TxnID == "" {
		return nil, false
	}
	switch f.Phase {
	case TxnPrepare, TxnCommit, TxnAbort:
		return f, true
	default:
		return nil, false
	}
}

// DecodeTxnFrameFrom decodes a transaction frame and authenticates its
// coordinator: a Txn request mints ids of the form "<caller>:txn:<n>", so a
// frame whose TxnID was not minted by the (transport-authenticated)
// calling service is rejected. Without this check any service able to
// reach a shard could forge the COMMIT/ABORT of someone else's
// transaction and release or apply its prepared state. Participant
// executors must use this form, not DecodeTxnFrame, on incoming
// requests.
func DecodeTxnFrameFrom(req IncomingRequest) (*TxnFrame, bool) {
	f, ok := DecodeTxnFrame(req.Payload)
	if !ok || !strings.HasPrefix(f.TxnID, req.Caller+":txn:") {
		return nil, false
	}
	return f, true
}

// TxnVoteInfo is the decoded wire form of a participant's reply to a
// transaction request: the vote, the transaction identity it binds to,
// and an opaque application payload (the participant's rendered result,
// or the reason it refused). Phase and Prepares echo the answered
// frame, so the coordinator's validator can tell a genuine PREPARE vote
// from an outcome acknowledgement and knows how many votes a complete
// commit certificate needs.
type TxnVoteInfo struct {
	TxnID        string
	Phase        TxnPhase
	Participants []string
	Prepares     int
	Commit       bool
	Payload      []byte
}

// EncodeTxnVote serializes a participant's reply to a transaction
// request. The frame is the request being answered: echoing its TxnID,
// phase, participant set, and PREPARE count into the (f_t+1-endorsed)
// vote is what makes the vote a certificate for exactly this
// transaction — a commit vote replayed from another transaction, an
// outcome acknowledgement posing as a PREPARE vote, or a partial vote
// set fails the coordinator's OpTxnDecision validation.
func EncodeTxnVote(f *TxnFrame, commit bool, payload []byte) []byte {
	w := wire.NewWriter(len(txnVoteMagic) + 24 + len(f.TxnID) + len(payload))
	for _, b := range txnVoteMagic {
		w.PutUint8(b)
	}
	w.PutString(f.TxnID)
	w.PutUint8(uint8(f.Phase))
	w.PutUvarint(uint64(len(f.Participants)))
	for _, p := range f.Participants {
		w.PutString(p)
	}
	w.PutUvarint(uint64(f.Prepares))
	w.PutBool(commit)
	w.PutBytes(payload)
	return w.Bytes()
}

// DecodeTxnVote parses a participant vote. The second return is false
// for any non-vote payload.
func DecodeTxnVote(buf []byte) (TxnVoteInfo, bool) {
	if len(buf) < len(txnVoteMagic) || !bytes.Equal(buf[:len(txnVoteMagic)], txnVoteMagic) {
		return TxnVoteInfo{}, false
	}
	r := wire.NewReader(buf[len(txnVoteMagic):])
	v := TxnVoteInfo{TxnID: r.String(), Phase: TxnPhase(r.Uint8())}
	n := int(r.Uvarint())
	if n > r.Remaining() {
		return TxnVoteInfo{}, false
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		v.Participants = append(v.Participants, r.String())
	}
	v.Prepares = int(r.Uvarint())
	v.Commit = r.Bool()
	v.Payload = r.BytesCopy()
	if r.Done() != nil || v.TxnID == "" {
		return TxnVoteInfo{}, false
	}
	return v, true
}

// TxnVote is one participant's agreed vote as observed by the
// coordinator, in key order.
type TxnVote struct {
	// Shard is the participant group's wire name ("store#1").
	Shard string
	// ReqID is the PREPARE request id.
	ReqID string
	// Commit is the participant's vote; false also when the vote payload
	// was malformed.
	Commit bool
	// Aborted reports that the PREPARE was deterministically aborted
	// (timeout) instead of answered; an abort vote.
	Aborted bool
	// Payload is the application payload the participant attached to its
	// vote.
	Payload []byte
}

// TxnResult is the outcome of a cross-shard transaction.
type TxnResult struct {
	TxnID     string
	Committed bool
	// Votes holds one entry per key, in argument order.
	Votes []TxnVote
}

// runTxn is the transaction protocol behind a Txn request: payload i is
// a PREPARE to the shard key i routes to, the per-shard votes are
// BFT-agreed replies, the decision (commit iff every vote is commit) is
// agreed in this service's own log as an OpTxnDecision, and the outcome
// goes out as COMMIT/ABORT to every participant, whose acknowledgements
// runTxn awaits. Every replica runs it on its deterministic executor and
// reaches the same decision. A non-zero timeout bounds each phase per
// request (an unresponsive shard then votes abort); zero waits forever.
// ctx is honored during vote collection only: once proposed, the
// decision is group-agreed state every participant must learn.
func (d *Driver) runTxn(ctx context.Context, target string, keys [][]byte, payloads [][]byte, timeout time.Duration) (*TxnResult, error) {
	if len(keys) == 0 || len(keys) != len(payloads) {
		return nil, fmt.Errorf("perpetual: a transaction needs matching non-empty keys and payloads (%d keys, %d payloads)", len(keys), len(payloads))
	}
	tinfo, err := d.registry.Lookup(target)
	if err != nil {
		return nil, err
	}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	d.txnSeq++
	txnID := fmt.Sprintf("%s:txn:%d", d.svc.Name, d.txnSeq)
	// Register the decision slot up front: a registered slot can never be
	// evicted, so agreed decisions for other (even hostile) txn ids
	// cannot wedge this transaction, and a decision agreed before this
	// replica catches up (buffered in txnEarly) is picked up here.
	d.registerTxnLocked(txnID)
	d.mu.Unlock()
	defer d.forgetTxn(txnID)

	// Resolve the participant set up front: each key's shard, with the
	// distinct shards in first-appearance order (deterministic across
	// replicas: ShardFor is pure). The participant list travels inside
	// every frame and is echoed in every vote, binding the commit
	// certificates to this transaction's full membership.
	keyShards := make([]ServiceInfo, len(keys))
	for i := range keys {
		keyShards[i] = tinfo.Shard(ShardFor(keys[i], tinfo.Shards))
	}
	shards := coveredShards(keyShards)
	participants := make([]string, len(shards))
	for i, sh := range shards {
		participants[i] = sh.Name
	}

	// Phase 1: one PREPARE per key, routed to the key's shard.
	votes := make([]TxnVote, len(keys))
	prepIDs := make([]string, len(keys))
	sinks := make([]chan outcome, len(keys))
	for i := range keys {
		frame := EncodeTxnFrame(&TxnFrame{
			Phase: TxnPrepare, TxnID: txnID, Participants: participants,
			Prepares: len(keys), Payload: payloads[i],
		})
		id, sink, err := d.issueLeg(keyShards[i], frame, timeout, transport.ClassTxn)
		if err != nil {
			// Settle the prepares already issued: deterministic aborts
			// on the coordinator side, plus TxnAbort frames so the
			// shards that already received a PREPARE release their
			// reservations (every replica fails identically, keeping
			// the fan-out deterministic).
			for _, issued := range prepIDs[:i] {
				d.cancelRequest(issued)
			}
			d.releaseParticipants(txnID, participants, len(keys), coveredShards(keyShards[:i]), timeout)
			return nil, fmt.Errorf("perpetual: txn %s prepare to %s: %w", txnID, keyShards[i].Name, err)
		}
		prepIDs[i], sinks[i] = id, sink
		votes[i] = TxnVote{Shard: keyShards[i].Name, ReqID: id}
	}

	// Collect the agreed votes. Each leg's outcome goes to its own sink,
	// never to the application event queue, so a transaction composes
	// with executors that consume NextEvent concurrently — including the
	// core event pump.
	commit := true
	certs := make([]ReplyBundle, 0, len(keys))
	for i := range prepIDs {
		tr, err := d.await(ctx, prepIDs[i], sinks[i])
		if err != nil {
			if ctx.Err() != nil {
				// Canceled mid-collection: settle every PREPARE with a
				// deterministic abort and release the participants'
				// reservations, exactly like a failed prepare fan-out.
				for _, issued := range prepIDs {
					d.cancelRequest(issued)
				}
				d.releaseParticipants(txnID, participants, len(keys), shards, timeout)
			}
			return nil, err
		}
		if tr.reply.Aborted {
			votes[i].Aborted = true
			commit = false
			continue
		}
		v, ok := DecodeTxnVote(tr.reply.Payload)
		votes[i].Commit = ok && v.Commit && v.TxnID == txnID && v.Phase == TxnPrepare
		votes[i].Payload = v.Payload
		switch {
		case !votes[i].Commit:
			commit = false
		case tr.cert == nil:
			// No retained certificate (cannot happen for an agreed,
			// non-aborted reply); a commit we cannot certify must not be
			// proposed.
			votes[i].Commit = false
			commit = false
		default:
			certs = append(certs, *tr.cert)
		}
	}

	// Agree the decision in this group's log. Every correct replica
	// proposes identical bytes (votes are agreed state); the validator
	// re-verifies the commit certificates, so a faulty primary cannot
	// push a commit the participants never voted for.
	op := &Op{Kind: OpTxnDecision, TxnID: txnID, Commit: commit}
	if commit {
		op.TxnVotes = certs
	}
	d.voter.proposeTxnDecision(op)
	decided, err := d.waitTxnDecision(txnID)
	if err != nil {
		return nil, err
	}

	// Phase 2: fan the agreed outcome out once per participant shard and
	// wait for the acknowledgements. A failing leg must not starve the
	// remaining shards of the outcome, so the fan-out continues past
	// errors and reports the first one afterwards.
	phase := TxnAbort
	if decided {
		phase = TxnCommit
	}
	res := &TxnResult{TxnID: txnID, Committed: decided, Votes: votes}
	var fanErr error
	ackIDs := make([]string, 0, len(shards))
	ackSinks := make([]chan outcome, 0, len(shards))
	for _, sh := range shards {
		frame := EncodeTxnFrame(&TxnFrame{Phase: phase, TxnID: txnID, Participants: participants, Prepares: len(keys)})
		id, sink, err := d.issueLeg(sh, frame, timeout, transport.ClassTxn)
		if err != nil {
			if fanErr == nil {
				fanErr = fmt.Errorf("perpetual: txn %s %s to %s: %w", txnID, phase, sh.Name, err)
			}
			continue
		}
		ackIDs, ackSinks = append(ackIDs, id), append(ackSinks, sink)
	}
	for i, id := range ackIDs {
		// Ack content is irrelevant; a deterministic abort of the ack
		// (dead shard) is tolerated — the decision is already agreed and
		// retransmission will re-deliver the outcome when the shard
		// recovers within the retransmission window.
		if _, err := d.await(context.Background(), id, ackSinks[i]); err != nil {
			return res, err
		}
	}
	return res, fanErr
}

// coveredShards returns the distinct shards among the given per-key
// shards, in first-appearance order.
func coveredShards(keyShards []ServiceInfo) []ServiceInfo {
	var out []ServiceInfo
	seen := make(map[string]bool)
	for _, sh := range keyShards {
		if !seen[sh.Name] {
			seen[sh.Name] = true
			out = append(out, sh)
		}
	}
	return out
}

// releaseParticipants fires TxnAbort frames at shards that received a
// PREPARE of a transaction that will never reach a decision (prepare
// fan-out failed), so their reservations are released. The acks are not
// awaited: the caller is already on an error path, and each abort reply
// settles into its leg's own sink, which nothing reads.
func (d *Driver) releaseParticipants(txnID string, participants []string, prepares int, shards []ServiceInfo, timeout time.Duration) {
	for _, sh := range shards {
		frame := EncodeTxnFrame(&TxnFrame{Phase: TxnAbort, TxnID: txnID, Participants: participants, Prepares: prepares})
		if _, _, err := d.issueLeg(sh, frame, timeout, transport.ClassTxn); err != nil {
			d.logf("txn %s release to %s: %v", txnID, sh.Name, err)
		}
	}
}

// registerTxnLocked opens the decision slot for a transaction this
// replica is about to drive (caller holds d.mu). A decision already
// agreed and buffered in txnEarly (other replicas can run ahead of this
// one) is consumed into the slot immediately. Unlike a bounded cache, a
// registered slot is never evicted: agreed decisions for other txn ids
// — including ids a faulty replica mints just to churn the table —
// cannot displace it, so waitTxnDecision cannot wedge.
func (d *Driver) registerTxnLocked(txnID string) {
	p := &txnDecision{}
	if commit, ok := d.txnEarly.Get(txnID); ok {
		d.txnEarly.Delete(txnID)
		p.done, p.commit = true, commit
	}
	d.txnPending[txnID] = p
}

// forgetTxn closes a transaction's decision slot.
func (d *Driver) forgetTxn(txnID string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.txnPending, txnID)
}

// waitTxnDecision blocks until the group-agreed decision for a
// registered transaction is delivered.
func (d *Driver) waitTxnDecision(txnID string) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return false, ErrClosed
		}
		if p, ok := d.txnPending[txnID]; ok && p.done {
			return p.commit, nil
		}
		d.cond.Wait()
	}
}

// deliverTxnDecision records an agreed transaction decision (called by
// the co-located voter on the CLBFT delivery goroutine). A decision for
// a registered transaction fills its slot; anything else — a decision
// this replica has not reached yet, or one it will never drive — is
// buffered in the bounded early table.
func (d *Driver) deliverTxnDecision(txnID string, commit bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if p, ok := d.txnPending[txnID]; ok {
		if !p.done {
			p.done, p.commit = true, commit
		}
	} else {
		d.txnEarly.Put(txnID, commit)
	}
	d.cond.Broadcast()
}
