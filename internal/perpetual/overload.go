package perpetual

import (
	"errors"
	"fmt"
	"time"

	"perpetualws/internal/auth"
	"perpetualws/internal/inbox"
	"perpetualws/internal/wire"
)

// End-to-end overload control (see DESIGN.md, "Overload & graceful
// degradation"). The load-shedding surface has three voter-side gates —
// intake admission, the proposer-queue gate, and the read fast path —
// plus deadline-expiry drops before admission, before proposal and
// before the reply share is sent (see reqTable.step).
//
// Every refusal is answered with a KindBusy frame, never a silent drop:
// the calling driver settles the request as overloaded only once f_t+1
// distinct target voters said busy (a lone Byzantine replica lying
// about overload cannot abort anything), surfacing the deterministic
// RETRY-AFTER SOAP fault of soap.RetryAfterFault at the application.

// DefaultRetryAfterHint is the backoff hint busy replies carry when the
// deployment does not configure one.
const DefaultRetryAfterHint = 25 * time.Millisecond

// OverloadError is the error Do returns when f_t+1 distinct target
// voters refused the request under overload (or reported its deadline
// expired). It unwraps from the errors Do and RetryPolicy.Do return.
type OverloadError struct {
	// RetryAfter is the largest backoff hint among the refusing voters.
	RetryAfter time.Duration
	// Expired reports that at least one refusal was a deadline-expiry
	// drop rather than a capacity refusal.
	Expired bool
}

func (e *OverloadError) Error() string {
	if e.Expired {
		return fmt.Sprintf("perpetual: request expired at target (retry after %v)", e.RetryAfter)
	}
	return fmt.Sprintf("perpetual: target overloaded (retry after %v)", e.RetryAfter)
}

// IsOverload reports whether err carries an overload refusal, returning
// the voters' backoff hint.
func IsOverload(err error) (time.Duration, bool) {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return oe.RetryAfter, true
	}
	return 0, false
}

// OverloadStats counts one replica's voter-side admission outcomes.
// Every non-admitted request is in exactly one bucket, so offered =
// admitted + ShedIntake + ShedProposer + ExpiredDrops at the group
// level (reads likewise with ShedReads).
type OverloadStats struct {
	// ShedIntake counts requests refused at the intake bound (including
	// eldest-first evictions under CoDel-style shedding).
	ShedIntake uint64
	// ShedProposer counts proposal attempts deferred because the CLBFT
	// pending backlog was at its bound.
	ShedProposer uint64
	// ShedReads counts fast-path reads refused under pressure (reads
	// shed before the agreement path; see voter.handleReadRequest).
	ShedReads uint64
	// ExpiredDrops counts requests dropped pre-agreement because their
	// deadline stamp had already passed on arrival.
	ExpiredDrops uint64
	// SuppressedReplies counts executed results whose share send was
	// suppressed because the caller's deadline had passed (the reply
	// stays cached for retransmission service).
	SuppressedReplies uint64
}

// laneDepth bounds the frames waiting on the voter's client-plane lane
// (see voter.clientLane), not the batch its worker holds. Sized well
// above any sane intake bound: the lane exists to keep the protocol
// plane responsive, not to be the admission gate — the intake/proposer
// gates shed with precise accounting once a frame is taken. Overflow
// here still answers busy, so callers shed deterministically rather
// than waiting out their deadlines.
const laneDepth = 4096

// laneItem is one raw client-plane frame awaiting decode + admission.
// The payload is the voter's own copy: the transport recycles its
// buffer when the inline handler returns.
type laneItem struct {
	from    auth.NodeID
	payload []byte
}

// isClientKind classifies a payload by its leading kind byte without
// decoding: requests and fast-path reads are client-plane (sheddable,
// flood-prone); everything else is protocol-plane.
func isClientKind(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	k := Kind(payload[0])
	return k == KindRequest || k == KindReadRequest
}

// peekClientReqID extracts the kind and request id of a client-plane
// payload without a full decode (both kinds put ReqID first), so the
// lane's overflow path can answer busy at a fraction of the decode
// cost.
func peekClientReqID(payload []byte) (Kind, string) {
	r := wire.NewReader(payload)
	k := Kind(r.Uint8())
	r.Uvarint() // epoch (unused for driver-originated kinds)
	id := r.String()
	if r.Err() != nil || (k != KindRequest && k != KindReadRequest) {
		return k, ""
	}
	return k, id
}

// startLane starts the client-plane worker: requests and fast-path
// reads are decoded and admitted from a dedicated bounded queue instead
// of inline on the transport pump. Without the lane, a request flood
// head-of-line blocks CLBFT protocol frames in the shared per-peer
// FIFO — agreement slows by exactly the queue delay the flood creates,
// admitted work drains slower, which grows the queue further:
// congestion collapse of the very pipeline admission control is trying
// to protect. (Measured: an open-loop 2x flood cut agreement throughput
// ~10x with idle CPU before frames were laned.)
func (v *voter) startLane() {
	lane := inbox.New[laneItem](laneDepth)
	v.clientLane = lane
	go func() {
		for batch, ok := []laneItem(nil), true; ok; batch, ok = lane.Take(batch) {
			for _, it := range batch {
				v.handleClientFrame(it.from, it.payload)
			}
		}
	}()
}

// stopLane stops the client-plane worker. Frames still queued are
// dropped with the voter; senders never block on the lane, so there is
// nothing to drain.
func (v *voter) stopLane() {
	if v.clientLane != nil {
		v.clientLane.Close()
	}
}

// handleClientFrame decodes and dispatches one client-plane frame (on
// the lane worker, or inline for unit-test voters without a lane).
func (v *voter) handleClientFrame(from auth.NodeID, payload []byte) {
	m, err := DecodeMessage(payload)
	if err != nil {
		v.logf("malformed message from %s: %v", from, err)
		return
	}
	switch m.Kind {
	case KindRequest:
		v.handleExternalRequest(from, m.Request)
	case KindReadRequest:
		v.handleReadRequest(from, m.ReadRequest)
	}
}

// enqueueClient hands a raw client-plane frame to the lane worker,
// keeping the transport pump's per-frame cost to a copy: decode and
// admission both happen on the lane goroutine. Past laneDepth the frame
// is refused with a busy (counted as a shed — the lane is the outermost
// admission stage) so the caller's f_t+1 quorum can settle the request
// instead of waiting out its deadline; the peek keeps that refusal far
// cheaper than the decode the flood is being spared.
func (v *voter) enqueueClient(from auth.NodeID, payload []byte) {
	if v.clientLane == nil {
		// Not started (unit-test voters drive handlers directly).
		v.handleClientFrame(from, payload)
		return
	}
	if !v.clientLane.Put(laneItem{from: from, payload: append([]byte(nil), payload...)}, true) {
		switch kind, reqID := peekClientReqID(payload); kind {
		case KindRequest:
			v.reqs.shedIntake.Add(1)
			if reqID != "" {
				v.sendBusy(from, reqID, false, false)
			}
		case KindReadRequest:
			v.shedReads.Add(1)
			if reqID != "" {
				v.sendBusy(from, reqID, false, true)
			}
		}
	}
}

// sendBusy answers a driver's request (or read) with a refusal frame.
// Busy frames are advisory and unauthenticated beyond the channel MAC:
// a forged or lying busy is harmless because drivers require f_t+1
// distinct voter refusals before settling anything.
func (v *voter) sendBusy(to auth.NodeID, reqID string, expired, read bool) {
	v.sendTo(to, &Message{Kind: KindBusy, Busy: &BusyReply{ReqID: reqID, Replica: v.index,
		RetryAfterMillis: uint64(v.retryHint.Milliseconds()), Expired: expired, Read: read}})
}
