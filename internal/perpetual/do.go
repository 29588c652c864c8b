package perpetual

import (
	"context"
	"time"
)

// The call surface: Do is the one entry point every request flavor —
// agreement calls and session-tier reads — issues through, with
// cancellation and deadlines carried by a context.Context.

// Request describes one call issued through Do.
type Request struct {
	// Target is the service name ("store"): one voter group.
	Target string
	// Payload is the application request body.
	Payload []byte
	// Read routes the request through the session-tier read fast path
	// (see Driver.issueRead for its semantics). The request must be
	// read-only; divergence deterministically falls back to agreement.
	Read bool
	// NoWait issues the request without waiting: the Result carries only
	// the request id, and the agreed reply is delivered through the
	// driver's event queue (NextEvent/WaitReply) as before. This is the
	// mode the asynchronous engine pump uses.
	NoWait bool
	// Blocking declares that the issuing thread is blocked on exactly this
	// reply and consumes nothing else until it arrives — the contract of
	// core's SendReceive, which issues with NoWait and waits itself. Do
	// sets it for every call it waits on. Without a deadline such a call
	// takes the reply fast path even from a replicated caller: its
	// verified bundle is delivered directly, with no caller-side reply
	// agreement and no caller-side abort (see Driver.fastPath). Every
	// outcome of the call carries it on as Reply.Blocking.
	Blocking bool
	// Timeout, when non-zero, deterministically aborts the request
	// group-wide if no reply is agreed in time (the pre-context abort
	// knob). When zero and the context carries a deadline, the deadline
	// is adopted as the timeout so the group-wide abort tracks the
	// caller's cancellation instead of leaving the group retrying.
	Timeout time.Duration
}

// Result is the outcome of one Do call.
type Result struct {
	// ReqID is the issued request id.
	ReqID string
	// Payload and Aborted mirror the agreed Reply (blocking calls only).
	Payload []byte
	Aborted bool
}

// Do issues one request and, unless req.NoWait, waits for its agreed
// reply.
//
// Cancellation: when ctx is canceled mid-call, Do returns ctx.Err() and
// settles the request so nothing leaks — the call takes step's evCancel
// row (aborted locally on the reply fast path and on a fast-path read,
// by agreed group-wide abort otherwise, its outcome never surfacing). A
// replicated caller must drive Do from its deterministic executor with a
// non-cancelable context: a cancel is a local decision, and replicas
// that disagree about it diverge.
func (d *Driver) Do(ctx context.Context, req Request) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	timeout := req.Timeout
	if timeout == 0 {
		if dl, ok := ctx.Deadline(); ok {
			if remain := time.Until(dl); remain > 0 {
				timeout = remain
			}
		}
	}
	tinfo, err := d.registry.Lookup(req.Target)
	if err != nil {
		return Result{}, err
	}
	var sink chan Reply
	if !req.NoWait {
		sink = make(chan Reply, 1)
	}
	issue := d.issueCall
	if req.Read {
		issue = d.issueRead
	}
	id, err := issue(tinfo, req.Payload, timeout, req.Blocking || !req.NoWait, sink)
	if err != nil {
		return Result{}, err
	}
	if req.NoWait {
		return Result{ReqID: id}, nil
	}
	r, err := d.await(ctx, id, sink)
	if err != nil {
		return Result{ReqID: id}, err
	}
	if r.Overloaded {
		// f_t+1 distinct target voters refused the request (see
		// Driver.handleBusy); surface the shed as a typed error so
		// RetryPolicy (and callers) can back off deliberately.
		return Result{ReqID: id, Aborted: true}, &OverloadError{
			RetryAfter: time.Duration(r.RetryAfterMillis) * time.Millisecond,
			Expired:    r.Expired,
		}
	}
	return Result{ReqID: id, Payload: r.Payload, Aborted: r.Aborted}, nil
}

// issueCall issues one agreement-path request to the target group,
// returning its id without waiting; sink is its outcome's consumer (see
// call.sink).
func (d *Driver) issueCall(tinfo ServiceInfo, payload []byte, timeout time.Duration, blocking bool, sink chan Reply) (string, error) {
	return d.startRequest(tinfo, &call{
		payload: payload, timeout: timeout, sink: sink,
		blocking: blocking, fast: d.fastPath(blocking, timeout),
	})
}

// await blocks until the outcome of reqID reaches sink, the consumer
// chosen for it at issue. When ctx ends first the call is canceled (see
// cancelRequest) and ctx.Err() returned, and when the driver closes,
// ErrClosed; an outcome handed over before either still wins.
func (d *Driver) await(ctx context.Context, reqID string, sink chan Reply) (Reply, error) {
	select {
	case r := <-sink:
		return r, nil
	case <-ctx.Done():
		d.cancelRequest(reqID)
	case <-d.done:
	}
	select {
	case r := <-sink:
		return r, nil
	default:
	}
	if err := ctx.Err(); err != nil {
		return Reply{}, err
	}
	return Reply{}, ErrClosed
}

// cancelRequest settles a request whose caller gave up on it: the
// outstanding call gets step's evCancel, and a reply already queued for
// the id is removed — both in one d.mu hold, so no outcome can slip into
// the queue in between.
func (d *Driver) cancelRequest(reqID string) {
	d.mu.Lock()
	fx := d.stepLocked(reqID, callEvent{kind: evCancel})
	for i := len(d.events) - 1; i >= 0; i-- {
		if d.events[i].Kind == EventReply && d.events[i].Reply.ReqID == reqID {
			d.events = append(d.events[:i], d.events[i+1:]...)
		}
	}
	d.mu.Unlock()
	d.perform(fx)
}
