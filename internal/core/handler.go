package core

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

// Property keys the handler attaches to message contexts.
const (
	// PropReqID carries a context's Perpetual request: on a request Send
	// issued, its request id (a string), which ReceiveReplyFor waits on;
	// on a reply, the incoming request SendReply routes it to.
	PropReqID = "perpetual.reqID"
	// PropAborted marks a reply context synthesized from a deterministic
	// abort.
	PropAborted = "perpetual.aborted"
)

// Errors returned by the handler.
var (
	ErrClosed         = errors.New("perpetualws: handler closed")
	ErrNotARequest    = errors.New("perpetualws: context is not an incoming request")
	ErrUnknownRequest = errors.New("perpetualws: no outstanding request for context")
)

// handler implements MessageHandler and Utils over a Perpetual driver.
// It owns the FIFO queues between the PerpetualListener pumps and the
// application thread (paper Figure 4). A call has one id on both sides
// of the hop: the driver's request id, which the caller's handler copies
// into the request's wsa:MessageID, the callee restores as its
// MessageID, and the reply carries as its wsa:RelatesTo.
type handler struct {
	node   *Node
	driver *perpetual.Driver
	// replyTo is the ReplyTo every outbound request carries. Shared by
	// all of them, so it is never modified.
	replyTo *soap.EndpointReference

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool

	// events is the merged agreed-order queue feeding every blocking
	// accessor; filtered pops keep mixed consumption coherent.
	events []Event
	inReq  map[string]perpetual.IncomingRequest // reqID -> perpetual request
}

// EventKind discriminates handler events.
type EventKind uint8

// Handler event kinds.
const (
	EventRequest EventKind = iota + 1
	EventReply
)

// Event is one agreed event: an incoming request or a reply, in the
// voter group's agreement order.
type Event struct {
	Kind  EventKind
	MC    *wsengine.MessageContext
	reqID string // the request a reply answers
	// blocking marks a reply to a SendReceive (perpetual.Reply.Blocking):
	// it may take the reply fast path and reach the queue at a point
	// agreement did not fix, so only that call's ReceiveReplyFor takes it.
	blocking bool
}

var (
	_ MessageHandler = (*handler)(nil)
	_ Utils          = (*handler)(nil)
)

func newHandler(node *Node, driver *perpetual.Driver) *handler {
	h := &handler{
		node:    node,
		driver:  driver,
		replyTo: &soap.EndpointReference{Address: soap.ServiceURI(driver.ServiceName())},
		inReq:   make(map[string]perpetual.IncomingRequest),
	}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// Send implements MessageHandler (stage 1 of paper Figure 4): augment
// the MessageContext with addressing headers, run the OUT-PIPE, and pass
// the result to the PerpetualSender.
func (h *handler) Send(request *wsengine.MessageContext) error {
	return h.send(request, false)
}

// send is Send; blocking marks a SendReceive, whose reply only its own
// ReceiveReplyFor may take (see Event.blocking).
func (h *handler) send(request *wsengine.MessageContext, blocking bool) error {
	if request == nil {
		return errors.New("perpetualws: nil request context")
	}
	if h.isClosed() {
		return ErrClosed
	}
	if blocking {
		request.SetProperty(propBlocking, true)
	}
	hdr := &request.Envelope.Header
	// The callee restores the MessageID from the agreed request id, so
	// none is sent.
	hdr.MessageID = ""
	if hdr.ReplyTo == nil {
		hdr.ReplyTo = h.replyTo
	}
	// Through the OUT-PIPE to the PerpetualSender, which issues the request
	// and reports the driver's request id back via the property bag.
	if err := h.node.engine.SendOut(request); err != nil {
		return err
	}
	reqID, ok := request.Property(PropReqID)
	if !ok {
		return errors.New("perpetualws: transport did not record a request id")
	}
	hdr.MessageID = reqID.(string)
	return nil
}

// isClosed reports whether the handler has been shut down.
func (h *handler) isClosed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// takeable reports whether an unkeyed receive may take event i (caller
// holds h.mu): anything but a reply a SendReceive is blocked on.
func (h *handler) takeable(i int) bool {
	return h.events[i].Kind != EventReply || !h.events[i].blocking
}

// popAt removes and returns the event at index i (caller holds h.mu).
func (h *handler) popAt(i int) Event {
	ev := h.events[i]
	h.events = append(h.events[:i], h.events[i+1:]...)
	return ev
}

// ReceiveReply implements MessageHandler. It never takes the reply a
// SendReceive call is blocked on.
func (h *handler) ReceiveReply() (*wsengine.MessageContext, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.closed {
			return nil, ErrClosed
		}
		for i := range h.events {
			if h.events[i].Kind == EventReply && h.takeable(i) {
				return h.popAt(i).MC, nil
			}
		}
		h.cond.Wait()
	}
}

// ReceiveReplyFor implements MessageHandler: the reply is the one filed
// under the request id Send recorded in the request context.
func (h *handler) ReceiveReplyFor(request *wsengine.MessageContext) (*wsengine.MessageContext, error) {
	if request == nil {
		return nil, errors.New("perpetualws: nil request context")
	}
	v, _ := request.Property(PropReqID)
	reqID, ok := v.(string)
	if !ok {
		return nil, ErrUnknownRequest
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.closed {
			return nil, ErrClosed
		}
		for i := range h.events {
			if h.events[i].Kind == EventReply && h.events[i].reqID == reqID {
				return h.popAt(i).MC, nil
			}
		}
		h.cond.Wait()
	}
}

// SendReceive implements MessageHandler: a synchronous invocation. The
// calling thread consumes exactly this reply, whenever it arrives, so
// without a deadline the call takes the driver's reply fast path
// (perpetual.Request.Blocking): no caller-side reply agreement.
func (h *handler) SendReceive(request *wsengine.MessageContext) (*wsengine.MessageContext, error) {
	if err := h.send(request, true); err != nil {
		return nil, err
	}
	return h.ReceiveReplyFor(request)
}

// ReceiveRequest implements MessageHandler.
func (h *handler) ReceiveRequest() (*wsengine.MessageContext, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.closed {
			return nil, ErrClosed
		}
		for i := range h.events {
			if h.events[i].Kind == EventRequest {
				return h.popAt(i).MC, nil
			}
		}
		h.cond.Wait()
	}
}

// SendReply implements MessageHandler (stage 7 of paper Figure 4): the
// reply inherits the request's addressing (wsa:RelatesTo from its
// MessageID, the agreed request id; destination from its ReplyTo) and
// flows out through the OUT-PIPE.
func (h *handler) SendReply(reply, request *wsengine.MessageContext) error {
	if reply == nil || request == nil {
		return errors.New("perpetualws: nil context")
	}
	reqMsgID := request.Envelope.Header.MessageID
	h.mu.Lock()
	preq, ok := h.inReq[reqMsgID]
	if ok {
		delete(h.inReq, reqMsgID)
	}
	closed := h.closed
	h.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return ErrNotARequest
	}
	reply.Envelope.Header.RelatesTo = reqMsgID
	if request.Envelope.Header.ReplyTo != nil {
		reply.Envelope.Header.To = request.Envelope.Header.ReplyTo.Address
	}
	reply.SetProperty(PropReqID, preq)
	return h.node.engine.SendOut(reply)
}

// CurrentTimeMillis implements Utils.
func (h *handler) CurrentTimeMillis() (int64, error) {
	v, err := h.driver.AgreedTimeMillis()
	if err != nil {
		return 0, mapDriverErr(err)
	}
	return v, nil
}

// Timestamp implements Utils.
func (h *handler) Timestamp() (time.Time, error) {
	v, err := h.driver.AgreedTimestamp()
	if err != nil {
		return time.Time{}, mapDriverErr(err)
	}
	return v, nil
}

// Random implements Utils.
func (h *handler) Random() (*rand.Rand, error) {
	v, err := h.driver.AgreedRandom()
	if err != nil {
		return nil, mapDriverErr(err)
	}
	return v, nil
}

func mapDriverErr(err error) error {
	if errors.Is(err, perpetual.ErrClosed) {
		return ErrClosed
	}
	return err
}

// deliverIncomingRequest is called by the node's event pump after the
// IN-PIPE accepted the message.
func (h *handler) deliverIncomingRequest(mc *wsengine.MessageContext, preq perpetual.IncomingRequest) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.inReq[preq.ReqID] = preq
	h.events = append(h.events, Event{Kind: EventRequest, MC: mc})
	h.cond.Broadcast()
}

// deliverReply is called by the node's event pump with the reply to
// request reqID. The driver posts at most one reply per id, so nothing
// here deduplicates.
func (h *handler) deliverReply(reqID string, mc *wsengine.MessageContext) {
	_, blocking := mc.Property(propBlocking)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.events = append(h.events, Event{Kind: EventReply, MC: mc, reqID: reqID, blocking: blocking})
	h.cond.Broadcast()
}

// close releases all blocked application calls.
func (h *handler) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.cond.Broadcast()
}
