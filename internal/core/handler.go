package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

// Property keys the handler attaches to message contexts.
const (
	// PropReqID carries the Perpetual request ID of an incoming request
	// context; SendReply uses it to route the reply.
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
// application thread (paper Figure 4).
type handler struct {
	node   *Node
	driver *perpetual.Driver

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool

	msgSeq   uint64
	reqOfMsg map[string]string // wsa:MessageID -> perpetual reqID
	msgOfReq map[string]string // perpetual reqID -> wsa:MessageID
	// events is the merged agreed-order queue feeding every blocking
	// accessor; filtered pops keep mixed consumption coherent.
	events    []Event
	repliesIn map[string]struct{}                  // reply msgIDs queued or consumed (dedup)
	inReq     map[string]perpetual.IncomingRequest // msgID -> perpetual request
	// blocked holds the msgIDs of SendReceive calls not yet answered.
	// Their replies may take the driver's reply fast path, which queues
	// them at a point agreement did not fix, so only the blocked
	// ReceiveReplyFor may take them: the unkeyed ReceiveReply and
	// ReceiveEvent skip them.
	blocked map[string]struct{}
	// early parks replies that reached deliverReply before send recorded
	// their request and carry no RelatesTo to file them by (aborts and
	// unparseable-payload faults): a call settled at issue from an
	// outcome its driver parked is answered inside SendOut, and the pump
	// may get here first. send claims the entry once it learns the reqID;
	// earlyOrder bounds the unclaimed ones, oldest dropped first.
	early      map[string]*wsengine.MessageContext // perpetual reqID -> reply
	earlyOrder []string
}

// maxEarlyReplies bounds handler.early.
const maxEarlyReplies = 1024

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
	msgID string // reply correlation key
}

// EventSource is implemented by MessageHandlers that expose the merged
// agreed event stream (used by deterministic multi-threaded executors;
// see package detsched).
type EventSource interface {
	// ReceiveEvent returns the next agreed event — request or reply —
	// blocking until one is available. Mixing ReceiveEvent with the
	// filtered accessors is allowed.
	ReceiveEvent() (Event, error)
}

var (
	_ MessageHandler = (*handler)(nil)
	_ Utils          = (*handler)(nil)
)

func newHandler(node *Node, driver *perpetual.Driver) *handler {
	h := &handler{
		node:      node,
		driver:    driver,
		reqOfMsg:  make(map[string]string),
		msgOfReq:  make(map[string]string),
		repliesIn: make(map[string]struct{}),
		inReq:     make(map[string]perpetual.IncomingRequest),
		blocked:   make(map[string]struct{}),
		early:     make(map[string]*wsengine.MessageContext),
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
// ReceiveReplyFor may take (see blocked and propBlocking).
func (h *handler) send(request *wsengine.MessageContext, blocking bool) error {
	if request == nil {
		return errors.New("perpetualws: nil request context")
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrClosed
	}
	h.msgSeq++
	msgID := fmt.Sprintf("%s:msg:%d", h.driver.ServiceName(), h.msgSeq)
	if blocking {
		// Registered before the request exists anywhere, so even a reply
		// delivered before send returns is hidden from unkeyed receives.
		h.blocked[msgID] = struct{}{}
		request.SetProperty(propBlocking, true)
	}
	h.mu.Unlock()

	request.Envelope.Header.MessageID = msgID
	if request.Envelope.Header.ReplyTo == nil {
		request.Envelope.Header.ReplyTo = &soap.EndpointReference{
			Address: soap.ServiceURI(h.driver.ServiceName()),
		}
	}
	// Through the OUT-PIPE to the PerpetualSender, which performs the
	// actual driver.Call and reports the assigned request ID back via
	// the context property bag.
	err := h.node.engine.SendOut(request)
	reqIDv, ok := request.Property(PropReqID)
	if err == nil && !ok {
		err = errors.New("perpetualws: transport did not record a request id")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil {
		delete(h.blocked, msgID)
		return err
	}
	// A reply that won the race to this point was either filed under its
	// RelatesTo or parked under its reqID (see deliverReply); entries
	// recorded for it now would never be removed.
	reqID := reqIDv.(string)
	if mc, ok := h.early[reqID]; ok {
		delete(h.early, reqID)
		h.queueReplyLocked(msgID, mc)
		return nil
	}
	if _, answered := h.repliesIn[msgID]; !answered {
		h.reqOfMsg[msgID] = reqID
		h.msgOfReq[reqID] = msgID
	}
	return nil
}

// takeable reports whether an unkeyed receive may take event i (caller
// holds h.mu): anything but a reply a SendReceive is blocked on.
func (h *handler) takeable(i int) bool {
	if h.events[i].Kind != EventReply {
		return true
	}
	_, blocked := h.blocked[h.events[i].msgID]
	return !blocked
}

// popAt removes and returns the event at index i (caller holds h.mu).
func (h *handler) popAt(i int) Event {
	ev := h.events[i]
	h.events = append(h.events[:i], h.events[i+1:]...)
	return ev
}

// ReceiveEvent implements EventSource. Replies SendReceive calls are
// blocked on are not part of the stream (see blocked).
func (h *handler) ReceiveEvent() (Event, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.closed {
			return Event{}, ErrClosed
		}
		for i := range h.events {
			if h.takeable(i) {
				return h.popAt(i), nil
			}
		}
		h.cond.Wait()
	}
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

// ReceiveReplyFor implements MessageHandler.
func (h *handler) ReceiveReplyFor(request *wsengine.MessageContext) (*wsengine.MessageContext, error) {
	if request == nil {
		return nil, errors.New("perpetualws: nil request context")
	}
	msgID := request.Envelope.Header.MessageID
	if msgID == "" {
		return nil, ErrUnknownRequest
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, known := h.reqOfMsg[msgID]; !known {
		if _, arrived := h.repliesIn[msgID]; !arrived {
			return nil, ErrUnknownRequest
		}
	}
	for {
		if h.closed {
			return nil, ErrClosed
		}
		for i := range h.events {
			if h.events[i].Kind == EventReply && h.events[i].msgID == msgID {
				delete(h.blocked, msgID)
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
// MessageID, destination from its ReplyTo) and flows out through the
// OUT-PIPE.
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
	h.inReq[mc.Envelope.Header.MessageID] = preq
	h.events = append(h.events, Event{Kind: EventRequest, MC: mc})
	h.cond.Broadcast()
}

// deliverReply is called by the node's event pump.
func (h *handler) deliverReply(reqID string, mc *wsengine.MessageContext) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	msgID, ok := h.msgOfReq[reqID]
	if !ok {
		// A request send has not recorded yet, or one this handler did
		// not issue (e.g. issued directly against the driver). Keyed by
		// its RelatesTo if present; otherwise parked for send.
		msgID = mc.Envelope.Header.RelatesTo
		if msgID == "" {
			h.parkEarlyLocked(reqID, mc)
			return
		}
	}
	delete(h.msgOfReq, reqID)
	delete(h.reqOfMsg, msgID)
	h.queueReplyLocked(msgID, mc)
}

// parkEarlyLocked keeps an uncorrelated reply for send to claim (caller
// holds h.mu), dropping the oldest unclaimed one past maxEarlyReplies.
func (h *handler) parkEarlyLocked(reqID string, mc *wsengine.MessageContext) {
	if _, dup := h.early[reqID]; dup {
		return
	}
	h.early[reqID] = mc
	h.earlyOrder = append(h.earlyOrder, reqID)
	if len(h.earlyOrder) > maxEarlyReplies {
		delete(h.early, h.earlyOrder[0])
		h.earlyOrder = h.earlyOrder[1:]
	}
}

// queueReplyLocked files a reply under its request's msgID and wakes the
// receivers (caller holds h.mu); a msgID already answered is dropped.
func (h *handler) queueReplyLocked(msgID string, mc *wsengine.MessageContext) {
	if mc.Envelope.Header.RelatesTo == "" {
		mc.Envelope.Header.RelatesTo = msgID
	}
	if _, dup := h.repliesIn[msgID]; dup {
		return
	}
	h.repliesIn[msgID] = struct{}{}
	if len(h.repliesIn) > 65536 {
		h.repliesIn = make(map[string]struct{}) // bounded dedup window
	}
	h.events = append(h.events, Event{Kind: EventReply, MC: mc, msgID: msgID})
	h.cond.Broadcast()
}

// close releases all blocked application calls.
func (h *handler) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.cond.Broadcast()
}
