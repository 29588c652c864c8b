package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

// Node is one Perpetual-WS replica: the wsengine (Axis2 analogue) wired
// to a Perpetual replica through a PerpetualSender / PerpetualListener
// pair, hosting the application executor (paper Figure 4).
type Node struct {
	replica *perpetual.Replica
	engine  *wsengine.Engine
	handler *handler
	app     Application
	logger  *log.Logger

	startOnce sync.Once
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// NodeOption configures a Node.
type NodeOption func(*Node)

// WithApplication installs the executor run on this node.
func WithApplication(app Application) NodeOption {
	return func(n *Node) { n.app = app }
}

// WithNodeLogger directs node diagnostics to l.
func WithNodeLogger(l *log.Logger) NodeOption {
	return func(n *Node) { n.logger = l }
}

// NewNode assembles a node around an already-built Perpetual replica.
// The engine's pipes may be customized (Engine()) before Start.
func NewNode(replica *perpetual.Replica, opts ...NodeOption) *Node {
	n := &Node{
		replica: replica,
		engine:  wsengine.NewEngine(),
	}
	for _, o := range opts {
		o(n)
	}
	n.handler = newHandler(n, replica.Driver())
	n.engine.OutPipe.Add(wsengine.AddressingOutHandler())
	n.engine.InPipe.Add(wsengine.AddressingInHandler())
	n.engine.SetSender(&perpetualSender{node: n})
	n.engine.SetReceiver(&perpetualReceiver{node: n})
	return n
}

// Engine exposes the wsengine for pipe customization before Start.
func (n *Node) Engine() *wsengine.Engine { return n.engine }

// Handler returns the node's MessageHandler (also usable when no
// Application is installed, e.g. for test drivers and clients).
func (n *Node) Handler() MessageHandler { return n.handler }

// Utils returns the node's deterministic utility API.
func (n *Node) Utils() Utils { return n.handler }

// Context builds the AppContext handed to the executor.
func (n *Node) Context() *AppContext {
	return &AppContext{
		MessageHandler: n.handler,
		Utils:          n.handler,
		ServiceName:    n.replica.Service().Name,
		ReplicaIndex:   n.replica.Index(),
		node:           n,
	}
}

// Replica returns the underlying Perpetual replica (diagnostics).
func (n *Node) Replica() *perpetual.Replica { return n.replica }

// ServeReads installs the application's read handler for the
// session-tier fast path: h evaluates a declared-read operation against
// this replica's current state without mutating it, and its reply is
// digested into a speculative endorsement (see perpetual.Request.Read). The
// handler runs on transport goroutines, concurrently with the executor,
// so it must synchronize with the state it reads, produce byte-identical
// replies for identical state across replicas, and reject any operation
// that would mutate state (a commit must only ever execute through
// agreement). The caller files the reply under its request id.
func (n *Node) ServeReads(h ReadHandler) {
	n.replica.SetReadExecutor(func(payload []byte) ([]byte, error) {
		env, err := soap.Parse(payload)
		if err != nil {
			return nil, err
		}
		req := wsengine.NewMessageContext()
		req.Envelope = *env
		rep, err := h(req)
		if err != nil {
			return nil, err
		}
		return rep.Envelope.Marshal()
	})
}

// Start launches the PerpetualListener pump and the application
// executor. The underlying Perpetual replica must already be started.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		n.wg.Add(1)
		go n.eventPump()
		if n.app != nil {
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.app.Run(n.Context())
			}()
		}
	})
}

// Stop shuts the node down (the Perpetual replica is stopped by its
// owner, typically the Cluster).
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		n.handler.close()
	})
}

func (n *Node) logf(format string, args ...any) {
	if n.logger != nil {
		n.logger.Printf("node[%s/%d]: "+format,
			append([]any{n.replica.Service().Name, n.replica.Index()}, args...)...)
	}
}

// eventPump is the PerpetualListener's ongoing thread: it consumes the
// driver's merged agreed-event stream — requests and replies in
// agreement order — extracts MessageContexts, and passes them to the
// engine (stages 5-6 and 9-12 of Figure 4). A single pump preserves the
// agreed interleaving of requests and replies all the way into the
// handler's queues. The one exception, a SendReceive reply taken
// on the driver's reply fast path, is only ever consumed by the thread
// blocked on it (see perpetual.Reply.Blocking).
func (n *Node) eventPump() {
	defer n.wg.Done()
	drv := n.replica.Driver()
	for {
		ev, err := drv.NextEvent()
		if err != nil {
			return
		}
		switch ev.Kind {
		case perpetual.EventRequest:
			n.pumpRequest(ev.Request)
		case perpetual.EventReply:
			n.pumpReply(ev.Reply)
		}
	}
}

// pumpRequest passes an agreed request to the IN-PIPE under its agreed
// request id. Whatever wsa:MessageID the caller sent is replaced, so the
// id its reply is routed by is one the caller authenticated and no other
// caller can claim.
func (n *Node) pumpRequest(preq perpetual.IncomingRequest) {
	env, err := soap.Parse(preq.Payload)
	if err != nil {
		n.logf("agreed request %s has malformed envelope: %v", preq.ReqID, err)
		n.replyFault(preq, "soap:Sender", fmt.Sprintf("request is not a SOAP envelope: %v", err))
		return
	}
	mc := wsengine.NewMessageContext()
	mc.Envelope = *env
	mc.Envelope.Header.MessageID = preq.ReqID
	mc.SetProperty(propInKind, inKindRequest)
	mc.SetProperty(propInReq, preq)
	if err := n.engine.ReceiveIn(mc); err != nil {
		n.logf("IN-PIPE rejected request %s: %v", preq.ReqID, err)
		n.replyFault(preq, "soap:Receiver", fmt.Sprintf("IN-PIPE rejected request: %v", err))
	}
}

// replyFault settles an agreed incoming request the node cannot hand to
// the application — an unparseable envelope, an IN-PIPE rejection —
// with a SOAP fault instead of staying silent: the caller is blocked on
// this request, and with a zero timeout a dropped request would stall it
// forever. Every correct replica sees the same agreed bytes and produces
// the same fault, so the reply is deterministic.
func (n *Node) replyFault(preq perpetual.IncomingRequest, code, reason string) {
	env := soap.Envelope{Body: soap.FaultBody(soap.Fault{Code: code, Reason: reason})}
	payload, err := env.Marshal()
	if err != nil {
		n.logf("fault reply for %s: %v", preq.ReqID, err)
		return
	}
	if err := n.replica.Driver().Reply(preq, payload); err != nil {
		n.logf("fault reply for %s: %v", preq.ReqID, err)
	}
}

func (n *Node) pumpReply(r perpetual.Reply) {
	mc := wsengine.NewMessageContext()
	if r.Blocking {
		mc.SetProperty(propBlocking, true)
	}
	if r.Aborted {
		// Synthesized locally and deterministically: surface as a
		// SOAP fault without traversing the IN-PIPE.
		f := soap.Fault{
			Code:   "soap:Receiver",
			Reason: "request aborted: timeout agreed by voter group",
		}
		if r.Overloaded {
			// f_t+1 distinct target voters refused the request under
			// overload. Only unreplicated callers (N == 1, the session
			// tier) ever see this flag — a replicated caller observes
			// overload as the plain agreed abort above — so the richer
			// RETRY-AFTER fault is still deterministic for its consumer.
			f = soap.RetryAfterFault(time.Duration(r.RetryAfterMillis) * time.Millisecond)
		}
		mc.Envelope.Body = soap.FaultBody(f)
		mc.Envelope.Header.RelatesTo = r.ReqID
		mc.SetProperty(PropAborted, true)
		n.handler.deliverReply(r.ReqID, mc)
		return
	}
	env, err := soap.Parse(r.Payload)
	if err != nil {
		// A compromised target may return garbage; every correct
		// replica sees the same bytes, so this fault is deterministic
		// too.
		mc.Envelope.Body = soap.FaultBody(soap.Fault{
			Code:   "soap:Sender",
			Reason: fmt.Sprintf("reply is not a SOAP envelope: %v", err),
		})
		mc.Envelope.Header.RelatesTo = r.ReqID
		n.handler.deliverReply(r.ReqID, mc)
		return
	}
	mc.Envelope = *env
	// The reply answers the agreed request id, whatever the callee wrote;
	// a read-path reply carries no RelatesTo at all.
	mc.Envelope.Header.RelatesTo = r.ReqID
	mc.SetProperty(propInKind, inKindReply)
	mc.SetProperty(propInReqID, r.ReqID)
	if err := n.engine.ReceiveIn(mc); err != nil {
		n.logf("IN-PIPE rejected reply %s: %v", r.ReqID, err)
	}
}

// Internal routing properties between pumps and the receiver.
const (
	propInKind  = "perpetual.inKind"
	propInReq   = "perpetual.inReq"
	propInReqID = "perpetual.inReqID"
	// propBlocking marks a SendReceive's request and its reply.
	propBlocking = "perpetual.blocking"

	inKindRequest = "request"
	inKindReply   = "reply"
)

// perpetualSender implements wsengine.TransportSender over the Perpetual
// driver: the PerpetualSender of the paper's architecture.
type perpetualSender struct{ node *Node }

func (s *perpetualSender) Send(mc *wsengine.MessageContext) error {
	drv := s.node.replica.Driver()
	// A context carrying an incoming-request handle is a reply (stage 7
	// of Figure 4); anything else is a fresh outbound request (stage 1).
	if v, ok := mc.Property(PropReqID); ok {
		if preq, isReply := v.(perpetual.IncomingRequest); isReply {
			payload, err := mc.Envelope.Marshal()
			if err != nil {
				return fmt.Errorf("perpetualws: marshal reply: %w", err)
			}
			return drv.Reply(preq, payload)
		}
	}
	to := mc.Envelope.Header.To
	if to == "" {
		to = mc.Options.To
	}
	target, err := soap.ServiceFromURI(to)
	if err != nil {
		return err
	}
	payload, err := mc.Envelope.Marshal()
	if err != nil {
		return fmt.Errorf("perpetualws: marshal request: %w", err)
	}
	// Everything funnels through the driver's unified Do entry point in
	// issue-only mode: the agreed reply flows back through the event pump
	// (the PerpetualListener), which is what keeps the agreed request/
	// reply interleaving intact for deterministic executors. Declared
	// reads take the session-tier fast path: sent to f+1 replicas of the
	// target group (the rest only if those cannot certify),
	// answered by f+1 matching speculative endorsements, with
	// deterministic fallback to agreement. A SendReceive's reply may
	// take the reply fast path and reach the pump outside agreed order;
	// the handler keeps it for the blocked caller alone.
	_, blocking := mc.Property(propBlocking)
	res, err := drv.Do(context.Background(), perpetual.Request{
		Target:   target,
		Payload:  payload,
		Read:     mc.Options.ReadOnly,
		Timeout:  mc.Options.Timeout(),
		NoWait:   true,
		Blocking: blocking,
	})
	if err != nil {
		return err
	}
	mc.SetProperty(PropReqID, res.ReqID)
	return nil
}

// perpetualReceiver implements wsengine.MessageReceiver: it routes
// IN-PIPE output to the handler's request or reply queues, the role the
// MessageHandler plays as an Axis2 MessageReceiver in the paper.
type perpetualReceiver struct{ node *Node }

func (r *perpetualReceiver) Receive(mc *wsengine.MessageContext) error {
	kind, _ := mc.Property(propInKind)
	switch kind {
	case inKindRequest:
		v, ok := mc.Property(propInReq)
		if !ok {
			return errors.New("perpetualws: request context lost its perpetual handle")
		}
		r.node.handler.deliverIncomingRequest(mc, v.(perpetual.IncomingRequest))
		return nil
	case inKindReply:
		v, ok := mc.Property(propInReqID)
		if !ok {
			return errors.New("perpetualws: reply context lost its request id")
		}
		r.node.handler.deliverReply(v.(string), mc)
		return nil
	default:
		return fmt.Errorf("perpetualws: message of unknown direction %v", kind)
	}
}
