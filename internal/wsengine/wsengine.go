// Package wsengine is a lightweight web-service execution engine
// modeled on the Apache Axis2 architecture the paper builds on (Section
// 2.3): messages travel as MessageContexts through customizable handler
// chains (an OUT-PIPE toward a TransportSender, an IN-PIPE toward a
// MessageReceiver). Perpetual-WS plugs in at exactly the same seams as
// the Java implementation: a PerpetualSender as the TransportSender and
// a PerpetualListener feeding the IN-PIPE (see package core).
package wsengine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"perpetualws/internal/soap"
)

// MessageContext carries one SOAP message and its processing state
// through the engine, mirroring org.apache.axis2.context.MessageContext.
type MessageContext struct {
	// Envelope is the SOAP message.
	Envelope soap.Envelope
	// Options carries invocation settings (timeout, target).
	Options Options

	// The property bag handlers use to communicate (SetProperty,
	// Property): the first propsInline entries live in the context
	// itself, the rest in overflow.
	props    [propsInline]property
	nprops   int
	overflow []property
}

// propsInline is the property bag's inline capacity. Package core sets
// at most four properties on any message, so a context never allocates
// beyond itself for them.
const propsInline = 4

// property is one entry of the property bag.
type property struct {
	key string
	val any
}

// Options mirrors the Axis2 client Options object. The timeout, as in
// the paper (Section 4.2), selects deterministic group-wide aborting of
// unresponsive requests; zero means never abort.
type Options struct {
	// To is the target endpoint URI ("perpetual://service").
	To string
	// Action is the SOAP action of the operation.
	Action string
	// TimeoutMillis aborts the request deterministically after this
	// many milliseconds (setTimeOutInMilliSeconds in the paper).
	TimeoutMillis int64
	// RoutingKey selects the shard of a sharded target service: every
	// replica of the caller maps the same key to the same shard, so
	// state partitioned by key (e.g. a customer ID) stays on one shard.
	// Empty routes by the request digest; unsharded targets ignore it.
	RoutingKey string
	// ReadOnly declares the operation a read: it does not mutate the
	// target's state, so the transport may serve it through the
	// session-tier fast path (speculative execution at f+1 replicas,
	// no agreement) and fall back to agreement on any divergence. A
	// misdeclared mutating operation is rejected by the target's read
	// executor, never silently executed.
	ReadOnly bool
}

// Timeout converts the option to a duration.
func (o Options) Timeout() time.Duration {
	return time.Duration(o.TimeoutMillis) * time.Millisecond
}

// NewMessageContext creates an empty context. The zero value is ready
// to use as well.
func NewMessageContext() *MessageContext {
	return &MessageContext{}
}

// find returns the slot holding key, or nil.
func (mc *MessageContext) find(key string) *property {
	for i := range mc.props[:mc.nprops] {
		if mc.props[i].key == key {
			return &mc.props[i]
		}
	}
	for i := range mc.overflow {
		if mc.overflow[i].key == key {
			return &mc.overflow[i]
		}
	}
	return nil
}

// SetProperty stores a handler-visible property, replacing any value
// already stored under key.
func (mc *MessageContext) SetProperty(key string, v any) {
	switch p := mc.find(key); {
	case p != nil:
		p.val = v
	case mc.nprops < propsInline:
		mc.props[mc.nprops] = property{key, v}
		mc.nprops++
	default:
		mc.overflow = append(mc.overflow, property{key, v})
	}
}

// Property retrieves a handler-visible property.
func (mc *MessageContext) Property(key string) (any, bool) {
	if p := mc.find(key); p != nil {
		return p.val, true
	}
	return nil, false
}

// Handler processes a message context as part of a pipe, like an Axis2
// handler. Returning an error aborts the pipe.
type Handler interface {
	Name() string
	Invoke(mc *MessageContext) error
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc struct {
	HandlerName string
	Fn          func(mc *MessageContext) error
}

// Name implements Handler.
func (h HandlerFunc) Name() string { return h.HandlerName }

// Invoke implements Handler.
func (h HandlerFunc) Invoke(mc *MessageContext) error { return h.Fn(mc) }

// Pipe is an ordered handler chain (Axis2 flow). Pipes are built at
// deployment time and immutable afterward; Invoke is safe for concurrent
// use.
type Pipe struct {
	mu       sync.RWMutex
	handlers []Handler
}

// Add appends handlers to the pipe.
func (p *Pipe) Add(hs ...Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handlers = append(p.handlers, hs...)
}

// Invoke runs the chain in order, stopping at the first error.
func (p *Pipe) Invoke(mc *MessageContext) error {
	p.mu.RLock()
	handlers := p.handlers
	p.mu.RUnlock()
	for _, h := range handlers {
		if err := h.Invoke(mc); err != nil {
			return fmt.Errorf("wsengine: handler %s: %w", h.Name(), err)
		}
	}
	return nil
}

// Names lists the chain's handler names in order (diagnostic).
func (p *Pipe) Names() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, len(p.handlers))
	for i, h := range p.handlers {
		out[i] = h.Name()
	}
	return out
}

// TransportSender transmits an outbound message, like the Axis2
// TransportSender interface. Perpetual-WS supplies a PerpetualSender.
type TransportSender interface {
	Send(mc *MessageContext) error
}

// MessageReceiver consumes an inbound message at the end of the IN-PIPE,
// like org.apache.axis2.engine.MessageReceiver.
type MessageReceiver interface {
	Receive(mc *MessageContext) error
}

// Engine ties the pipes to a transport, mirroring the Axis2 engine.
type Engine struct {
	OutPipe *Pipe
	InPipe  *Pipe

	sender   TransportSender
	receiver MessageReceiver
}

// Errors returned by the engine.
var (
	ErrNoSender   = errors.New("wsengine: no transport sender configured")
	ErrNoReceiver = errors.New("wsengine: no message receiver configured")
)

// NewEngine creates an engine with empty pipes.
func NewEngine() *Engine {
	return &Engine{OutPipe: &Pipe{}, InPipe: &Pipe{}}
}

// SetSender installs the transport sender.
func (e *Engine) SetSender(s TransportSender) { e.sender = s }

// SetReceiver installs the message receiver.
func (e *Engine) SetReceiver(r MessageReceiver) { e.receiver = r }

// SendOut runs a message through the OUT-PIPE and hands it to the
// transport sender.
func (e *Engine) SendOut(mc *MessageContext) error {
	if e.sender == nil {
		return ErrNoSender
	}
	if err := e.OutPipe.Invoke(mc); err != nil {
		return err
	}
	return e.sender.Send(mc)
}

// ReceiveIn runs an inbound message through the IN-PIPE and hands it to
// the message receiver.
func (e *Engine) ReceiveIn(mc *MessageContext) error {
	if e.receiver == nil {
		return ErrNoReceiver
	}
	if err := e.InPipe.Invoke(mc); err != nil {
		return err
	}
	return e.receiver.Receive(mc)
}

// AddressingOutHandler validates and completes WS-Addressing headers on
// outbound messages: Options.To and Options.Action are copied into the
// envelope if unset, and a missing To is an error.
func AddressingOutHandler() Handler {
	return HandlerFunc{
		HandlerName: "AddressingOut",
		Fn: func(mc *MessageContext) error {
			h := &mc.Envelope.Header
			if h.To == "" {
				h.To = mc.Options.To
			}
			if h.Action == "" {
				h.Action = mc.Options.Action
			}
			if h.To == "" {
				return errors.New("message has no destination (wsa:To)")
			}
			return nil
		},
	}
}

// AddressingInHandler validates WS-Addressing headers on inbound
// messages: a message must carry a MessageID (requests) or a RelatesTo
// (replies).
func AddressingInHandler() Handler {
	return HandlerFunc{
		HandlerName: "AddressingIn",
		Fn: func(mc *MessageContext) error {
			h := mc.Envelope.Header
			if h.MessageID == "" && h.RelatesTo == "" {
				return errors.New("message carries neither wsa:MessageID nor wsa:RelatesTo")
			}
			return nil
		},
	}
}

// BodySizeLimitHandler rejects messages whose body exceeds a limit,
// a typical custom-pipe policy handler.
func BodySizeLimitHandler(maxBytes int) Handler {
	return HandlerFunc{
		HandlerName: "BodySizeLimit",
		Fn: func(mc *MessageContext) error {
			if len(mc.Envelope.Body) > maxBytes {
				return fmt.Errorf("body of %d bytes exceeds limit %d", len(mc.Envelope.Body), maxBytes)
			}
			return nil
		},
	}
}
