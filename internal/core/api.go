// Package core implements Perpetual-WS: Byzantine fault-tolerant
// middleware for n-tier and service-oriented web services (Pallemulle &
// Goldman). It augments the wsengine execution environment (the Go
// analogue of Apache Axis2) with a BFT transport built on the Perpetual
// algorithm and an API suitable for fully asynchronous communication —
// the paper's Figure 3 MessageHandler and Utils interfaces.
//
// Applications are deployed as a single ongoing thread of computation
// (an Application whose Run method is the executor). The application
// does not distinguish server from client behavior: it may issue
// requests, query for incoming requests, query for incoming replies, and
// issue replies, all through the MessageHandler, while Utils supplies
// replica-consistent clock readings, timestamps, and random number
// generators.
package core

import (
	"math/rand"
	"time"

	"perpetualws/internal/wsengine"
)

// MessageHandler is the paper's Figure 3 messaging API, the natural
// successor to the Axis2 client API. All methods are safe for use by the
// application's single executor thread.
type MessageHandler interface {
	// Send transmits a request without blocking (asynchronous send).
	// The handler assigns wsa:ReplyTo, and on return wsa:MessageID holds
	// the request's Perpetual request id, the wsa:RelatesTo of its reply.
	// The MessageID is not sent: the callee restores it from the agreed
	// request id. The destination comes from the envelope's wsa:To or
	// Options.To. A timeout in Options selects deterministic group-wide
	// abort of the request.
	Send(request *wsengine.MessageContext) error
	// ReceiveReply returns the next available reply in agreement order,
	// blocking if none are available. Aborted requests surface as SOAP
	// fault replies whose wsa:RelatesTo names the original message.
	ReceiveReply() (*wsengine.MessageContext, error)
	// ReceiveReplyFor returns the reply to a request Send issued,
	// blocking if necessary.
	ReceiveReplyFor(request *wsengine.MessageContext) (*wsengine.MessageContext, error)
	// SendReceive sends the request and waits for its reply (synchronous
	// invocation).
	SendReceive(request *wsengine.MessageContext) (*wsengine.MessageContext, error)
	// ReceiveRequest returns the next incoming request, blocking if none
	// are available.
	ReceiveRequest() (*wsengine.MessageContext, error)
	// SendReply sends a reply to a previously received request without
	// blocking. The reply's wsa:RelatesTo and destination are derived
	// from the request's addressing headers.
	SendReply(reply, request *wsengine.MessageContext) error
}

// Utils is the paper's Figure 3 deterministic utility API: return values
// are agreed by the voter group, so they are consistent across all
// replicas regardless of which host executes the code.
type Utils interface {
	// CurrentTimeMillis replaces System.currentTimeMillis(): the voter
	// group agrees on the primary's suggestion. Because agreement may
	// take arbitrarily long, the value is not suitable for realtime
	// constraints (paper Section 4.2).
	CurrentTimeMillis() (int64, error)
	// Timestamp replaces constructing wall-clock timestamps directly.
	Timestamp() (time.Time, error)
	// Random returns a generator seeded with an agreed value, so every
	// replica draws the same sequence.
	Random() (*rand.Rand, error)
}

// ReadHandler evaluates a declared-read operation against the replica's
// current local state, returning the reply context. It must not mutate
// application state (reads execute speculatively, outside agreement),
// must produce byte-identical replies for identical state across
// replicas, and must reject non-read operations with an error. It runs
// on transport goroutines concurrently with the executor, so it must
// synchronize with the state it reads.
type ReadHandler func(req *wsengine.MessageContext) (*wsengine.MessageContext, error)

// AppContext is what an Application's executor receives: messaging,
// deterministic utilities, and identity.
type AppContext struct {
	MessageHandler
	Utils

	// ServiceName and ReplicaIndex identify this executor's replica.
	// They exist for diagnostics; deterministic application logic must
	// not branch on ReplicaIndex.
	ServiceName  string
	ReplicaIndex int

	node *Node
}

// ServeReads declares this service's read operations servable through
// the session-tier fast path by installing the handler that evaluates
// them (see Node.ServeReads). Services that never call it serve every
// operation through full agreement, exactly as before.
func (ctx *AppContext) ServeReads(h ReadHandler) {
	if ctx.node != nil {
		ctx.node.ServeReads(h)
	}
}

// Application is a Perpetual-WS application: a deterministic,
// single-threaded executor with a long-running active thread of
// computation. Run is invoked once per replica on a dedicated goroutine
// and should loop until a MessageHandler call returns an error
// (shutdown). Determinism requirements: identical behavior across
// replicas given identical agreed inputs; all time, timestamps, and
// randomness must come from Utils.
type Application interface {
	Run(ctx *AppContext)
}

// ApplicationFunc adapts a function to Application.
type ApplicationFunc func(ctx *AppContext)

// Run implements Application.
func (f ApplicationFunc) Run(ctx *AppContext) { f(ctx) }
