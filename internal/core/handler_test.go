package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

func TestReceiveReplyForUnknownMessage(t *testing.T) {
	c := newEchoCluster(t, 1, 1)
	h := c.Handler("client", 0)
	// A MessageID alone names no request: only Send records one.
	unknown := wsengine.NewMessageContext()
	unknown.Envelope.Header.MessageID = "client:999"
	if _, err := h.ReceiveReplyFor(unknown); err != ErrUnknownRequest {
		t.Errorf("ReceiveReplyFor without a request id = %v, want ErrUnknownRequest", err)
	}
	if _, err := h.ReceiveReplyFor(wsengine.NewMessageContext()); err != ErrUnknownRequest {
		t.Errorf("ReceiveReplyFor on an empty context = %v, want ErrUnknownRequest", err)
	}
}

func TestHandlerNilContexts(t *testing.T) {
	c := newEchoCluster(t, 1, 1)
	h := c.Handler("client", 0)
	if err := h.Send(nil); err == nil {
		t.Error("Send(nil) succeeded")
	}
	if _, err := h.ReceiveReplyFor(nil); err == nil {
		t.Error("ReceiveReplyFor(nil) succeeded")
	}
	if err := h.SendReply(nil, nil); err == nil {
		t.Error("SendReply(nil, nil) succeeded")
	}
}

func TestClosedHandlerReturnsErrClosed(t *testing.T) {
	c := newEchoCluster(t, 1, 1)
	n := c.Node("client", 0)
	n.Stop()
	h := n.Handler()
	if err := h.Send(newRequest("echo", "<x/>")); err != ErrClosed {
		t.Errorf("Send after stop = %v, want ErrClosed", err)
	}
	if _, err := h.ReceiveReply(); err != ErrClosed {
		t.Errorf("ReceiveReply after stop = %v", err)
	}
	if _, err := h.ReceiveRequest(); err != ErrClosed {
		t.Errorf("ReceiveRequest after stop = %v", err)
	}
}

func TestUtilsAfterClusterStop(t *testing.T) {
	c, err := NewCluster([]byte("m"),
		ServiceDef{Name: "client", N: 1, Options: fastOpts()},
		ServiceDef{Name: "echo", N: 1, App: echoService, Options: fastOpts()},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Start()
	u := c.Node("client", 0).Utils()
	c.Stop()
	if _, err := u.CurrentTimeMillis(); err == nil {
		t.Error("CurrentTimeMillis after stop succeeded")
	}
	if _, err := u.Timestamp(); err == nil {
		t.Error("Timestamp after stop succeeded")
	}
	if _, err := u.Random(); err == nil {
		t.Error("Random after stop succeeded")
	}
}

func TestTimestampMatchesCurrentTimeMillis(t *testing.T) {
	c := newEchoCluster(t, 1, 1)
	u := c.Node("client", 0).Utils()
	ts, err := u.Timestamp()
	if err != nil {
		t.Fatalf("Timestamp: %v", err)
	}
	if d := time.Since(ts); d < 0 || d > time.Minute {
		t.Errorf("timestamp %v is %v away from now", ts, d)
	}
}

func TestClusterAccessors(t *testing.T) {
	c := newEchoCluster(t, 2, 1)
	if c.Node("client", 9) != nil {
		t.Error("out-of-range node not nil")
	}
	if c.Handler("missing", 0) != nil {
		t.Error("handler for unknown service not nil")
	}
	if got := len(c.Nodes("client")); got != 2 {
		t.Errorf("Nodes = %d", got)
	}
	if c.Deployment() == nil {
		t.Error("Deployment accessor nil")
	}
}

func TestInvalidClusterDefinitions(t *testing.T) {
	if _, err := NewCluster([]byte("m"), ServiceDef{Name: "", N: 1}); err == nil {
		t.Error("unnamed service accepted")
	}
	if _, err := NewCluster([]byte("m"), ServiceDef{Name: "x", N: 0}); err == nil {
		t.Error("zero-replica service accepted")
	}
}

func TestSendToUnknownServiceURI(t *testing.T) {
	c := newEchoCluster(t, 1, 1)
	h := c.Handler("client", 0)
	req := wsengine.NewMessageContext()
	req.Options.To = "http://not-perpetual/svc"
	req.Envelope.Body = []byte("<x/>")
	if err := h.Send(req); err == nil {
		t.Error("Send to non-perpetual URI succeeded")
	}
	req2 := wsengine.NewMessageContext()
	req2.Options.To = soap.ServiceURI("ghost")
	req2.Envelope.Body = []byte("<x/>")
	if err := h.Send(req2); err == nil {
		t.Error("Send to unregistered service succeeded")
	}
}

func TestAppContextIdentity(t *testing.T) {
	c := newEchoCluster(t, 1, 4)
	ctx := c.Node("echo", 2).Context()
	if ctx.ServiceName != "echo" || ctx.ReplicaIndex != 2 {
		t.Errorf("identity = %s/%d", ctx.ServiceName, ctx.ReplicaIndex)
	}
	if ctx.MessageHandler == nil || ctx.Utils == nil {
		t.Error("context missing interfaces")
	}
}

// TestSendRecordsNothingForEarlyReply covers a reply that reaches the
// handler before Send has returned its request id: a call settled at
// issue from an outcome its driver parked is answered inside SendOut,
// and the pump may get there first. The reply is filed under the
// request id alone, so it waits for ReceiveReplyFor and Send leaves
// nothing behind.
func TestSendRecordsNothingForEarlyReply(t *testing.T) {
	checkEarlyReplies(t, func(reqID string) *wsengine.MessageContext {
		mc := wsengine.NewMessageContext()
		mc.Envelope.Header.RelatesTo = reqID
		mc.Envelope.Body = []byte("<early/>")
		return mc
	}, func(reply *wsengine.MessageContext) bool {
		return string(reply.Envelope.Body) == "<early/>"
	})
}

// TestSendClaimsParkedAbort covers an early reply that does not name its
// request: an agreed abort the driver parked before issue carries no
// RelatesTo of its own, so only the request id it is filed under ties it
// to the Send that follows.
func TestSendClaimsParkedAbort(t *testing.T) {
	checkEarlyReplies(t, func(string) *wsengine.MessageContext {
		mc := wsengine.NewMessageContext()
		mc.Envelope.Body = soap.FaultBody(soap.Fault{Code: "soap:Receiver", Reason: "aborted"})
		mc.SetProperty(PropAborted, true)
		return mc
	}, func(reply *wsengine.MessageContext) bool {
		aborted, _ := reply.Property(PropAborted)
		return aborted == true
	})
}

// checkEarlyReplies delivers reply under the driver's next request id
// before each of 1 000 Sends, and checks that ReceiveReplyFor returns it
// (check) and that no event is left at the end. The target never
// answers, so the early reply is each call's only one.
func checkEarlyReplies(t *testing.T, reply func(reqID string) *wsengine.MessageContext, check func(*wsengine.MessageContext) bool) {
	t.Helper()
	const rounds = 1000
	opts := fastOpts()
	opts.RetransmitInterval = time.Minute
	c, err := NewCluster([]byte("early"),
		ServiceDef{Name: "client", N: 1, Options: opts},
		ServiceDef{Name: "sink", N: 1, App: ApplicationFunc(func(ctx *AppContext) {
			for {
				if _, err := ctx.ReceiveRequest(); err != nil {
					return
				}
			}
		}), Options: fastOpts()},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	h := c.Node("client", 0).handler
	for i := 1; i <= rounds; i++ {
		reqID := fmt.Sprintf("client:%d", i) // the driver's next request id
		h.deliverReply(reqID, reply(reqID))
		req := newRequest("sink", "<x/>")
		if err := h.Send(req); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		if req.Envelope.Header.MessageID != reqID {
			t.Fatalf("Send %d issued %s, want %s", i, req.Envelope.Header.MessageID, reqID)
		}
		got, err := h.ReceiveReplyFor(req)
		if err != nil || !check(got) {
			t.Fatalf("ReceiveReplyFor %d = %v, %v; want the early reply", i, got, err)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.events) != 0 {
		t.Errorf("%d events left after %d early replies, want 0", len(h.events), rounds)
	}
}

// TestReceiveReplySkipsBlockedReply pins the reply fast path's consumer
// rule: a reply to a SendReceive (perpetual.Reply.Blocking) reaches the
// handler at a point agreement did not fix, so only that caller's
// ReceiveReplyFor may take it — never the unkeyed ReceiveReply of
// another application thread. Aborts carry the mark too, and every
// reply names its request id in RelatesTo.
func TestReceiveReplySkipsBlockedReply(t *testing.T) {
	c := newEchoCluster(t, 1, 1)
	n := c.Node("client", 0)
	h := n.handler
	reply := func(reqID string, blocking bool) perpetual.Reply {
		env := soap.Envelope{Body: []byte("<r/>")}
		payload, err := env.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return perpetual.Reply{ReqID: reqID, Payload: payload, Blocking: blocking}
	}
	n.pumpReply(reply("blocked", true))
	n.pumpReply(perpetual.Reply{ReqID: "blocked-abort", Aborted: true, Blocking: true})
	n.pumpReply(reply("free", false))

	if mc, err := h.ReceiveReply(); err != nil || mc.Envelope.Header.RelatesTo != "free" {
		t.Fatalf("ReceiveReply = %v, %v; want the unblocked reply", mc, err)
	}
	for _, id := range []string{"blocked-abort", "blocked"} {
		req := wsengine.NewMessageContext()
		req.SetProperty(PropReqID, id)
		if mc, err := h.ReceiveReplyFor(req); err != nil || mc.Envelope.Header.RelatesTo != id {
			t.Fatalf("ReceiveReplyFor(%s) = %v, %v", id, mc, err)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.events) != 0 {
		t.Errorf("%d events left after every reply was taken", len(h.events))
	}
}

// TestMessageIDCannotHijackReply is the reply-hijack regression: evil
// sends the callee a request whose wsa:MessageID is client's, and the
// callee holds both requests before answering either. Each caller must
// get the reply to its own request. Were the callee to file requests by
// the MessageID a caller chose, one reply would reach the wrong caller
// and the other none.
func TestMessageIDCannotHijackReply(t *testing.T) {
	pair := ApplicationFunc(func(ctx *AppContext) {
		for {
			var reqs [2]*wsengine.MessageContext
			for i := range reqs {
				req, err := ctx.ReceiveRequest()
				if err != nil {
					return
				}
				reqs[i] = req
			}
			for _, req := range reqs {
				reply := wsengine.NewMessageContext()
				reply.Envelope.Body = append(append([]byte("<for>"), req.Envelope.Body...), "</for>"...)
				if err := ctx.SendReply(reply, req); err != nil {
					return
				}
			}
		}
	})
	c, err := NewCluster([]byte("hijack"),
		ServiceDef{Name: "client", N: 1, Options: fastOpts()},
		ServiceDef{Name: "evil", N: 1, Options: fastOpts()},
		ServiceDef{Name: "pair", N: 1, App: pair, Options: fastOpts()},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	client := c.Handler("client", 0)
	req := newRequest("pair", "<client/>")
	if err := client.Send(req); err != nil {
		t.Fatalf("client Send: %v", err)
	}
	env := soap.Envelope{
		Header: soap.Header{
			To:        soap.ServiceURI("pair"),
			MessageID: req.Envelope.Header.MessageID,
			ReplyTo:   &soap.EndpointReference{Address: soap.ServiceURI("evil")},
		},
		Body: []byte("<evil/>"),
	}
	payload, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	evil := c.Node("evil", 0).Replica().Driver()
	if _, err := evil.Do(context.Background(), perpetual.Request{Target: "pair", Payload: payload, NoWait: true}); err != nil {
		t.Fatalf("evil Do: %v", err)
	}

	body := func(who string, receive func() (*wsengine.MessageContext, error)) string {
		type result struct {
			mc  *wsengine.MessageContext
			err error
		}
		ch := make(chan result, 1)
		go func() {
			mc, err := receive()
			ch <- result{mc, err}
		}()
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatalf("%s: %v", who, r.err)
			}
			return string(r.mc.Envelope.Body)
		case <-time.After(5 * time.Second):
			t.Fatalf("%s got no reply", who)
			return ""
		}
	}
	if got := body("client", func() (*wsengine.MessageContext, error) { return client.ReceiveReplyFor(req) }); got != "<for><client/></for>" {
		t.Errorf("client got %q, want the reply to its own request", got)
	}
	if got := body("evil", c.Handler("evil", 0).ReceiveReply); got != "<for><evil/></for>" {
		t.Errorf("evil got %q, want the reply to its own request", got)
	}
}
