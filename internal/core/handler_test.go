package core

import (
	"fmt"
	"testing"
	"time"

	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

func TestReceiveReplyForUnknownMessage(t *testing.T) {
	c := newEchoCluster(t, 1, 1)
	h := c.Handler("client", 0)
	unknown := wsengine.NewMessageContext()
	unknown.Envelope.Header.MessageID = "client:msg:999"
	if _, err := h.ReceiveReplyFor(unknown); err == nil {
		t.Error("ReceiveReplyFor unknown message succeeded")
	}
	noID := wsengine.NewMessageContext()
	if _, err := h.ReceiveReplyFor(noID); err == nil {
		t.Error("ReceiveReplyFor without MessageID succeeded")
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
// handler before Send has recorded its request: deliverReply files it
// under its RelatesTo, and Send must not then record a correlation pair
// that no reply will ever remove. The target never answers, so the
// early reply is each call's only one.
func TestSendRecordsNothingForEarlyReply(t *testing.T) {
	const calls = 1000
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
	for i := 0; i < calls; i++ {
		h.mu.Lock()
		msgID := fmt.Sprintf("client:msg:%d", h.msgSeq+1)
		h.mu.Unlock()
		early := wsengine.NewMessageContext()
		early.Envelope.Header.RelatesTo = msgID
		early.Envelope.Body = []byte("<early/>")
		h.deliverReply("not-yet-recorded", early)

		req := newRequest("sink", "<x/>")
		if err := h.Send(req); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		if req.Envelope.Header.MessageID != msgID {
			t.Fatalf("Send %d used %s, want %s", i, req.Envelope.Header.MessageID, msgID)
		}
		reply, err := h.ReceiveReplyFor(req)
		if err != nil || string(reply.Envelope.Body) != "<early/>" {
			t.Fatalf("ReceiveReplyFor %d = %v, %v", i, reply, err)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.reqOfMsg) != 0 || len(h.msgOfReq) != 0 {
		t.Errorf("correlation maps hold %d/%d entries after %d early replies, want 0", len(h.reqOfMsg), len(h.msgOfReq), calls)
	}
}

// TestSendClaimsParkedAbort covers an early reply with nothing to file
// it by: an agreed abort the driver parked before issue settles the call
// inside Send, and the pump can hand the handler its fault — which
// carries no RelatesTo — before Send has learned the reqID. deliverReply
// must park it by reqID and Send must queue it under its msgID, leaving
// no correlation pair behind.
func TestSendClaimsParkedAbort(t *testing.T) {
	const calls = 1000
	opts := fastOpts()
	opts.RetransmitInterval = time.Minute
	c, err := NewCluster([]byte("early-abort"),
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
	for i := 1; i <= calls; i++ {
		reqID := fmt.Sprintf("client:%d", i) // the driver's next request id
		abort := wsengine.NewMessageContext()
		abort.Envelope.Body = soap.FaultBody(soap.Fault{Code: "soap:Receiver", Reason: "aborted"})
		abort.SetProperty(PropAborted, true)
		h.deliverReply(reqID, abort)

		req := newRequest("sink", "<x/>")
		if err := h.Send(req); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		if got, _ := req.Property(PropReqID); got != reqID {
			t.Fatalf("Send %d issued %v, want %s", i, got, reqID)
		}
		h.mu.Lock()
		queued := len(h.events) == 1 && h.events[0].msgID == req.Envelope.Header.MessageID
		h.mu.Unlock()
		if !queued {
			t.Fatalf("call %d: the parked abort was not queued under its msgID", i)
		}
		reply, err := h.ReceiveReplyFor(req)
		if err != nil {
			t.Fatalf("ReceiveReplyFor %d: %v", i, err)
		}
		if aborted, _ := reply.Property(PropAborted); aborted != true {
			t.Fatalf("call %d answered by %q, want the parked abort", i, reply.Envelope.Body)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.reqOfMsg) != 0 || len(h.msgOfReq) != 0 || len(h.early) != 0 {
		t.Errorf("after %d parked aborts: reqOfMsg %d, msgOfReq %d, early %d entries, want 0",
			calls, len(h.reqOfMsg), len(h.msgOfReq), len(h.early))
	}
}

// TestReceiveReplySkipsBlockedReply pins the reply fast path's consumer
// rule: a reply a SendReceive is blocked on reaches the handler at a
// point agreement did not fix, so only that caller's ReceiveReplyFor
// may take it — never the unkeyed ReceiveReply or ReceiveEvent of
// another application thread.
func TestReceiveReplySkipsBlockedReply(t *testing.T) {
	c := newEchoCluster(t, 1, 1)
	h := c.Node("client", 0).handler
	reply := func(relatesTo string) *wsengine.MessageContext {
		mc := wsengine.NewMessageContext()
		mc.Envelope.Header.RelatesTo = relatesTo
		mc.Envelope.Body = []byte("<" + relatesTo + "/>")
		return mc
	}
	h.mu.Lock()
	h.blocked["blocked"] = struct{}{}
	h.mu.Unlock()
	h.deliverReply("r1", reply("blocked"))
	h.deliverReply("r2", reply("free"))

	ev, err := h.ReceiveEvent()
	if err != nil || ev.msgID != "free" {
		t.Fatalf("ReceiveEvent = %+v, %v; want the unblocked reply", ev, err)
	}
	h.deliverReply("r3", reply("free2"))
	if mc, err := h.ReceiveReply(); err != nil || mc.Envelope.Header.RelatesTo != "free2" {
		t.Fatalf("ReceiveReply = %v, %v; want the unblocked reply", mc, err)
	}
	req := wsengine.NewMessageContext()
	req.Envelope.Header.MessageID = "blocked"
	if mc, err := h.ReceiveReplyFor(req); err != nil || mc.Envelope.Header.RelatesTo != "blocked" {
		t.Fatalf("ReceiveReplyFor = %v, %v", mc, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.blocked) != 0 {
		t.Errorf("blocked still holds %d entries after the reply was taken", len(h.blocked))
	}
}
