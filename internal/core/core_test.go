package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

func fastOpts() perpetual.ServiceOptions {
	return perpetual.ServiceOptions{
		CheckpointInterval: 16,
		ViewChangeTimeout:  400 * time.Millisecond,
		RetransmitInterval: 250 * time.Millisecond,
	}
}

// faultyOpts is fastOpts with Byzantine behaviors by replica index.
func faultyOpts(faults map[int]perpetual.Behavior) perpetual.ServiceOptions {
	opts := fastOpts()
	opts.Behaviors = faults
	return opts
}

// echoService is an Application answering every request with
// <echoed>original body</echoed>.
var echoService = ApplicationFunc(func(ctx *AppContext) {
	for {
		req, err := ctx.ReceiveRequest()
		if err != nil {
			return
		}
		reply := wsengine.NewMessageContext()
		reply.Envelope.Body = append(append([]byte("<echoed>"), req.Envelope.Body...), []byte("</echoed>")...)
		if err := ctx.SendReply(reply, req); err != nil {
			return
		}
	}
})

// newEchoCluster builds client (nc replicas, no app) -> echo (nt).
func newEchoCluster(t *testing.T, nc, nt int) *Cluster {
	t.Helper()
	c, err := NewCluster([]byte("core-test"),
		ServiceDef{Name: "client", N: nc, Options: fastOpts()},
		ServiceDef{Name: "echo", N: nt, App: echoService, Options: fastOpts()},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func newRequest(target, body string) *wsengine.MessageContext {
	mc := wsengine.NewMessageContext()
	mc.Options.To = soap.ServiceURI(target)
	mc.Options.Action = "urn:test"
	mc.Envelope.Body = []byte(body)
	return mc
}

func TestSendReceiveUnreplicated(t *testing.T) {
	c := newEchoCluster(t, 1, 1)
	h := c.Handler("client", 0)
	reply, err := h.SendReceive(newRequest("echo", "<ping/>"))
	if err != nil {
		t.Fatalf("SendReceive: %v", err)
	}
	if got := string(reply.Envelope.Body); got != "<echoed><ping/></echoed>" {
		t.Errorf("body = %q", got)
	}
	if reply.Envelope.Header.RelatesTo == "" {
		t.Error("reply lost wsa:RelatesTo")
	}
}

func TestSendReceiveReplicated(t *testing.T) {
	c := newEchoCluster(t, 4, 4)
	// Every client replica's executor issues the same call; all must
	// observe the same reply.
	var wg sync.WaitGroup
	bodies := make([]string, 4)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, err := c.Handler("client", i).SendReceive(newRequest("echo", "<r/>"))
			if err != nil {
				t.Errorf("replica %d: %v", i, err)
				return
			}
			bodies[i] = string(reply.Envelope.Body)
		}()
	}
	wg.Wait()
	for i := 1; i < 4; i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("replica %d saw %q, replica 0 saw %q", i, bodies[i], bodies[0])
		}
	}
	if bodies[0] != "<echoed><r/></echoed>" {
		t.Errorf("body = %q", bodies[0])
	}
}

func TestAsynchronousSendThenReceive(t *testing.T) {
	c := newEchoCluster(t, 1, 4)
	h := c.Handler("client", 0)
	const parallel = 6
	reqs := make([]*wsengine.MessageContext, parallel)
	for i := range reqs {
		reqs[i] = newRequest("echo", fmt.Sprintf("<n>%d</n>", i))
		if err := h.Send(reqs[i]); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// Collect out of band with ReceiveReply; all must arrive exactly
	// once.
	got := make(map[string]string)
	for i := 0; i < parallel; i++ {
		reply, err := h.ReceiveReply()
		if err != nil {
			t.Fatalf("ReceiveReply: %v", err)
		}
		rel := reply.Envelope.Header.RelatesTo
		if _, dup := got[rel]; dup {
			t.Errorf("duplicate reply for %s", rel)
		}
		got[rel] = string(reply.Envelope.Body)
	}
	for i, req := range reqs {
		id := req.Envelope.Header.MessageID
		want := fmt.Sprintf("<echoed><n>%d</n></echoed>", i)
		if got[id] != want {
			t.Errorf("reply for %s = %q, want %q", id, got[id], want)
		}
	}
}

func TestReceiveReplyForSpecificRequest(t *testing.T) {
	c := newEchoCluster(t, 1, 1)
	h := c.Handler("client", 0)
	a := newRequest("echo", "<a/>")
	b := newRequest("echo", "<b/>")
	if err := h.Send(a); err != nil {
		t.Fatalf("Send a: %v", err)
	}
	if err := h.Send(b); err != nil {
		t.Fatalf("Send b: %v", err)
	}
	// Ask for b's reply first even though a was sent first.
	rb, err := h.ReceiveReplyFor(b)
	if err != nil {
		t.Fatalf("ReceiveReplyFor b: %v", err)
	}
	if string(rb.Envelope.Body) != "<echoed><b/></echoed>" {
		t.Errorf("b reply = %q", rb.Envelope.Body)
	}
	ra, err := h.ReceiveReplyFor(a)
	if err != nil {
		t.Fatalf("ReceiveReplyFor a: %v", err)
	}
	if string(ra.Envelope.Body) != "<echoed><a/></echoed>" {
		t.Errorf("a reply = %q", ra.Envelope.Body)
	}
}

func TestTimeoutSurfacesAsFault(t *testing.T) {
	// A service that never replies.
	sink := ApplicationFunc(func(ctx *AppContext) {
		for {
			if _, err := ctx.ReceiveRequest(); err != nil {
				return
			}
		}
	})
	c, err := NewCluster([]byte("m"),
		ServiceDef{Name: "client", N: 4, Options: fastOpts()},
		ServiceDef{Name: "hole", N: 4, App: sink, Options: fastOpts()},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	var wg sync.WaitGroup
	outcomes := make([]string, 4)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := newRequest("hole", "<void/>")
			req.Options.TimeoutMillis = 600
			reply, err := c.Handler("client", i).SendReceive(req)
			if err != nil {
				t.Errorf("replica %d: %v", i, err)
				return
			}
			f, isFault := soap.IsFault(reply.Envelope.Body)
			if !isFault {
				t.Errorf("replica %d: reply is not a fault: %q", i, reply.Envelope.Body)
				return
			}
			outcomes[i] = f.Reason
			if aborted, _ := reply.Property(PropAborted); aborted != true {
				t.Errorf("replica %d: fault not marked aborted", i)
			}
		}()
	}
	wg.Wait()
	for i := 1; i < 4; i++ {
		if outcomes[i] != outcomes[0] {
			t.Errorf("replica %d outcome %q differs from %q", i, outcomes[i], outcomes[0])
		}
	}
	if !strings.Contains(outcomes[0], "aborted") {
		t.Errorf("fault reason = %q", outcomes[0])
	}
}

func TestUtilsAgreeAcrossReplicas(t *testing.T) {
	c := newEchoCluster(t, 4, 1)
	vals := make([]int64, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Node("client", i).Utils().CurrentTimeMillis()
			if err != nil {
				t.Errorf("replica %d: %v", i, err)
				return
			}
			vals[i] = v
		}()
	}
	wg.Wait()
	for i := 1; i < 4; i++ {
		if vals[i] != vals[0] {
			t.Errorf("replica %d time %d != replica 0 time %d", i, vals[i], vals[0])
		}
	}
}

func TestRandomAgreesAcrossReplicas(t *testing.T) {
	c := newEchoCluster(t, 4, 1)
	draws := make([][3]int, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng, err := c.Node("client", i).Utils().Random()
			if err != nil {
				t.Errorf("replica %d: %v", i, err)
				return
			}
			for j := 0; j < 3; j++ {
				draws[i][j] = rng.Intn(1 << 20)
			}
		}()
	}
	wg.Wait()
	for i := 1; i < 4; i++ {
		if draws[i] != draws[0] {
			t.Errorf("replica %d drew %v, replica 0 drew %v", i, draws[i], draws[0])
		}
	}
}

func TestThreeTierSOAPChain(t *testing.T) {
	// store(client) -> pge -> bank over full SOAP envelopes, the
	// paper's TPC-W shape.
	bank := ApplicationFunc(func(ctx *AppContext) {
		for {
			req, err := ctx.ReceiveRequest()
			if err != nil {
				return
			}
			reply := wsengine.NewMessageContext()
			reply.Envelope.Body = []byte("<approved/>")
			if err := ctx.SendReply(reply, req); err != nil {
				return
			}
		}
	})
	pge := ApplicationFunc(func(ctx *AppContext) {
		for {
			req, err := ctx.ReceiveRequest()
			if err != nil {
				return
			}
			bankReq := wsengine.NewMessageContext()
			bankReq.Options.To = soap.ServiceURI("bank")
			bankReq.Envelope.Body = req.Envelope.Body
			bankReply, err := ctx.SendReceive(bankReq)
			if err != nil {
				return
			}
			reply := wsengine.NewMessageContext()
			reply.Envelope.Body = append([]byte("<gateway>"), append(bankReply.Envelope.Body, []byte("</gateway>")...)...)
			if err := ctx.SendReply(reply, req); err != nil {
				return
			}
		}
	})
	c, err := NewCluster([]byte("m"),
		ServiceDef{Name: "store", N: 1, Options: fastOpts()},
		ServiceDef{Name: "pge", N: 4, App: pge, Options: fastOpts()},
		ServiceDef{Name: "bank", N: 4, App: bank, Options: fastOpts()},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	reply, err := c.Handler("store", 0).SendReceive(newRequest("pge", "<charge amount='42'/>"))
	if err != nil {
		t.Fatalf("SendReceive: %v", err)
	}
	if got := string(reply.Envelope.Body); got != "<gateway><approved/></gateway>" {
		t.Errorf("body = %q", got)
	}
}

func TestSendReplyRequiresKnownRequest(t *testing.T) {
	c := newEchoCluster(t, 1, 1)
	h := c.Handler("client", 0)
	bogus := wsengine.NewMessageContext()
	bogus.Envelope.Header.MessageID = "never-received"
	if err := h.SendReply(wsengine.NewMessageContext(), bogus); err == nil {
		t.Error("SendReply for unknown request succeeded")
	}
}

func TestSendRequiresDestination(t *testing.T) {
	c := newEchoCluster(t, 1, 1)
	h := c.Handler("client", 0)
	mc := wsengine.NewMessageContext()
	mc.Envelope.Body = []byte("<x/>")
	if err := h.Send(mc); err == nil {
		t.Error("Send without destination succeeded")
	}
}

func TestCustomPipeHandlerRuns(t *testing.T) {
	c, err := NewCluster([]byte("m"),
		ServiceDef{Name: "client", N: 1, Options: fastOpts()},
		ServiceDef{Name: "echo", N: 1, App: echoService, Options: fastOpts()},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	// Customize the client's OUT-PIPE before start, as axis2.xml
	// deployment descriptors add handlers to the Axis2 stack.
	var seen int
	var mu sync.Mutex
	c.Node("client", 0).Engine().OutPipe.Add(wsengine.HandlerFunc{
		HandlerName: "Counter",
		Fn: func(mc *wsengine.MessageContext) error {
			mu.Lock()
			seen++
			mu.Unlock()
			return nil
		},
	})
	c.Start()
	t.Cleanup(c.Stop)

	if _, err := c.Handler("client", 0).SendReceive(newRequest("echo", "<x/>")); err != nil {
		t.Fatalf("SendReceive: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen != 1 {
		t.Errorf("custom handler ran %d times, want 1", seen)
	}
}

func TestFaultIsolationAcrossTiers(t *testing.T) {
	// A compromised (entirely silent) payment tier must not wedge the
	// store: calls to it abort; calls to a healthy tier keep working.
	c, err := NewCluster([]byte("m"),
		ServiceDef{Name: "store", N: 4, Options: fastOpts()},
		ServiceDef{
			Name: "deadpge", N: 4, App: echoService,
			Options: faultyOpts(map[int]perpetual.Behavior{
				0: perpetual.SilentFault{}, 1: perpetual.SilentFault{},
				2: perpetual.SilentFault{}, 3: perpetual.SilentFault{},
			}),
		},
		ServiceDef{Name: "inventory", N: 4, App: echoService, Options: fastOpts()},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := c.Handler("store", i)
			dead := newRequest("deadpge", "<charge/>")
			dead.Options.TimeoutMillis = 800
			if err := h.Send(dead); err != nil {
				t.Errorf("replica %d send dead: %v", i, err)
				return
			}
			live := newRequest("inventory", "<check/>")
			liveReply, err := h.SendReceive(live)
			if err != nil {
				t.Errorf("replica %d live call: %v", i, err)
				return
			}
			if !bytes.Contains(liveReply.Envelope.Body, []byte("<check/>")) {
				t.Errorf("replica %d live reply = %q", i, liveReply.Envelope.Body)
			}
			deadReply, err := h.ReceiveReplyFor(dead)
			if err != nil {
				t.Errorf("replica %d dead reply: %v", i, err)
				return
			}
			if _, isFault := soap.IsFault(deadReply.Envelope.Body); !isFault {
				t.Errorf("replica %d: dead tier reply is not a fault", i)
			}
		}()
	}
	wg.Wait()
}

func TestOptionsFaultSilencesClient(t *testing.T) {
	// A fault given through ServiceDef.Options.Behaviors is installed:
	// the silent N=1 client's request never leaves its replica, so the
	// call settles at most as its deadline's abort fault and never with
	// the echo reply. A cluster that dropped the fault would answer it.
	c, err := NewCluster([]byte("m"),
		ServiceDef{Name: "client", N: 1, Options: faultyOpts(map[int]perpetual.Behavior{0: perpetual.SilentFault{}})},
		ServiceDef{Name: "echo", N: 4, App: echoService, Options: fastOpts()},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	req := newRequest("echo", "<ping/>")
	req.Options.TimeoutMillis = 500
	replies := make(chan *wsengine.MessageContext, 1)
	go func() {
		reply, _ := c.Handler("client", 0).SendReceive(req)
		replies <- reply
	}()
	select {
	case reply := <-replies:
		if reply == nil {
			return
		}
		if _, isFault := soap.IsFault(reply.Envelope.Body); !isFault {
			t.Fatalf("silent client's call completed with %q", reply.Envelope.Body)
		}
	case <-time.After(2 * time.Second):
	}
}

func TestUndeliverableRequestGetsFaultReply(t *testing.T) {
	// Regression: a request the node could not hand to the application —
	// an agreed payload failing soap.Parse — was dropped with no reply at
	// all, stalling the caller until its timeout fired, and forever at
	// the paper-default zero timeout. The node now settles such requests
	// with a deterministic SOAP fault.
	c := newEchoCluster(t, 1, 1)
	drv := c.Node("client", 0).Replica().Driver()

	// A zero-timeout call whose payload is not a SOAP envelope settles
	// with the fault instead of wedging its caller forever.
	type out struct {
		res perpetual.Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := drv.Do(context.Background(), perpetual.Request{Target: "echo", Payload: []byte("\x01garbage")})
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("Do: %v", o.err)
		}
		env, err := soap.Parse(o.res.Payload)
		if err != nil {
			t.Fatalf("fault reply is not an envelope: %v", err)
		}
		if _, isFault := soap.IsFault(env.Body); !isFault {
			t.Errorf("reply = %q, want fault", env.Body)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("call with an unparseable payload wedged (no reply)")
	}

	// An issue-only call is likewise answered: the caller's outstanding
	// entry settles instead of dangling forever.
	if _, err := drv.Do(context.Background(), perpetual.Request{Target: "echo", Payload: []byte("\x01garbage"), NoWait: true}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for drv.Outstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Outstanding = %d, want 0: undeliverable requests were dropped without a reply", drv.Outstanding())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
