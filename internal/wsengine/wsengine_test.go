package wsengine

import (
	"errors"
	"testing"

	"perpetualws/internal/soap"
)

type captureSender struct{ got []*MessageContext }

func (c *captureSender) Send(mc *MessageContext) error {
	c.got = append(c.got, mc)
	return nil
}

type captureReceiver struct{ got []*MessageContext }

func (c *captureReceiver) Receive(mc *MessageContext) error {
	c.got = append(c.got, mc)
	return nil
}

func TestPipeRunsHandlersInOrder(t *testing.T) {
	var order []string
	mk := func(name string) Handler {
		return HandlerFunc{HandlerName: name, Fn: func(*MessageContext) error {
			order = append(order, name)
			return nil
		}}
	}
	p := &Pipe{}
	p.Add(mk("a"), mk("b"), mk("c"))
	if err := p.Invoke(NewMessageContext()); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("order = %v", order)
	}
	names := p.Names()
	if len(names) != 3 || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}

func TestPipeStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	ran := false
	p := &Pipe{}
	p.Add(
		HandlerFunc{HandlerName: "fail", Fn: func(*MessageContext) error { return boom }},
		HandlerFunc{HandlerName: "after", Fn: func(*MessageContext) error { ran = true; return nil }},
	)
	err := p.Invoke(NewMessageContext())
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if ran {
		t.Error("handler after failure ran")
	}
}

func TestEngineSendOut(t *testing.T) {
	e := NewEngine()
	s := &captureSender{}
	e.SetSender(s)
	e.OutPipe.Add(AddressingOutHandler())

	mc := NewMessageContext()
	mc.Options.To = soap.ServiceURI("pge")
	mc.Options.Action = "urn:op"
	if err := e.SendOut(mc); err != nil {
		t.Fatalf("SendOut: %v", err)
	}
	if len(s.got) != 1 {
		t.Fatalf("sender got %d messages", len(s.got))
	}
	if got := s.got[0].Envelope.Header.To; got != "perpetual://pge" {
		t.Errorf("To = %q", got)
	}
	if got := s.got[0].Envelope.Header.Action; got != "urn:op" {
		t.Errorf("Action = %q", got)
	}
}

func TestEngineSendOutWithoutSender(t *testing.T) {
	e := NewEngine()
	if err := e.SendOut(NewMessageContext()); !errors.Is(err, ErrNoSender) {
		t.Errorf("err = %v", err)
	}
}

func TestEngineReceiveIn(t *testing.T) {
	e := NewEngine()
	r := &captureReceiver{}
	e.SetReceiver(r)
	e.InPipe.Add(AddressingInHandler())

	mc := NewMessageContext()
	mc.Envelope.Header.MessageID = "m1"
	if err := e.ReceiveIn(mc); err != nil {
		t.Fatalf("ReceiveIn: %v", err)
	}
	if len(r.got) != 1 {
		t.Errorf("receiver got %d messages", len(r.got))
	}
}

func TestAddressingOutRejectsMissingTo(t *testing.T) {
	h := AddressingOutHandler()
	if err := h.Invoke(NewMessageContext()); err == nil {
		t.Error("accepted message without destination")
	}
}

func TestAddressingOutKeepsExplicitHeaders(t *testing.T) {
	mc := NewMessageContext()
	mc.Envelope.Header.To = "perpetual://explicit"
	mc.Options.To = "perpetual://option"
	if err := AddressingOutHandler().Invoke(mc); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if mc.Envelope.Header.To != "perpetual://explicit" {
		t.Errorf("To = %q, explicit header must win", mc.Envelope.Header.To)
	}
}

func TestAddressingInRejectsAnonymousMessage(t *testing.T) {
	if err := AddressingInHandler().Invoke(NewMessageContext()); err == nil {
		t.Error("accepted message without MessageID/RelatesTo")
	}
}

func TestBodySizeLimit(t *testing.T) {
	h := BodySizeLimitHandler(4)
	mc := NewMessageContext()
	mc.Envelope.Body = []byte("1234")
	if err := h.Invoke(mc); err != nil {
		t.Errorf("rejected body at limit: %v", err)
	}
	mc.Envelope.Body = []byte("12345")
	if err := h.Invoke(mc); err == nil {
		t.Error("accepted oversized body")
	}
}

func TestMessageContextProperties(t *testing.T) {
	mc := NewMessageContext()
	if _, ok := mc.Property("missing"); ok {
		t.Error("found missing property")
	}
	mc.SetProperty("k", 42)
	v, ok := mc.Property("k")
	if !ok || v.(int) != 42 {
		t.Errorf("Property = %v, %v", v, ok)
	}
	// SetProperty on a zero-value context must not panic.
	var bare MessageContext
	bare.SetProperty("x", "y")
	if v, _ := bare.Property("x"); v != "y" {
		t.Error("property on zero-value context lost")
	}
}

// TestMessageContextPropertyOverwriteAndGrowth: setting a key again
// replaces its value wherever it lives, and keys past the inline
// capacity spill without losing the inline ones.
func TestMessageContextPropertyOverwriteAndGrowth(t *testing.T) {
	mc := NewMessageContext()
	const n = 2*propsInline + 1
	keys := make([]string, n)
	for i := range keys {
		keys[i] = string(rune('a' + i))
		mc.SetProperty(keys[i], i)
	}
	mc.SetProperty(keys[0], "inline again")
	mc.SetProperty(keys[n-1], "spilled again")
	for i, k := range keys {
		var want any = i
		switch i {
		case 0:
			want = "inline again"
		case n - 1:
			want = "spilled again"
		}
		if v, ok := mc.Property(k); !ok || v != want {
			t.Errorf("Property(%q) = %v, %v; want %v", k, v, ok, want)
		}
	}
	if mc.nprops != propsInline || len(mc.overflow) != n-propsInline {
		t.Errorf("%d inline + %d spilled entries for %d keys", mc.nprops, len(mc.overflow), n)
	}
}

// TestMessageContextAllocBudget: a context carrying as many properties
// as core sets on one message (pointers and bools) is one allocation.
func TestMessageContextAllocBudget(t *testing.T) {
	req := &struct{ id int }{7}
	got := testing.AllocsPerRun(200, func() {
		mc := NewMessageContext()
		mc.SetProperty("perpetual.inKind", req)
		mc.SetProperty("perpetual.inReq", req)
		mc.SetProperty("perpetual.blocking", true)
		mc.SetProperty("perpetual.aborted", false)
		if _, ok := mc.Property("perpetual.inReq"); !ok {
			t.Fatal("property lost")
		}
		if _, ok := mc.Property("missing"); ok {
			t.Fatal("found missing property")
		}
	})
	if got > 1 {
		t.Errorf("%.0f allocs per run, budget 1", got)
	}
}

func TestOptionsTimeout(t *testing.T) {
	o := Options{TimeoutMillis: 1500}
	if got := o.Timeout().Milliseconds(); got != 1500 {
		t.Errorf("Timeout = %dms", got)
	}
}
