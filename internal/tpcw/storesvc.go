package tpcw

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"time"

	"perpetualws/internal/core"
	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

// The bookstore itself as a replicated (and shardable) Perpetual-WS
// service. The paper's evaluation replicates only the payment tier and
// runs the store unreplicated; StoreApp closes that gap and, deployed
// with Shards > 1, partitions the store's state (customers, carts,
// orders) across independent CLBFT voter groups keyed by customer ID —
// the flagship sharded workload. All of a customer's state lives on the
// shard CustomerKey routes to, so carts placed on one interaction are
// visible to the next.

// ActionInteraction is the SOAP action of the store's interaction
// endpoint.
const ActionInteraction = "urn:tpcw:interaction"

// CustomerKey is the routing key that pins a customer's interactions
// (and therefore their cart, session, and orders) to one store shard.
func CustomerKey(customerID int) string { return "cust:" + strconv.Itoa(customerID) }

// interactionRequest is the wire form of one TPC-W interaction.
type interactionRequest struct {
	XMLName  xml.Name `xml:"interaction"`
	Customer int      `xml:"customer,attr"`
	Kind     int      `xml:"kind,attr"`
	Arg      int      `xml:"arg,attr"`
}

// pageReply is the wire form of a rendered page.
type pageReply struct {
	XMLName     xml.Name `xml:"page"`
	Interaction int      `xml:"interaction,attr"`
	Size        int      `xml:"size,attr"`
	Detail      string   `xml:"detail,attr"`
}

// EncodeInteraction builds an interaction request body (hand-rolled,
// byte-identical to the encoding/xml form; see xmlwire.go).
func EncodeInteraction(customerID int, i Interaction, arg int) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, "<interaction"...)
	buf = appendIntAttr(buf, "customer", customerID)
	buf = appendIntAttr(buf, "kind", int(i))
	buf = appendIntAttr(buf, "arg", arg)
	return append(buf, "></interaction>"...)
}

// DecodeInteraction parses an interaction request body.
func DecodeInteraction(body []byte) (customerID int, i Interaction, arg int, err error) {
	var r interactionRequest
	seen := 0
	sc := newAttrScanner(body, "interaction")
	for {
		name, val, done := sc.next()
		if done {
			break
		}
		// strconv.Atoi accepts exactly the integers encoding/xml does
		// (sign included) once the value has no surrounding space.
		n, perr := strconv.Atoi(val)
		var field *int
		var bit int
		switch name {
		case "customer":
			field, bit = &r.Customer, 1
		case "kind":
			field, bit = &r.Kind, 2
		case "arg":
			field, bit = &r.Arg, 4
		}
		if perr != nil || field == nil || seen&bit != 0 {
			sc.ok = false
			break
		}
		*field, seen = n, seen|bit
	}
	if !sc.ok || seen != 7 {
		// Non-canonical shape: take the general XML path.
		r = interactionRequest{}
		if err := xml.Unmarshal(body, &r); err != nil {
			return 0, 0, 0, fmt.Errorf("tpcw: parsing interaction request: %w", err)
		}
	}
	if r.Kind < 0 || r.Kind >= int(NumInteractions) {
		return 0, 0, 0, fmt.Errorf("tpcw: unknown interaction kind %d", r.Kind)
	}
	return r.Customer, Interaction(r.Kind), r.Arg, nil
}

// EncodePage builds a page reply body (hand-rolled; see xmlwire.go).
func EncodePage(p Page) []byte {
	if !printableASCII(p.Detail) {
		b, _ := xml.Marshal(pageReply{Interaction: int(p.Interaction), Size: p.Size, Detail: p.Detail})
		return b
	}
	buf := make([]byte, 0, 64+len(p.Detail))
	buf = append(buf, "<page"...)
	buf = appendIntAttr(buf, "interaction", int(p.Interaction))
	buf = appendIntAttr(buf, "size", p.Size)
	buf = appendStrAttr(buf, "detail", p.Detail)
	return append(buf, "></page>"...)
}

// DecodePage parses a page reply body.
func DecodePage(body []byte) (Page, error) {
	var p Page
	seen := 0
	sc := newAttrScanner(body, "page")
	for {
		name, val, done := sc.next()
		if done {
			break
		}
		var n, bit int
		var perr error
		switch name {
		case "interaction":
			n, perr = strconv.Atoi(val)
			p.Interaction, bit = Interaction(n), 1
		case "size":
			n, perr = strconv.Atoi(val)
			p.Size, bit = n, 2
		case "detail":
			p.Detail, bit = unescapeXML(val), 4
		}
		if perr != nil || bit == 0 || seen&bit != 0 {
			sc.ok = false
			break
		}
		seen |= bit
	}
	if sc.ok && seen == 7 {
		return p, nil
	}
	var r pageReply
	if err := xml.Unmarshal(body, &r); err != nil {
		return Page{}, fmt.Errorf("tpcw: parsing page reply: %w", err)
	}
	return Page{Interaction: Interaction(r.Interaction), Size: r.Size, Detail: r.Detail}, nil
}

// StoreConfig parameterizes a StoreApp replica.
type StoreConfig struct {
	// Items and Customers size the replica's DB (every shard loads the
	// full catalog; customer rows are only ever touched on the shard
	// their key routes to, so the partitioning is by access, not load).
	Items, Customers int
	// PaymentService names the Perpetual-WS payment gateway to call on
	// buy confirmations; empty authorizes locally with the deterministic
	// BankDecision policy (useful for store-only scenarios and benches).
	PaymentService string
	// PaymentTimeoutMillis deterministically aborts slow authorizations.
	PaymentTimeoutMillis int64
	// DBTime emulates per-interaction database access cost with a timed
	// wait (the in-memory DB answers in microseconds; a real TPC-W store
	// spends milliseconds per page on disk-backed queries). As with
	// bench.IncrementApp, a wait rather than a CPU burn reproduces a
	// testbed where each replica owns a host. Zero disables it.
	DBTime time.Duration
}

// StoreApp returns the bookstore as a deployable Perpetual-WS
// application: each replica (of each shard) runs the full TPC-W page
// logic over its own deterministic DB, holding server-side browser
// sessions keyed by customer. Deployed with Shards > 1, requests MUST be
// routed with CustomerKey so a customer's cart and orders stay on one
// shard.
func StoreApp(cfg StoreConfig) core.Application {
	if cfg.Items <= 0 {
		cfg.Items = 1000
	}
	if cfg.Customers <= 0 {
		cfg.Customers = 288
	}
	return core.ApplicationFunc(func(ctx *core.AppContext) {
		var pay PaymentAuthorizer
		if cfg.PaymentService != "" {
			pay = &GatewayClient{
				Handler:       ctx.MessageHandler,
				Service:       cfg.PaymentService,
				TimeoutMillis: cfg.PaymentTimeoutMillis,
			}
		} else {
			pay = PaymentAuthorizerFunc(func(card string, amountCts int64) (bool, string, error) {
				approved, txn := BankDecision(card, amountCts)
				return approved, txn, nil
			})
		}
		store := NewBookstore(NewDB(cfg.Items, cfg.Customers), pay)
		sessions := make(map[int]*Session)
		// Declare the browse pages readable through the session fast
		// path. The handler runs on transport goroutines concurrently
		// with the executor loop below: it only touches the DB (which is
		// internally synchronized), never the executor-owned sessions
		// map. A fresh session per read keeps speculative execution
		// stateless, so replies are byte-identical across replicas;
		// commits are refused, which surfaces as a Behind decline and
		// falls back to agreement.
		ctx.ServeReads(func(req *wsengine.MessageContext) (*wsengine.MessageContext, error) {
			customer, kind, arg, err := DecodeInteraction(req.Envelope.Body)
			if err != nil {
				return nil, err
			}
			if !kind.IsRead() {
				return nil, fmt.Errorf("tpcw: %s mutates store state; commits only execute through agreement", kind)
			}
			if cfg.DBTime > 0 {
				time.Sleep(cfg.DBTime)
			}
			s := &Session{CustomerID: customer % store.Customers()}
			page, err := store.Execute(kind, s, arg)
			if err != nil {
				return nil, err
			}
			reply := wsengine.NewMessageContext()
			reply.Envelope.Body = EncodePage(page)
			return reply, nil
		})
		for {
			req, err := ctx.ReceiveRequest()
			if err != nil {
				return
			}
			reply := wsengine.NewMessageContext()
			customer, kind, arg, perr := DecodeInteraction(req.Envelope.Body)
			if perr != nil {
				reply.Envelope.Body = soap.FaultBody(soap.Fault{Code: "soap:Sender", Reason: perr.Error()})
			} else {
				s, ok := sessions[customer]
				if !ok {
					s = &Session{CustomerID: customer % store.Customers()}
					sessions[customer] = s
				}
				if cfg.DBTime > 0 {
					time.Sleep(cfg.DBTime)
				}
				page, err := store.Execute(kind, s, arg)
				if err != nil {
					reply.Envelope.Body = soap.FaultBody(soap.Fault{Code: "soap:Receiver", Reason: err.Error()})
				} else {
					reply.Envelope.Body = EncodePage(page)
				}
			}
			if err := ctx.SendReply(reply, req); err != nil {
				return
			}
		}
	})
}

// StoreClient is the Storefront of a remote (replicated, possibly
// sharded) store service: Execute ships the interaction over
// Perpetual-WS, routed by the session's customer ID. It is safe for
// concurrent use by many RBE goroutines sharing one handler.
type StoreClient struct {
	Handler core.MessageHandler
	// Service names the store service ("store").
	Service string
	// NumCustomers mirrors the server DB size for RBE session setup.
	NumCustomers int
	// TimeoutMillis aborts interactions deterministically; zero never
	// aborts.
	TimeoutMillis int64
	// ForceAgreement routes declared-read interactions through full
	// agreement anyway — the benchmark baseline the fast path is
	// measured against, and a diagnostic lever for isolating fast-path
	// regressions.
	ForceAgreement bool
}

// Customers implements Storefront.
func (c *StoreClient) Customers() int {
	if c.NumCustomers <= 0 {
		return 288
	}
	return c.NumCustomers
}

// Execute implements Storefront: one round trip to the customer's
// shard.
func (c *StoreClient) Execute(i Interaction, s *Session, arg int) (Page, error) {
	req := wsengine.NewMessageContext()
	req.Options.To = soap.ServiceURI(c.Service)
	req.Options.Action = ActionInteraction
	req.Options.TimeoutMillis = c.TimeoutMillis
	req.Options.RoutingKey = CustomerKey(s.CustomerID)
	req.Options.ReadOnly = i.IsRead() && !c.ForceAgreement
	req.Envelope.Body = EncodeInteraction(s.CustomerID, i, arg)
	reply, err := c.Handler.SendReceive(req)
	if err != nil {
		return Page{}, err
	}
	if f, isFault := soap.IsFault(reply.Envelope.Body); isFault {
		return Page{}, fmt.Errorf("tpcw: interaction %s failed: %s", i, f.Reason)
	}
	return DecodePage(reply.Envelope.Body)
}
