package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"perpetualws/internal/core"
	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/tpcw"
	"perpetualws/internal/wsengine"
)

// serviceOpts are the repo's proven throughput settings: suspicion and
// retransmission timers long enough that a saturated shared machine
// never triggers a spurious view change or retransmit, a checkpoint
// interval that amortises log garbage collection, and agreement
// batching on. Tentative execution stays at its default (on).
func serviceOpts() perpetual.ServiceOptions {
	return perpetual.ServiceOptions{
		CheckpointInterval: 256,
		ViewChangeTimeout:  10 * time.Second,
		RetransmitInterval: 10 * time.Second,
		MaxBatch:           32,
	}
}

// appWrapper lets the traced pass put its recording MessageHandler in
// front of a service's application; untraced it is the identity.
type appWrapper func(service string, app core.Application) core.Application

// workload is one named traffic mix over one deployment shape. The
// names, shapes, windows and rates are the benchmark's fixed contract:
// later changes are stated against them.
type workload struct {
	name, why string
	transport perpetual.TransportKind
	// window is the closed-loop outstanding-request count of the
	// saturate phase (sessions for browse_mix, which are synchronous).
	window int
	// pacedRate is the open-loop rate in req/s, about a tenth of this
	// sandbox's saturation, so paced latency is unqueued latency.
	pacedRate float64
	// readShare is the share of requests declared reads, reproduced on
	// the perpetual ladder rung.
	readShare float64
	// replicated names the n=4 groups whose agreement counters are read.
	replicated []string
	// entry is the replicated group the client calls: the traced pass
	// follows a request through its replicas.
	entry string
	// nextTier names the service each service's executor calls, so the
	// traced pass can follow a request down the tiers.
	nextTier map[string]string
	// skipPerpetualRung: the per-tier split comes from spans instead.
	skipPerpetualRung bool
	services          func(wrap appWrapper) []core.ServiceDef
	// newGen builds the load generator (and its oracle) over the
	// client's handler; all inputs derive from seed.
	newGen func(h core.MessageHandler, seed int64) gen
	// shapes returns a representative request and reply envelope, the
	// message shapes the stand-alone layer timings run on.
	shapes func() (req, reply soap.Envelope)
}

const groupSize = 4 // n = 3f+1 with f = 1

func workloads() []*workload {
	writeServices := func(wrap appWrapper) []core.ServiceDef {
		return []core.ServiceDef{
			{Name: "client", N: 1, Options: serviceOpts()},
			{Name: "target", N: groupSize, App: wrap("target", incrementApp()), Options: serviceOpts()},
		}
	}
	incShapes := func() (soap.Envelope, soap.Envelope) {
		return requestEnvelope("target", actionIncrement, []byte("<inc/>")),
			replyEnvelope([]byte("<count>123456</count>"))
	}
	return []*workload{
		{
			name:      "write_mem",
			why:       "every request is a CLBFT write of the smallest message over memnet: clbft, auth, perpetual and wire do the work, transport almost none",
			transport: perpetual.TransportMem, window: 32, pacedRate: 500,
			replicated: []string{"target"}, entry: "target",
			services: writeServices, newGen: newIncrementGen, shapes: incShapes,
		},
		{
			name:      "write_tcp",
			why:       "write_mem over loopback TCP: the same protocol work plus tcpnet framing, queues, flush coalescing and syscalls, so a transport change shows here only",
			transport: perpetual.TransportTCP, window: 32, pacedRate: 500,
			replicated: []string{"target"}, entry: "target",
			services: writeServices, newGen: newIncrementGen, shapes: incShapes,
		},
		{
			name:      "browse_mix",
			why:       "95% declared reads take the session-tier fast path (f+1 digest endorsements, no agreement) beside 5% cart commits: soap/tpcw XML and the read path dominate, clbft does little",
			transport: perpetual.TransportMem, window: 2, pacedRate: 1000, readShare: 0.95,
			replicated: []string{"store"}, entry: "store",
			services: func(wrap appWrapper) []core.ServiceDef {
				store := tpcw.StoreApp(tpcw.StoreConfig{Items: storeItems, Customers: storeCustomers})
				return []core.ServiceDef{
					{Name: "client", N: 1, Options: serviceOpts()},
					{Name: "store", N: groupSize, App: wrap("store", store), Options: serviceOpts()},
				}
			},
			newGen: newBrowseGen,
			shapes: func() (soap.Envelope, soap.Envelope) {
				return requestEnvelope("store", tpcw.ActionInteraction, tpcw.EncodeInteraction(3, tpcw.ProductDetail, 42)),
					replyEnvelope(tpcw.EncodePage(tpcw.Page{Interaction: tpcw.ProductDetail, Size: 3507, Detail: "Book #42"}))
			},
		},
		{
			name:      "payment_3tier",
			why:       "the paper's n-tier path, client -> pge n=4 -> bank n=4: two nested agreements and caller-side reply agreement, message-heavy and unbatched, so core, auth and the allocator dominate",
			transport: perpetual.TransportMem, window: 4, pacedRate: 150,
			replicated: []string{"pge", "bank"}, entry: "pge", skipPerpetualRung: true,
			nextTier: map[string]string{"pge": "bank"},
			services: func(wrap appWrapper) []core.ServiceDef {
				return []core.ServiceDef{
					{Name: "client", N: 1, Options: serviceOpts()},
					{Name: "pge", N: groupSize, App: wrap("pge", tpcw.PGESyncApp("bank")), Options: serviceOpts()},
					{Name: "bank", N: groupSize, App: wrap("bank", tpcw.BankApp()), Options: serviceOpts()},
				}
			},
			newGen: newPaymentGen,
			shapes: func() (soap.Envelope, soap.Envelope) {
				ok, txn := tpcw.BankDecision("4111-0001-0007", 12345)
				return requestEnvelope("pge", tpcw.ActionAuthorize, tpcw.EncodeAuthorize("4111-0001-0007", 12345)),
					replyEnvelope(tpcw.EncodeAuthorization(ok, txn))
			},
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// requestEnvelope is a request as core.handler.Send would address it.
func requestEnvelope(service, action string, body []byte) soap.Envelope {
	return soap.Envelope{
		Header: soap.Header{
			To:        soap.ServiceURI(service),
			Action:    action,
			MessageID: "client:msg:123456",
			ReplyTo:   &soap.EndpointReference{Address: soap.ServiceURI("client")},
		},
		Body: body,
	}
}

// replyEnvelope is a reply as core.handler.SendReply would address it.
func replyEnvelope(body []byte) soap.Envelope {
	return soap.Envelope{
		Header: soap.Header{To: soap.ServiceURI("client"), RelatesTo: "client:msg:123456"},
		Body:   body,
	}
}

const actionIncrement = "urn:bench:increment"

// incrementApp is the paper's micro-benchmark target: increment a
// counter and return the old value.
func incrementApp() core.Application {
	return core.ApplicationFunc(func(ctx *core.AppContext) {
		var counter int64
		for {
			req, err := ctx.ReceiveRequest()
			if err != nil {
				return
			}
			reply := wsengine.NewMessageContext()
			body := append(make([]byte, 0, 32), "<count>"...)
			body = strconv.AppendInt(body, counter, 10)
			reply.Envelope.Body = append(body, "</count>"...)
			counter++
			if err := ctx.SendReply(reply, req); err != nil {
				return
			}
		}
	})
}

// newIncrementGen drives <inc/> requests. The workload has no
// data-dependent input, so the seed changes nothing here. Oracle: the
// replies carry each old value 0..N-1 exactly once.
func newIncrementGen(h core.MessageHandler, _ int64) gen {
	var seen []bool
	distinct := 0
	g := &asyncGen{h: h}
	g.build = func(int) *wsengine.MessageContext {
		mc := wsengine.NewMessageContext()
		mc.Options.To = soap.ServiceURI("target")
		mc.Options.Action = actionIncrement
		mc.Envelope.Body = []byte("<inc/>")
		return mc
	}
	g.check = func(_ int, reply *wsengine.MessageContext) bool {
		b := reply.Envelope.Body
		const open, shut = len("<count>"), len("</count>")
		if len(b) <= open+shut || string(b[:open]) != "<count>" || string(b[len(b)-shut:]) != "</count>" {
			return false
		}
		v, err := strconv.Atoi(string(b[open : len(b)-shut]))
		if err != nil || v < 0 || v >= g.issued() {
			return false
		}
		for len(seen) <= v {
			seen = append(seen, false)
		}
		if seen[v] {
			return false
		}
		seen[v] = true
		distinct++
		return true
	}
	g.final = func() error {
		if n := g.issued(); distinct != n {
			return fmt.Errorf("increments: %d distinct old values for %d requests", distinct, n)
		}
		return nil
	}
	return g
}

// newPaymentGen drives authorize requests with seeded card numbers and
// amounts at the payment gateway. Oracle: approval and transaction id
// equal the bank's deterministic policy computed locally.
func newPaymentGen(h core.MessageHandler, seed int64) gen {
	rng := rand.New(rand.NewSource(seed))
	type auth struct {
		card   string
		amount int64
	}
	var issued []auth
	g := &asyncGen{h: h}
	g.build = func(k int) *wsengine.MessageContext {
		a := auth{
			card:   fmt.Sprintf("4111-%04d-%04d", rng.Intn(10000), rng.Intn(10000)),
			amount: 100 + rng.Int63n(100000),
		}
		issued = append(issued, a)
		mc := wsengine.NewMessageContext()
		mc.Options.To = soap.ServiceURI("pge")
		mc.Options.Action = tpcw.ActionAuthorize
		mc.Envelope.Body = tpcw.EncodeAuthorize(a.card, a.amount)
		return mc
	}
	g.check = func(k int, reply *wsengine.MessageContext) bool {
		if _, isFault := soap.IsFault(reply.Envelope.Body); isFault {
			return false
		}
		approved, txn, err := tpcw.DecodeAuthorization(reply.Envelope.Body)
		if err != nil {
			return false
		}
		g.mu.Lock()
		a := issued[k]
		g.mu.Unlock()
		wantOK, wantTxn := tpcw.BankDecision(a.card, a.amount)
		return approved == wantOK && txn == wantTxn
	}
	g.final = func() error { return nil }
	return g
}

const (
	storeItems     = 100
	storeCustomers = 16
)

// browseOps is the declared-read part of the mix.
var browseOps = [...]tpcw.Interaction{tpcw.Home, tpcw.BestSellers, tpcw.ProductDetail, tpcw.CartView}

// newBrowseGen drives two synchronous tpcw.StoreClient sessions, each
// pinned to its own seeded customer, through a seeded 95/5 mix of
// browse reads and cart commits.
func newBrowseGen(h core.MessageHandler, seed int64) gen {
	rng := rand.New(rand.NewSource(seed))
	first := rng.Intn(storeCustomers)
	second := (first + 1 + rng.Intn(storeCustomers-1)) % storeCustomers
	g := &browseGen{client: &tpcw.StoreClient{Handler: h, Service: "store", NumCustomers: storeCustomers}}
	for i, customer := range [...]int{first, second} {
		g.sessions[i] = &browseSession{
			session: tpcw.Session{CustomerID: customer},
			rng:     rand.New(rand.NewSource(seed + int64(i) + 1)),
			cart:    make(map[int]bool),
		}
	}
	return g
}

// browseSession is one emulated browser plus the oracle for its pages.
type browseSession struct {
	session tpcw.Session
	rng     *rand.Rand
	cart    map[int]bool // distinct items this session added
}

func (s *browseSession) next() (tpcw.Interaction, int) {
	if s.rng.Intn(20) == 0 {
		return tpcw.ShoppingCart, s.rng.Intn(storeItems)
	}
	return browseOps[s.rng.Intn(len(browseOps))], s.rng.Intn(storeItems)
}

// checkPage is the browse oracle: the page is the one asked for, and a
// cart page (the add itself, or a later read-back through the fast
// path) weighs exactly what this session's own adds make it weigh.
func (s *browseSession) checkPage(kind tpcw.Interaction, arg int, p tpcw.Page) bool {
	if p.Interaction != kind {
		return false
	}
	switch kind {
	case tpcw.ShoppingCart:
		s.cart[arg] = true
		return p.Size == 3200+80*len(s.cart)
	case tpcw.CartView:
		return p.Size == 3200+80*len(s.cart)
	case tpcw.ProductDetail:
		return p.Detail == "Book #"+strconv.Itoa(arg)
	}
	return p.Size > 0
}
