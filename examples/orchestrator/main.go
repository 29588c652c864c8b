// Orchestrator: a replicated SOA orchestrator with a long-running
// active thread of computation — the application model existing BFT
// web-service middleware cannot express (paper Section 3). The
// orchestrator is not passive: on its own initiative it runs a workflow
// that fans out asynchronous calls to two supplier services, correlates
// the replies, consults the agreed clock and an agreed random number
// (host-specific information, made replica-consistent by Utils), and
// records a quote — all while remaining available for external status
// requests. It exits non-zero unless all four orchestrator replicas
// finish every workflow within 10 s and decide identically.
//
//	go run ./examples/orchestrator
package main

import (
	"fmt"
	"log"
	"slices"
	"strings"
	"time"

	"perpetualws/internal/core"
	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

// supplierApp quotes a deterministic price derived from the request.
func supplierApp(margin int) core.Application {
	return core.ApplicationFunc(func(ctx *core.AppContext) {
		for {
			req, err := ctx.ReceiveRequest()
			if err != nil {
				return
			}
			price := 100 + margin + len(req.Envelope.Body)%17
			reply := wsengine.NewMessageContext()
			reply.Envelope.Body = []byte(fmt.Sprintf("<quote price=%q/>", fmt.Sprint(price)))
			if err := ctx.SendReply(reply, req); err != nil {
				return
			}
		}
	})
}

// orchestratorN is the orchestrator's replica count.
const orchestratorN = 4

var items = []string{"bolts", "gears", "springs"}

// ledger is where each orchestrator replica records its decisions. Slot
// i is written by replica i's executor alone, which then signals
// finished; main reads the slots only after every replica has.
type ledger struct {
	decided  [orchestratorN][]string
	finished chan struct{}
}

// orchestratorApp runs one procurement workflow per item: an active
// thread issuing asynchronous calls and consuming replies by
// correlation, not arrival thread. Each decision goes into l.
func orchestratorApp(l *ledger) core.Application {
	return core.ApplicationFunc(func(ctx *core.AppContext) {
		var decided []string
		for _, item := range items {
			// Agreed clock: consistent on every replica even though each
			// host's local clock differs.
			startMs, err := ctx.CurrentTimeMillis()
			if err != nil {
				return
			}
			// Fan out one async request per supplier.
			reqA := quoteRequest("supplier-a", item)
			reqB := quoteRequest("supplier-b", item)
			if err := ctx.Send(reqA); err != nil {
				return
			}
			if err := ctx.Send(reqB); err != nil {
				return
			}
			// The workflow continues while the calls are in flight; here it
			// draws an agreed random tiebreaker.
			rng, err := ctx.Random()
			if err != nil {
				return
			}
			tiebreak := rng.Intn(2)

			replyA, err := ctx.ReceiveReplyFor(reqA)
			if err != nil {
				return
			}
			replyB, err := ctx.ReceiveReplyFor(reqB)
			if err != nil {
				return
			}
			priceA := extractPrice(replyA)
			priceB := extractPrice(replyB)
			winner := "supplier-a"
			switch {
			case priceB < priceA:
				winner = "supplier-b"
			case priceB == priceA && tiebreak == 1:
				winner = "supplier-b"
			}
			// Every replica decides the same (same agreed inputs, same
			// deterministic logic); main checks that it did.
			decided = append(decided, fmt.Sprintf("workflow[%s] t=%d: supplier-a=%d supplier-b=%d tiebreak=%d -> %s",
				item, startMs, priceA, priceB, tiebreak, winner))
		}
		l.decided[ctx.ReplicaIndex] = decided
		l.finished <- struct{}{}
	})
}

func quoteRequest(service, item string) *wsengine.MessageContext {
	mc := wsengine.NewMessageContext()
	mc.Options.To = soap.ServiceURI(service)
	mc.Options.Action = "urn:quote"
	mc.Envelope.Body = []byte(fmt.Sprintf("<rfq item=%q/>", item))
	return mc
}

func extractPrice(mc *wsengine.MessageContext) int {
	body := string(mc.Envelope.Body)
	i := strings.Index(body, `price="`)
	if i < 0 {
		return 1 << 30
	}
	var price int
	fmt.Sscanf(body[i+len(`price="`):], "%d", &price)
	return price
}

func main() {
	tune := perpetual.ServiceOptions{
		ViewChangeTimeout:  time.Second,
		RetransmitInterval: time.Second,
	}
	l := &ledger{finished: make(chan struct{}, orchestratorN)}
	cluster, err := core.NewCluster([]byte("orchestrator-demo"),
		// The orchestrator itself is replicated 4 ways: a BFT
		// long-running workflow engine.
		core.ServiceDef{Name: "orchestrator", N: orchestratorN, App: orchestratorApp(l), Options: tune},
		core.ServiceDef{Name: "supplier-a", N: 4, App: supplierApp(3), Options: tune},
		core.ServiceDef{Name: "supplier-b", N: 1, App: supplierApp(5), Options: tune},
	)
	if err != nil {
		log.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	// The orchestrator's active threads start running immediately,
	// driven by no external request at all; wait for every replica to
	// finish its workflows, then compare what they decided.
	deadline := time.After(10 * time.Second)
	for n := 0; n < orchestratorN; n++ {
		select {
		case <-l.finished:
		case <-deadline:
			log.Fatalf("orchestration timed out: %d of %d replicas finished", n, orchestratorN)
		}
	}
	for i := 1; i < orchestratorN; i++ {
		if !slices.Equal(l.decided[i], l.decided[0]) {
			log.Fatalf("replicas diverged:\n  replica 0: %q\n  replica %d: %q", l.decided[0], i, l.decided[i])
		}
	}
	for _, d := range l.decided[0] {
		fmt.Println(d)
	}
	fmt.Printf("orchestration complete: %d workflows, decisions identical on all %d replicas\n", len(items), orchestratorN)
}
