// Quickstart: deploy a Byzantine fault-tolerant counter service with
// four replicas (tolerating one arbitrary fault) and call it both
// synchronously and asynchronously through the Perpetual-WS
// MessageHandler API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"perpetualws/internal/core"
	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

// counterApp is the replicated application: a deterministic executor
// maintaining a counter. Every replica processes the same agreed
// request sequence, so their counters stay identical.
var counterApp = core.ApplicationFunc(func(ctx *core.AppContext) {
	counter := 0
	for {
		req, err := ctx.ReceiveRequest()
		if err != nil {
			return // shutdown
		}
		counter++
		reply := wsengine.NewMessageContext()
		reply.Envelope.Body = []byte(fmt.Sprintf("<count>%d</count>", counter))
		if err := ctx.SendReply(reply, req); err != nil {
			return
		}
	}
})

func main() {
	// One unreplicated client plus a counter service replicated 4 ways
	// (n = 3f+1 with f = 1).
	cluster, err := core.NewCluster([]byte("quickstart-demo"),
		core.ServiceDef{Name: "client", N: 1, Options: tuning()},
		core.ServiceDef{Name: "counter", N: 4, App: counterApp, Options: tuning()},
	)
	if err != nil {
		log.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	h := cluster.Handler("client", 0)

	// Synchronous invocation: SendReceive blocks until the replicas
	// agree on the reply.
	req := wsengine.NewMessageContext()
	req.Options.To = soap.ServiceURI("counter")
	req.Options.Action = "urn:counter:increment"
	req.Envelope.Body = []byte("<increment/>")
	reply, err := h.SendReceive(req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synchronous call:   %s\n", reply.Envelope.Body)

	// Asynchronous invocations: fire three requests, keep working, then
	// collect the replies in agreement order.
	var pending []*wsengine.MessageContext
	for i := 0; i < 3; i++ {
		r := wsengine.NewMessageContext()
		r.Options.To = soap.ServiceURI("counter")
		r.Envelope.Body = []byte("<increment/>")
		if err := h.Send(r); err != nil {
			log.Fatal(err)
		}
		pending = append(pending, r)
	}
	fmt.Println("sent 3 asynchronous increments; doing other work...")
	for range pending {
		reply, err := h.ReceiveReply()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("asynchronous reply: %s (for %s)\n",
			reply.Envelope.Body, reply.Envelope.Header.RelatesTo)
	}

	// Context-first invocation: Driver.Do is the unified entry point at
	// the driver tier — one Request struct covers agreement calls and
	// fast-path reads, with cancellation and deadlines carried by a
	// context instead of bare timeout parameters.
	// (Under a core cluster the engine issues through Do in NoWait mode
	// and the event pump consumes the reply; here we drive a raw
	// perpetual deployment so Do's blocking wait is ours.)
	dep := perpetual.NewDeployment([]byte("quickstart-do"),
		perpetual.ServiceInfo{Name: "cli", N: 1},
		perpetual.ServiceInfo{Name: "echo", N: 4},
	)
	if err := dep.Build(); err != nil {
		log.Fatal(err)
	}
	dep.Start()
	defer dep.Stop()
	for _, d := range dep.Drivers("echo") {
		d := d
		go func() {
			for {
				req, err := d.NextRequest()
				if err != nil {
					return
				}
				if err := d.Reply(req, append([]byte("echo:"), req.Payload...)); err != nil {
					return
				}
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := dep.Drivers("cli")[0].Do(ctx, perpetual.Request{
		Target:  "echo",
		Payload: []byte("hello"),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Driver.Do call:     %s (reqID=%s)\n", res.Payload, res.ReqID)
}

func tuning() perpetual.ServiceOptions {
	return perpetual.ServiceOptions{
		ViewChangeTimeout:  time.Second,
		RetransmitInterval: time.Second,
	}
}
