// Faultdemo: Byzantine fault tolerance and fault isolation in action.
//
// Scene 1 — tolerated faults: a 4-replica inventory service with one
// replica returning corrupted results and one completely silent still
// answers correctly, because reply bundles need f+1 = 2 matching
// endorsements from distinct replicas.
//
// Scene 2 — fault isolation: a *compromised* pricing service (all
// replicas silent, beyond its fault budget) cannot drag the caller
// down: requests to it abort deterministically after the agreed
// timeout, and the caller keeps serving traffic to healthy services —
// the paper's core guarantee for n-tier deployments.
//
//	go run ./examples/faultdemo
package main

import (
	"fmt"
	"log"
	"time"

	"perpetualws/internal/core"
	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

var inventoryApp = core.ApplicationFunc(func(ctx *core.AppContext) {
	stock := map[string]int{"bolts": 120, "gears": 7}
	for {
		req, err := ctx.ReceiveRequest()
		if err != nil {
			return
		}
		item := string(req.Envelope.Body)
		reply := wsengine.NewMessageContext()
		reply.Envelope.Body = []byte(fmt.Sprintf("<stock item=%q count=\"%d\"/>", item, stock[item]))
		if err := ctx.SendReply(reply, req); err != nil {
			return
		}
	}
})

func main() {
	tune := perpetual.ServiceOptions{
		ViewChangeTimeout:  800 * time.Millisecond,
		RetransmitInterval: 500 * time.Millisecond,
	}
	// Byzantine faults travel in the service's options, by replica index.
	faulty := func(faults map[int]perpetual.Behavior) perpetual.ServiceOptions {
		opts := tune
		opts.Behaviors = faults
		return opts
	}
	cluster, err := core.NewCluster([]byte("fault-demo"),
		core.ServiceDef{Name: "client", N: 1, Options: tune},
		// Inventory: 4 replicas, f = 1 tolerated — but we inject TWO
		// different faults that each stay within the voting margins of
		// the reply path (one corrupt, one silent).
		core.ServiceDef{
			Name: "inventory", N: 4, App: inventoryApp,
			Options: faulty(map[int]perpetual.Behavior{
				1: perpetual.CorruptResultFault{},
				3: perpetual.SilentFault{},
			}),
		},
		// Pricing: compromised — every replica silent.
		core.ServiceDef{
			Name: "pricing", N: 4, App: inventoryApp,
			Options: faulty(map[int]perpetual.Behavior{
				0: perpetual.SilentFault{}, 1: perpetual.SilentFault{},
				2: perpetual.SilentFault{}, 3: perpetual.SilentFault{},
			}),
		},
	)
	if err != nil {
		log.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()
	h := cluster.Handler("client", 0)

	fmt.Println("scene 1: inventory with 1 corrupt + 1 silent replica (within f-budget margins)")
	for _, item := range []string{"bolts", "gears"} {
		req := wsengine.NewMessageContext()
		req.Options.To = soap.ServiceURI("inventory")
		req.Envelope.Body = []byte(item)
		reply, err := h.SendReceive(req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s -> %s\n", item, reply.Envelope.Body)
	}

	fmt.Println("\nscene 2: pricing service is compromised (all replicas mute)")
	req := wsengine.NewMessageContext()
	req.Options.To = soap.ServiceURI("pricing")
	req.Options.TimeoutMillis = 1500 // deterministic group-wide abort
	req.Envelope.Body = []byte("bolts")
	start := time.Now()
	reply, err := h.SendReceive(req)
	if err != nil {
		log.Fatal(err)
	}
	if f, isFault := soap.IsFault(reply.Envelope.Body); isFault {
		fmt.Printf("  pricing call aborted after %v: %s\n", time.Since(start).Round(time.Millisecond), f.Reason)
	} else {
		fmt.Printf("  unexpected reply: %s\n", reply.Envelope.Body)
	}

	fmt.Println("\n  ...and the client is still live against the healthy tier:")
	req2 := wsengine.NewMessageContext()
	req2.Options.To = soap.ServiceURI("inventory")
	req2.Envelope.Body = []byte("bolts")
	reply2, err := h.SendReceive(req2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  bolts  -> %s\n", reply2.Envelope.Body)
	fmt.Println("\nfault isolation held: a compromised tier cost one aborted call, nothing more")
}
