// Command replica hosts one Perpetual-WS replica over TCP, using the
// static replicas.xml endpoint mapping of the paper's deployment model
// (Section 5.2). Each replica of each service runs one instance of this
// command (typically on its own host):
//
//	replica -config replicas.xml -service pge -index 2 -app echo
//
// Built-in applications (-app):
//
//	echo       reply to every request with its own body
//	increment  the micro-benchmark counter service
//	pge        payment gateway forwarding to the service named by -bank
//	bank       credit-card issuing bank (deterministic approvals)
//
// Real deployments embed the core package directly and install their own
// Application; this command exists so the examples and smoke tests can
// run multi-process deployments.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perpetualws/internal/bench"
	"perpetualws/internal/core"
	"perpetualws/internal/perpetual"
	"perpetualws/internal/tpcw"
	"perpetualws/internal/wsengine"
)

func main() {
	var (
		configPath = flag.String("config", "replicas.xml", "path to the replicas.xml topology")
		service    = flag.String("service", "", "service name (required)")
		index      = flag.Int("index", 0, "replica index within the service")
		app        = flag.String("app", "echo", "application: echo|increment|pge|bank|none")
		bank       = flag.String("bank", "bank", "bank service name (for -app pge)")
		verbose    = flag.Bool("v", false, "log protocol diagnostics")
		vcTimeout  = flag.Duration("vc-timeout", 2*time.Second, "view-change timeout")
		statsEvery = flag.Duration("stats-every", 0, "log transport + TCP wire stats at this interval (0 disables)")
	)
	flag.Parse()
	if *service == "" {
		fmt.Fprintln(os.Stderr, "replica: -service is required")
		flag.Usage()
		os.Exit(2)
	}

	topo, err := core.LoadTopology(*configPath)
	if err != nil {
		log.Fatalf("replica: %v", err)
	}

	var application core.Application
	switch *app {
	case "echo":
		application = core.ApplicationFunc(func(ctx *core.AppContext) {
			for {
				req, err := ctx.ReceiveRequest()
				if err != nil {
					return
				}
				reply := wsengine.NewMessageContext()
				reply.Envelope.Body = req.Envelope.Body
				if err := ctx.SendReply(reply, req); err != nil {
					return
				}
			}
		})
	case "increment":
		application = bench.IncrementApp(0)
	case "pge":
		application = tpcw.PGEAsyncApp(*bank)
	case "bank":
		application = tpcw.BankApp()
	case "none":
		application = nil
	default:
		log.Fatalf("replica: unknown application %q", *app)
	}

	var logger *log.Logger
	if *verbose {
		logger = log.New(os.Stderr, "", log.Lmicroseconds)
	}
	node, err := core.StartTCPNode(core.TCPNodeConfig{
		Topology: topo,
		Service:  *service,
		Index:    *index,
		App:      application,
		Options:  perpetual.ServiceOptions{ViewChangeTimeout: *vcTimeout, Logger: logger},
	})
	if err != nil {
		log.Fatalf("replica: %v", err)
	}
	log.Printf("replica %s/%d up (app=%s)", *service, *index, *app)

	stopStats := make(chan struct{})
	if *statsEvery > 0 {
		go func() {
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					ts, ns := node.TransportStats(), node.NetStats()
					log.Printf("replica %s/%d stats: sent=%d/%dB recv=%d/%dB rejected=%d | wire out=%d/%dB in=%d/%dB drops=%d redials=%d severed=%d",
						*service, *index,
						ts.SentMsgs, ts.SentBytes, ts.RecvMsgs, ts.RecvBytes, ts.RejectedMsgs,
						ns.FramesOut, ns.BytesOut, ns.FramesIn, ns.BytesIn,
						ns.QueueDrops, ns.Redials, ns.LinksSevered)
				case <-stopStats:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	close(stopStats)
	log.Printf("replica %s/%d shutting down", *service, *index)
	node.Stop()
	ns := node.NetStats()
	log.Printf("replica %s/%d final wire stats: out=%d frames/%dB in=%d frames/%dB drops=%d redials=%d severed=%d",
		*service, *index, ns.FramesOut, ns.BytesOut, ns.FramesIn, ns.BytesIn,
		ns.QueueDrops, ns.Redials, ns.LinksSevered)
}
