// Tcpcluster: a real multi-process Byzantine fault-tolerant voter group
// over TCP sockets — the paper's deployment model (Section 5.2), not
// the in-process network the other examples use. The parent process
// builds a replicas.xml-style topology on loopback ports, re-executes
// itself four times to host the target service's replicas (each child
// is one OS process owning one replica, exactly like running
// cmd/replica per host), drives synchronous null requests from an
// unreplicated caller, and prints the measured throughput plus the
// wire-level statistics of the asynchronous per-link TCP transport.
//
//	go run ./examples/tcpcluster
package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"perpetualws/internal/bench"
	"perpetualws/internal/core"
	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

const (
	envTopology = "PERPETUAL_TCPCLUSTER_TOPOLOGY"
	envService  = "PERPETUAL_TCPCLUSTER_SERVICE"
	envIndex    = "PERPETUAL_TCPCLUSTER_INDEX"
	targetN     = 4
	calls       = 200
)

// exitPortTaken is a child's exit status, and errPortTaken the run's
// error, when a port buildTopology reserved was taken before the child
// bound it. Such a run is retried once with fresh ports.
const exitPortTaken = 3

var errPortTaken = errors.New("a reserved port was taken before its replica bound it")

func main() {
	if os.Getenv(envService) != "" {
		runChild()
		return
	}
	err := runParent()
	if errors.Is(err, errPortTaken) {
		log.Printf("tcpcluster: %v; retrying with fresh ports", err)
		err = runParent()
	}
	if err != nil {
		log.Fatalf("tcpcluster: %v", err)
	}
}

// runChild hosts one replica of the target service, like one
// cmd/replica process on its own host.
func runChild() {
	topo, err := core.ParseTopology(strings.NewReader(os.Getenv(envTopology)))
	if err != nil {
		log.Fatalf("tcpcluster child: topology: %v", err)
	}
	index, _ := strconv.Atoi(os.Getenv(envIndex))
	node, err := core.StartTCPNode(core.TCPNodeConfig{
		Topology: topo,
		Service:  os.Getenv(envService),
		Index:    index,
		App:      bench.IncrementApp(0),
	})
	if err != nil {
		log.Printf("tcpcluster child %d: %v", index, err)
		if errors.Is(err, syscall.EADDRINUSE) {
			os.Exit(exitPortTaken)
		}
		os.Exit(1)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	node.Stop()
	ns := node.NetStats()
	fmt.Printf("  target/%d wire: out %d frames (%d B), in %d frames (%d B), drops %d, redials %d\n",
		index, ns.FramesOut, ns.BytesOut, ns.FramesIn, ns.BytesIn, ns.QueueDrops, ns.Redials)
}

// runParent starts the replica processes and drives the calls. A child
// that exits before the calls are done fails the run at once, with the
// child's exit status.
func runParent() error {
	topoXML, err := buildTopology()
	if err != nil {
		return err
	}

	// One OS process per target replica: a real 4-process voter group
	// tolerating one Byzantine replica, joined only by TCP sockets.
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var children []*exec.Cmd
	exited := make(chan *os.ProcessState, targetN)
	defer func() {
		for _, c := range children {
			_ = c.Process.Signal(syscall.SIGTERM)
		}
		for range children {
			<-exited
		}
	}()
	for i := 0; i < targetN; i++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(),
			envTopology+"="+topoXML,
			envService+"=target",
			envIndex+"="+strconv.Itoa(i),
		)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawning replica %d: %w", i, err)
		}
		children = append(children, cmd)
		go func() {
			_ = cmd.Wait()
			exited <- cmd.ProcessState
		}()
	}

	topo, err := core.ParseTopology(strings.NewReader(topoXML))
	if err != nil {
		return err
	}
	caller, err := core.StartTCPNode(core.TCPNodeConfig{
		Topology: topo, Service: "caller", Index: 0,
	})
	if err != nil {
		return err
	}
	defer caller.Stop()

	fmt.Printf("tcpcluster: 4 replica processes + 1 caller process, loopback TCP\n")
	done := make(chan error, 1)
	go func() { done <- drive(caller) }()
	select {
	case err := <-done:
		return err
	case ps := <-exited:
		exited <- ps // the deferred cleanup waits for every child
		if ps.ExitCode() == exitPortTaken {
			return fmt.Errorf("replica process %d: %w", ps.Pid(), errPortTaken)
		}
		return fmt.Errorf("replica process %d exited before the run ended: %v", ps.Pid(), ps)
	}
}

// drive sends the calls through the caller's node and prints what they
// measured.
func drive(caller *core.TCPNode) error {
	h := caller.Node.Handler()
	newReq := func() *wsengine.MessageContext {
		mc := wsengine.NewMessageContext()
		mc.Options.To = soap.ServiceURI("target")
		mc.Options.Action = "urn:tcpcluster:increment"
		mc.Envelope.Body = []byte("<inc/>")
		return mc
	}

	// Warm up through dials and first agreement, retrying while the
	// child processes come up.
	deadline := time.Now().Add(20 * time.Second)
	var err error
	for {
		if _, err = h.SendReceive(newReq()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster never became live: %w", err)
		}
		time.Sleep(200 * time.Millisecond)
	}

	start := time.Now()
	for k := 0; k < calls; k++ {
		reply, err := h.SendReceive(newReq())
		if err != nil {
			return fmt.Errorf("call %d: %w", k, err)
		}
		if k == calls-1 {
			fmt.Printf("last reply: %s\n", reply.Envelope.Body)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("%d synchronous null requests through the 4-process group: %.0f req/s (%.2f ms/req)\n",
		calls, float64(calls)/elapsed.Seconds(), elapsed.Seconds()*1000/float64(calls))
	ns := caller.NetStats()
	fmt.Printf("caller wire: out %d frames (%d B), in %d frames (%d B), drops %d, redials %d\n",
		ns.FramesOut, ns.BytesOut, ns.FramesIn, ns.BytesIn, ns.QueueDrops, ns.Redials)
	return nil
}

// buildTopology reserves loopback ports and renders the replicas.xml
// document both the parent and the children parse.
func buildTopology() (string, error) {
	ports := make([]string, 0, 2*(targetN+1))
	for i := 0; i < 2*(targetN+1); i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		addr := ln.Addr().String()
		ln.Close()
		ports = append(ports, addr)
	}
	xml := `<deployment><master>6d61737465722d746370636c7573746572</master>` +
		`<service name="caller"><replica index="0" voter="` + ports[0] + `" driver="` + ports[1] + `"/></service>` +
		`<service name="target">`
	for i := 0; i < targetN; i++ {
		xml += `<replica index="` + strconv.Itoa(i) + `" voter="` + ports[2+2*i] + `" driver="` + ports[3+2*i] + `"/>`
	}
	xml += `</service></deployment>`
	return xml, nil
}
