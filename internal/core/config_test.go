package core

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"perpetualws/internal/perpetual"
	"perpetualws/internal/wsengine"
)

const topologyDoc = `<?xml version="1.0"?>
<deployment>
  <master>00112233445566778899aabbccddeeff</master>
  <service name="client">
    <replica index="0" voter="127.0.0.1:0" driver="127.0.0.1:0"/>
  </service>
  <service name="echo">
    <replica index="0" voter="127.0.0.1:0" driver="127.0.0.1:0"/>
  </service>
</deployment>`

func TestParseTopology(t *testing.T) {
	topo, err := ParseTopology(strings.NewReader(topologyDoc))
	if err != nil {
		t.Fatalf("ParseTopology: %v", err)
	}
	if len(topo.Services) != 2 {
		t.Fatalf("services = %d", len(topo.Services))
	}
	if topo.Services[0].Name != "client" || len(topo.Services[0].Replicas) != 1 {
		t.Errorf("service[0] = %+v", topo.Services[0])
	}
	m, err := topo.MasterSecret()
	if err != nil {
		t.Fatalf("MasterSecret: %v", err)
	}
	if len(m) != 16 {
		t.Errorf("master length = %d", len(m))
	}
	reg := topo.Registry()
	if svc, err := reg.Lookup("echo"); err != nil || svc.N != 1 {
		t.Errorf("registry echo = %+v, %v", svc, err)
	}
}

func TestParseTopologyRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"bad master": `<deployment><master>zz</master>
			<service name="a"><replica index="0" voter="x" driver="y"/></service></deployment>`,
		"short master": `<deployment><master>aabb</master>
			<service name="a"><replica index="0" voter="x" driver="y"/></service></deployment>`,
		"unnamed service": `<deployment><master>00112233445566778899aabbccddeeff</master>
			<service><replica index="0" voter="x" driver="y"/></service></deployment>`,
		"no replicas": `<deployment><master>00112233445566778899aabbccddeeff</master>
			<service name="a"></service></deployment>`,
		"dup index": `<deployment><master>00112233445566778899aabbccddeeff</master>
			<service name="a"><replica index="0" voter="x" driver="y"/>
			<replica index="0" voter="x" driver="y"/></service></deployment>`,
		"index range": `<deployment><master>00112233445566778899aabbccddeeff</master>
			<service name="a"><replica index="5" voter="x" driver="y"/></service></deployment>`,
		"missing addr": `<deployment><master>00112233445566778899aabbccddeeff</master>
			<service name="a"><replica index="0" voter="" driver="y"/></service></deployment>`,
		"dup service": `<deployment><master>00112233445566778899aabbccddeeff</master>
			<service name="a"><replica index="0" voter="x" driver="y"/></service>
			<service name="a"><replica index="0" voter="x" driver="y"/></service></deployment>`,
	}
	for name, doc := range cases {
		if _, err := ParseTopology(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// freePorts grabs n distinct ephemeral TCP ports.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserving port: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

func TestTCPNodesEndToEnd(t *testing.T) {
	ports := freePorts(t, 4)
	doc := fmt.Sprintf(`<deployment>
  <master>00112233445566778899aabbccddeeff</master>
  <service name="client"><replica index="0" voter=%q driver=%q/></service>
  <service name="echo"><replica index="0" voter=%q driver=%q/></service>
</deployment>`, ports[0], ports[1], ports[2], ports[3])
	topo, err := ParseTopology(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("ParseTopology: %v", err)
	}

	echoNode, err := StartTCPNode(TCPNodeConfig{
		Topology: topo, Service: "echo", Index: 0, App: echoService,
		Options: perpetual.ServiceOptions{
			ViewChangeTimeout:  400 * time.Millisecond,
			RetransmitInterval: 300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("StartTCPNode echo: %v", err)
	}
	defer echoNode.Stop()

	clientNode, err := StartTCPNode(TCPNodeConfig{
		Topology: topo, Service: "client", Index: 0,
		Options: perpetual.ServiceOptions{
			ViewChangeTimeout:  400 * time.Millisecond,
			RetransmitInterval: 300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("StartTCPNode client: %v", err)
	}
	defer clientNode.Stop()

	req := wsengine.NewMessageContext()
	req.Options.To = "perpetual://echo"
	req.Envelope.Body = []byte("<over-tcp/>")
	reply, err := clientNode.Node.Handler().SendReceive(req)
	if err != nil {
		t.Fatalf("SendReceive over TCP: %v", err)
	}
	if got := string(reply.Envelope.Body); got != "<echoed><over-tcp/></echoed>" {
		t.Errorf("body = %q", got)
	}
}
