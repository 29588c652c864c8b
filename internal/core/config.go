package core

import (
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"io"
	"os"

	"perpetualws/internal/auth"
	"perpetualws/internal/perpetual"
	"perpetualws/internal/transport"
)

// Topology is the parsed form of replicas.xml: the static mapping from
// service names to replica hosts that Perpetual-WS uses in place of
// dynamic UDDI resolution (paper Section 5.2).
type Topology struct {
	XMLName  xml.Name          `xml:"deployment"`
	Master   string            `xml:"master"` // hex-encoded deployment master secret
	Services []TopologyService `xml:"service"`
}

// TopologyService declares one replicated service.
type TopologyService struct {
	Name     string            `xml:"name,attr"`
	Replicas []TopologyReplica `xml:"replica"`
}

// TopologyReplica maps one replica's voter and driver to TCP addresses.
type TopologyReplica struct {
	Index  int    `xml:"index,attr"`
	Voter  string `xml:"voter,attr"`
	Driver string `xml:"driver,attr"`
}

// ParseTopology reads a replicas.xml document.
func ParseTopology(r io.Reader) (*Topology, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("perpetualws: reading topology: %w", err)
	}
	var t Topology
	if err := xml.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("perpetualws: parsing replicas.xml: %w", err)
	}
	return &t, t.Validate()
}

// LoadTopology reads replicas.xml from a file.
func LoadTopology(path string) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("perpetualws: opening topology: %w", err)
	}
	defer f.Close()
	return ParseTopology(f)
}

// Validate checks structural invariants.
func (t *Topology) Validate() error {
	if _, err := t.MasterSecret(); err != nil {
		return err
	}
	seen := make(map[string]struct{})
	for _, s := range t.Services {
		if s.Name == "" {
			return fmt.Errorf("perpetualws: topology has a service without a name")
		}
		if _, dup := seen[s.Name]; dup {
			return fmt.Errorf("perpetualws: duplicate service %q in topology", s.Name)
		}
		seen[s.Name] = struct{}{}
		if len(s.Replicas) == 0 {
			return fmt.Errorf("perpetualws: service %q has no replicas", s.Name)
		}
		idx := make(map[int]struct{})
		for _, r := range s.Replicas {
			if r.Index < 0 || r.Index >= len(s.Replicas) {
				return fmt.Errorf("perpetualws: service %q replica index %d out of range", s.Name, r.Index)
			}
			if _, dup := idx[r.Index]; dup {
				return fmt.Errorf("perpetualws: service %q has duplicate replica index %d", s.Name, r.Index)
			}
			idx[r.Index] = struct{}{}
			if r.Voter == "" || r.Driver == "" {
				return fmt.Errorf("perpetualws: service %q replica %d missing voter/driver address", s.Name, r.Index)
			}
		}
	}
	return nil
}

// MasterSecret decodes the deployment master secret.
func (t *Topology) MasterSecret() ([]byte, error) {
	m, err := hex.DecodeString(t.Master)
	if err != nil {
		return nil, fmt.Errorf("perpetualws: master secret is not hex: %w", err)
	}
	if len(m) < 16 {
		return nil, fmt.Errorf("perpetualws: master secret too short (%d bytes, need >= 16)", len(m))
	}
	return m, nil
}

// Registry builds the service directory from the topology.
func (t *Topology) Registry() *perpetual.Registry {
	infos := make([]perpetual.ServiceInfo, 0, len(t.Services))
	for _, s := range t.Services {
		infos = append(infos, perpetual.ServiceInfo{Name: s.Name, N: len(s.Replicas)})
	}
	return perpetual.NewRegistry(infos...)
}

// AddressBook builds the transport address book from the topology.
func (t *Topology) AddressBook() *transport.AddressBook {
	book := transport.NewAddressBook()
	for _, s := range t.Services {
		for _, r := range s.Replicas {
			book.Set(auth.VoterID(s.Name, r.Index), r.Voter)
			book.Set(auth.DriverID(s.Name, r.Index), r.Driver)
		}
	}
	return book
}

// TCPNodeConfig assembles one replica of one service over TCP.
type TCPNodeConfig struct {
	Topology *Topology
	Service  string
	Index    int
	// App is the executor; nil for externally driven nodes.
	App Application
	// Options tunes the replica; its Logger also receives node
	// diagnostics.
	Options perpetual.ServiceOptions
}

// TCPNode is a started Perpetual-WS replica listening on real sockets.
type TCPNode struct {
	Node    *Node
	replica *perpetual.Replica
	voterC  *transport.TCPConn
	driverC *transport.TCPConn
}

// StartTCPNode builds and starts a replica per the topology. It listens
// on the addresses assigned to the replica in replicas.xml.
func StartTCPNode(cfg TCPNodeConfig) (*TCPNode, error) {
	var tsvc *TopologyService
	for i := range cfg.Topology.Services {
		if cfg.Topology.Services[i].Name == cfg.Service {
			tsvc = &cfg.Topology.Services[i]
			break
		}
	}
	if tsvc == nil {
		return nil, fmt.Errorf("perpetualws: service %q not in topology", cfg.Service)
	}
	var trep *TopologyReplica
	for i := range tsvc.Replicas {
		if tsvc.Replicas[i].Index == cfg.Index {
			trep = &tsvc.Replicas[i]
			break
		}
	}
	if trep == nil {
		return nil, fmt.Errorf("perpetualws: replica %d of %q not in topology", cfg.Index, cfg.Service)
	}

	master, err := cfg.Topology.MasterSecret()
	if err != nil {
		return nil, err
	}
	registry := cfg.Topology.Registry()
	book := cfg.Topology.AddressBook()
	voterID := auth.VoterID(cfg.Service, cfg.Index)
	driverID := auth.DriverID(cfg.Service, cfg.Index)
	principals := registry.AllPrincipals()

	voterConn, err := transport.ListenTCP(voterID, trep.Voter, book)
	if err != nil {
		return nil, err
	}
	driverConn, err := transport.ListenTCP(driverID, trep.Driver, book)
	if err != nil {
		voterConn.Close()
		return nil, err
	}

	replica, err := perpetual.NewReplica(perpetual.ReplicaConfig{
		Service:    cfg.Service,
		Index:      cfg.Index,
		Registry:   registry,
		VoterConn:  voterConn,
		DriverConn: driverConn,
		VoterKeys:  auth.NewDerivedKeyStore(master, voterID, principals),
		DriverKeys: auth.NewDerivedKeyStore(master, driverID, principals),
		Options:    cfg.Options,
	})
	if err != nil {
		voterConn.Close()
		driverConn.Close()
		return nil, err
	}

	node := NewNode(replica, nodeOptions(cfg.App, cfg.Options)...)

	replica.Start()
	node.Start()
	return &TCPNode{Node: node, replica: replica, voterC: voterConn, driverC: driverConn}, nil
}

// Stop shuts the node and its replica down.
func (n *TCPNode) Stop() {
	n.Node.Stop()
	n.replica.Stop()
}

// TransportStats returns the node's adapter-level traffic counters
// (what the protocol sent/received, per message kind).
func (n *TCPNode) TransportStats() transport.StatsSnapshot {
	return n.replica.TransportStats()
}

// NetStats returns the node's wire-level TCP counters across its voter
// and driver endpoints: frames/bytes on the sockets, link-local queue
// drops, redials, severed links. The gap between TransportStats and
// NetStats is where Byzantine-slow peers show up.
func (n *TCPNode) NetStats() transport.TCPStatsSnapshot {
	s := n.voterC.NetStats()
	s.Add(n.driverC.NetStats())
	return s
}
