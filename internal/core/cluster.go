package core

import (
	"fmt"
	"time"

	"perpetualws/internal/perpetual"
	"perpetualws/internal/transport"
)

// ServiceDef declares one service of an in-process cluster.
type ServiceDef struct {
	// Name and N identify and size the replica group (N = 3f+1 for
	// fault tolerance f; 1 for unreplicated endpoints).
	Name string
	N    int
	// Shards deploys the service as that many independent voter groups
	// of N replicas each, with requests routed by their routing key
	// (wsengine Options.RoutingKey; payload digest by default). Each
	// shard runs its own copy of App. 0 or 1 means unsharded.
	Shards int
	// App is the executor run on every replica; nil deploys a node
	// whose MessageHandler is driven externally (clients, tests).
	App Application
	// Options tunes the underlying Perpetual replicas; its Behaviors
	// inject Byzantine faults per replica index (tests), and its Logger
	// receives replica and node diagnostics.
	Options perpetual.ServiceOptions
}

// nodeOptions are the options a node starts with: its application, if
// any, and the service's logger.
func nodeOptions(app Application, opts perpetual.ServiceOptions) []NodeOption {
	var nodeOpts []NodeOption
	if app != nil {
		nodeOpts = append(nodeOpts, WithApplication(app))
	}
	if opts.Logger != nil {
		nodeOpts = append(nodeOpts, WithNodeLogger(opts.Logger))
	}
	return nodeOpts
}

// Cluster is an in-process Perpetual-WS deployment: every replica of
// every declared service runs in this process over an in-memory
// network (or loopback TCP with NewClusterOver). It is the
// programmatic equivalent of deploying each service with replicas.xml
// on a testbed, and is what the examples, tests, and benchmarks use.
type Cluster struct {
	dep *perpetual.Deployment
	// nodes is written only while NewClusterOver builds the cluster, so
	// accessors read it without a lock.
	nodes map[string][]*Node
}

// NewCluster builds (but does not start) a cluster over the in-memory
// network.
func NewCluster(master []byte, defs ...ServiceDef) (*Cluster, error) {
	return NewClusterOver(master, perpetual.TransportMem, defs...)
}

// NewClusterOver builds (but does not start) a cluster over the chosen
// transport. perpetual.TransportTCP wires every replica over real
// loopback sockets — the single-process form of a replicas.xml TCP
// deployment, used by the TCP benchmarks and transport-integration
// tests.
func NewClusterOver(master []byte, kind perpetual.TransportKind, defs ...ServiceDef) (*Cluster, error) {
	infos := make([]perpetual.ServiceInfo, 0, len(defs))
	for _, d := range defs {
		if d.Name == "" || d.N < 1 || d.Shards < 0 {
			return nil, fmt.Errorf("perpetualws: invalid service definition %+v", d)
		}
		infos = append(infos, perpetual.ServiceInfo{Name: d.Name, N: d.N, Shards: d.Shards})
	}
	dep := perpetual.NewDeploymentOver(master, kind, infos...)
	c := &Cluster{dep: dep, nodes: make(map[string][]*Node)}
	for _, d := range defs {
		dep.Configure(d.Name, d.Options)
	}
	if err := dep.Build(); err != nil {
		return nil, err
	}
	for _, d := range defs {
		info, err := dep.Registry.Lookup(d.Name)
		if err != nil {
			return nil, err
		}
		// One node group per concrete replica group: a sharded service
		// gets a full set of nodes (each running its own App executor)
		// per shard, keyed by the shard group's wire name.
		for k := 0; k < info.ShardCount(); k++ {
			groupName := info.Shard(k).Name
			replicas := dep.Replicas(groupName)
			group := make([]*Node, len(replicas))
			for i, r := range replicas {
				group[i] = NewNode(r, nodeOptions(d.App, d.Options)...)
			}
			c.nodes[groupName] = group
		}
	}
	return c, nil
}

// SetLinkLatency delays every in-process network frame by d, modeling a
// real testbed's one-way link latency (the paper's cluster reported
// 78 microsecond pairwise RTTs). Call before Start.
func (c *Cluster) SetLinkLatency(d time.Duration) {
	c.dep.Network.SetUniformLatency(d)
}

// Start launches every replica and node.
func (c *Cluster) Start() {
	c.dep.Start()
	for _, group := range c.nodes {
		for _, n := range group {
			n.Start()
		}
	}
}

// Stop shuts the cluster down.
func (c *Cluster) Stop() {
	for _, group := range c.nodes {
		for _, n := range group {
			n.Stop()
		}
	}
	c.dep.Stop()
}

// Node returns replica i of a service.
func (c *Cluster) Node(service string, i int) *Node {
	group := c.nodes[service]
	if i < 0 || i >= len(group) {
		return nil
	}
	return group[i]
}

// Nodes returns all replicas of a service.
func (c *Cluster) Nodes(service string) []*Node {
	return c.nodes[service]
}

// ShardNode returns replica i of shard k of a service; for an unsharded
// service, shard 0 is its only group.
func (c *Cluster) ShardNode(service string, k, i int) *Node {
	info, err := c.dep.Registry.Lookup(service)
	if err != nil || k < 0 || k >= info.ShardCount() {
		return nil
	}
	return c.Node(info.Shard(k).Name, i)
}

// ShardHandler returns the MessageHandler of replica i of shard k of a
// service.
func (c *Cluster) ShardHandler(service string, k, i int) MessageHandler {
	n := c.ShardNode(service, k, i)
	if n == nil {
		return nil
	}
	return n.Handler()
}

// Handler returns the MessageHandler of replica i of a service, the
// usual way tests and clients drive an App-less node.
func (c *Cluster) Handler(service string, i int) MessageHandler {
	n := c.Node(service, i)
	if n == nil {
		return nil
	}
	return n.Handler()
}

// Deployment exposes the underlying Perpetual deployment (diagnostics
// and fault injection in tests).
func (c *Cluster) Deployment() *perpetual.Deployment { return c.dep }

// TransportStats aggregates the traffic counters of every replica in
// the cluster, including the per-message-kind breakdown — what the
// bandwidth ablations and the bench harness report against.
func (c *Cluster) TransportStats() transport.StatsSnapshot {
	return c.dep.TransportStats()
}

// NetStats aggregates the wire-level TCP counters of every endpoint in
// the cluster (zero over the in-memory network): frames/bytes on the
// sockets, link-local queue drops, redials.
func (c *Cluster) NetStats() transport.TCPStatsSnapshot {
	return c.dep.NetStats()
}
