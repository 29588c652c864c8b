package core

import (
	"fmt"
	"sync"
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
	// Epoch seeds the service's routing-table epoch (normally 0). Every
	// completed Cluster.Reshard increments it; clients observing a
	// RETRY-AT-EPOCH fault re-resolve their key against the flipped
	// table.
	Epoch uint64
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
	dep  *perpetual.Deployment
	defs map[string]ServiceDef
	// mu guards nodes: Reshard/RetireShards mutate the map while the
	// cluster serves traffic (accessors read it concurrently).
	mu    sync.RWMutex
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
		infos = append(infos, perpetual.ServiceInfo{Name: d.Name, N: d.N, Shards: d.Shards, Epoch: d.Epoch})
	}
	dep := perpetual.NewDeploymentOver(master, kind, infos...)
	c := &Cluster{
		dep:   dep,
		defs:  make(map[string]ServiceDef, len(defs)),
		nodes: make(map[string][]*Node),
	}
	for _, d := range defs {
		c.defs[d.Name] = d
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
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, group := range c.nodes {
		for _, n := range group {
			n.Start()
		}
	}
}

// Stop shuts the cluster down.
func (c *Cluster) Stop() {
	c.mu.RLock()
	for _, group := range c.nodes {
		for _, n := range group {
			n.Stop()
		}
	}
	c.mu.RUnlock()
	c.dep.Stop()
}

// Node returns replica i of a service.
func (c *Cluster) Node(service string, i int) *Node {
	c.mu.RLock()
	group := c.nodes[service]
	c.mu.RUnlock()
	if i < 0 || i >= len(group) {
		return nil
	}
	return group[i]
}

// Nodes returns all replicas of a service.
func (c *Cluster) Nodes(service string) []*Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[service]
}

// ShardNode returns replica i of shard k of a service; for an unsharded
// service, shard 0 is its only group. Transitional reshard groups are
// addressable like ShardReplicas.
func (c *Cluster) ShardNode(service string, k, i int) *Node {
	info, err := c.dep.Registry.Lookup(service)
	if err != nil || k < 0 || k >= c.dep.Registry.DeployedShards(service) {
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

// Reshard live-migrates a sharded service to newShards voter groups
// while the cluster serves traffic: it provisions the joining replica
// groups (each running the service's App), then drives the BFT state
// handoff (perpetual.Driver.Reshard) from every replica of the named
// coordinator service concurrently — a replicated coordinator's
// replicas must all drive the protocol for its requests to accumulate
// f_c+1 matching copies.
//
// A nil result means the migration did not happen (the epoch never
// flipped). A non-nil result with a non-nil error reports a completed
// migration whose drop phase partially failed — benign: the affected
// source retains dead state until it processes the retransmitted drop.
// After a shrink, the drained groups stay up answering RETRY-AT-EPOCH
// for stragglers routed under the old epoch; retire them with
// RetireShards once in-flight traffic has drained.
//
// The coordinator must be an idle-executor service (typically an
// unreplicated admin/client endpoint): Reshard issues requests through
// its drivers directly, like tests do. Applications that coordinate
// their own reshards call perpetual.Driver.Reshard from their
// deterministic executors instead.
func (c *Cluster) Reshard(service string, newShards int, coordinator string, timeoutMillis int64) (*perpetual.ReshardResult, error) {
	def, ok := c.defs[service]
	if !ok {
		return nil, fmt.Errorf("perpetualws: unknown service %q", service)
	}
	info, err := c.dep.Registry.Lookup(service)
	if err != nil {
		return nil, err
	}
	oldShards := info.ShardCount()
	if err := c.dep.ProvisionShards(service, newShards); err != nil {
		return nil, err
	}
	// Nodes (with the service's App executor) for the joining groups.
	for k := oldShards; k < newShards; k++ {
		groupName := info.Shard(k).Name
		c.mu.Lock()
		_, exists := c.nodes[groupName]
		c.mu.Unlock()
		if exists {
			continue
		}
		replicas := c.dep.Replicas(groupName)
		group := make([]*Node, len(replicas))
		for i, r := range replicas {
			group[i] = NewNode(r, nodeOptions(def.App, def.Options)...)
			group[i].Start()
		}
		c.mu.Lock()
		c.nodes[groupName] = group
		c.mu.Unlock()
	}

	drivers := c.dep.Drivers(coordinator)
	if len(drivers) == 0 {
		return nil, fmt.Errorf("perpetualws: unknown coordinator service %q", coordinator)
	}
	timeout := time.Duration(timeoutMillis) * time.Millisecond
	results := make([]*perpetual.ReshardResult, len(drivers))
	errs := make([]error, len(drivers))
	var wg sync.WaitGroup
	for i, drv := range drivers {
		i, drv := i, drv
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = drv.Reshard(service, newShards, timeout)
		}()
	}
	wg.Wait()
	// Driver.Reshard's convention: nil result = migration did not
	// happen; result + error = flipped, drop leg failed (benign).
	var res *perpetual.ReshardResult
	var firstErr error
	for i := range drivers {
		if results[i] != nil && res == nil {
			res = results[i]
		}
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
	}
	if res == nil {
		return nil, firstErr
	}
	return res, firstErr
}

// RetireShards stops and removes the node and replica groups a shrink
// reshard drained (shards beyond the current routing table). Call after
// in-flight traffic routed under the old epoch has drained: from then
// on the retired wire names stop resolving.
func (c *Cluster) RetireShards(service string) {
	info, err := c.dep.Registry.Lookup(service)
	if err != nil {
		return
	}
	cur := info.ShardCount()
	for k := cur; k < c.dep.Registry.DeployedShards(service); k++ {
		groupName := info.Shard(k).Name
		c.mu.Lock()
		group := c.nodes[groupName]
		delete(c.nodes, groupName)
		c.mu.Unlock()
		for _, n := range group {
			n.Stop()
		}
	}
	c.dep.RetireShards(service, cur)
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
