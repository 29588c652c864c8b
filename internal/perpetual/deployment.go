package perpetual

import (
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"perpetualws/internal/auth"
	"perpetualws/internal/transport"
)

// ServiceOptions tunes one service's replicas within a Deployment.
type ServiceOptions struct {
	CheckpointInterval uint64
	ViewChangeTimeout  time.Duration
	RetransmitInterval time.Duration
	// ReadFallback tunes the drivers' read fast-path window; zero uses
	// DefaultReadFallback.
	ReadFallback time.Duration
	// MaxBatch enables CLBFT request batching (>1) for the service's
	// voter group.
	MaxBatch int
	// CommitFlushDelay tunes the piggybacked-commit idle heartbeat; zero
	// uses the clbft default.
	CommitFlushDelay time.Duration
	// MaxIntake / MaxProposerQueue bound the voters' request admission
	// (intake table and CLBFT pending backlog respectively); zero
	// disables each bound. RetryAfterHint tunes the backoff hint busy
	// replies carry. See ReplicaConfig and overload.go.
	MaxIntake        int
	MaxProposerQueue int
	RetryAfterHint   time.Duration
	// MaxOutstanding caps each driver's in-flight calls and reads per
	// target group (client-edge admission); zero disables. See
	// ReplicaConfig.MaxOutstanding.
	MaxOutstanding int
	// Behaviors optionally assigns Byzantine behaviors to replica
	// indices.
	Behaviors map[int]Behavior
	Logger    *log.Logger
}

// TransportKind selects the Connection implementation a Deployment
// wires its replicas over.
type TransportKind int

// Deployment transports.
const (
	// TransportMem is the in-process memnet Network (default): fastest,
	// with injectable latency/loss/partitions for tests.
	TransportMem TransportKind = iota
	// TransportTCP gives every principal a real TCP listener on a
	// loopback ephemeral port, exercising the production wire path
	// (framing, per-link queues, dial/redial) inside one process. It is
	// the single-machine form of the paper's SSL/TCP testbed deployment
	// and what the TCP Figure-7 benchmark runs over.
	TransportTCP
)

// Deployment hosts an in-process Perpetual universe: every replica of
// every service on one shared transport (memnet by default, loopback
// TCP with NewDeploymentOver), with pairwise MAC keys derived from a
// deployment master secret. It is the programmatic analogue of the
// paper's testbed plus replicas.xml, used by tests, benchmarks, and
// examples; multi-host deployments assemble Replicas via
// core.StartTCPNode instead.
type Deployment struct {
	Registry *Registry
	Network  *transport.Network

	master []byte
	kind   TransportKind
	book   *transport.AddressBook
	// mu guards replicas, tcpConns, and started: before live resharding
	// the replica map was immutable after Build, but ProvisionShards and
	// RetireShards now mutate it while accessor goroutines (stats
	// polling, tests) read it.
	mu       sync.RWMutex
	replicas map[string][]*Replica
	tcpConns map[auth.NodeID]*transport.TCPConn
	options  map[string]ServiceOptions
	started  bool

	// memMu guards the membership-install bookkeeping (see
	// deployment_membership.go): the install dedup map, rotation
	// timestamps, and per-epoch completion signals.
	memMu        sync.Mutex
	memInstalled map[string]uint64
	lastRotation map[string]time.Time
	memDone      map[string]chan struct{}
}

// NewDeployment creates a deployment over a fresh in-process network.
// All services must be declared up front so every principal's key store
// covers the whole universe.
func NewDeployment(master []byte, services ...ServiceInfo) *Deployment {
	return NewDeploymentOver(master, TransportMem, services...)
}

// NewDeploymentOver creates a deployment over the chosen transport.
// The memnet Network is always constructed (SetLinkLatency etc. stay
// callable) but carries traffic only under TransportMem.
func NewDeploymentOver(master []byte, kind TransportKind, services ...ServiceInfo) *Deployment {
	return &Deployment{
		Registry:     NewRegistry(services...),
		Network:      transport.NewNetwork(),
		master:       master,
		kind:         kind,
		book:         transport.NewAddressBook(),
		replicas:     make(map[string][]*Replica),
		tcpConns:     make(map[auth.NodeID]*transport.TCPConn),
		options:      make(map[string]ServiceOptions),
		memInstalled: make(map[string]uint64),
		lastRotation: make(map[string]time.Time),
		memDone:      make(map[string]chan struct{}),
	}
}

// newConn creates the transport endpoint of one principal per the
// deployment's transport kind.
func (d *Deployment) newConn(id auth.NodeID) (transport.Connection, error) {
	if d.kind != TransportTCP {
		return d.Network.Port(id), nil
	}
	conn, err := transport.ListenTCP(id, "127.0.0.1:0", d.book)
	if err != nil {
		return nil, err
	}
	d.book.Set(id, conn.Addr())
	d.mu.Lock()
	d.tcpConns[id] = conn
	d.mu.Unlock()
	return conn, nil
}

// Configure sets per-service options; call before Build.
func (d *Deployment) Configure(service string, opts ServiceOptions) {
	d.options[service] = opts
}

// Build assembles every replica of every registered service: for a
// sharded service, one full replica group per shard. Per-service options
// (including Behaviors) apply to each of its shard groups identically.
func (d *Deployment) Build() error {
	principals := d.Registry.AllPrincipals()
	for _, svc := range d.Registry.Services() {
		if err := validateServiceName(svc.Name); err != nil {
			return err
		}
		opts := d.options[svc.Name]
		for k := 0; k < svc.ShardCount(); k++ {
			g := svc.Shard(k)
			group, err := d.buildGroup(g, opts, principals)
			if err != nil {
				return err
			}
			d.mu.Lock()
			d.replicas[g.Name] = group
			d.mu.Unlock()
		}
	}
	return nil
}

// buildGroup assembles one concrete replica group.
func (d *Deployment) buildGroup(g ServiceInfo, opts ServiceOptions, principals []auth.NodeID) ([]*Replica, error) {
	group := make([]*Replica, g.N)
	for i := 0; i < g.N; i++ {
		voterID := auth.VoterID(g.Name, i)
		driverID := auth.DriverID(g.Name, i)
		voterConn, err := d.newConn(voterID)
		if err != nil {
			return nil, fmt.Errorf("perpetual: transport for %s: %w", voterID, err)
		}
		driverConn, err := d.newConn(driverID)
		if err != nil {
			_ = voterConn.Close()
			return nil, fmt.Errorf("perpetual: transport for %s: %w", driverID, err)
		}
		cfg := ReplicaConfig{
			Service:            g.Name,
			Index:              i,
			Registry:           d.Registry,
			VoterConn:          voterConn,
			DriverConn:         driverConn,
			VoterKeys:          auth.NewDerivedKeyStore(d.master, voterID, principals),
			DriverKeys:         auth.NewDerivedKeyStore(d.master, driverID, principals),
			CheckpointInterval: opts.CheckpointInterval,
			ViewChangeTimeout:  opts.ViewChangeTimeout,
			RetransmitInterval: opts.RetransmitInterval,
			ReadFallback:       opts.ReadFallback,
			MaxBatch:           opts.MaxBatch,
			CommitFlushDelay:   opts.CommitFlushDelay,
			MaxIntake:          opts.MaxIntake,
			MaxProposerQueue:   opts.MaxProposerQueue,
			RetryAfterHint:     opts.RetryAfterHint,
			MaxOutstanding:     opts.MaxOutstanding,
			Logger:             opts.Logger,
			MembershipHook:     d.onMembership,
		}
		if epoch, _ := d.Registry.GroupMembership(g.Name); epoch > 0 {
			cfg.MembershipEpoch = epoch
		}
		if opts.Behaviors != nil {
			cfg.Behavior = opts.Behaviors[i]
		}
		r, err := NewReplica(cfg)
		if err != nil {
			return nil, fmt.Errorf("perpetual: building %s/%d: %w", g.Name, i, err)
		}
		group[i] = r
	}
	return group, nil
}

// ProvisionShards materializes the replica groups a reshard to n shards
// needs before Driver.Reshard can run: it registers the transitional
// shard-group namespace, derives pairwise keys between every existing
// principal and the joining groups' principals, builds the new groups
// (with the service's configured options), and starts them if the
// deployment is running. Growing from the current deployed count builds
// groups [cur, n); shrinking needs no new groups (the old ones stay
// addressable until the reshard retires them). Idempotent.
func (d *Deployment) ProvisionShards(service string, n int) error {
	svc, err := d.Registry.Lookup(service)
	if err != nil {
		return err
	}
	if !svc.IsSharded() || n < 2 {
		return fmt.Errorf("perpetual: ProvisionShards needs a sharded service and n >= 2 (have %d -> %d)", svc.ShardCount(), n)
	}
	cur := d.Registry.DeployedShards(service)
	if n <= cur {
		d.Registry.SetDeployedShards(service, max(n, svc.ShardCount()))
		return nil
	}
	var joining []auth.NodeID
	for k := cur; k < n; k++ {
		g := svc.Shard(k)
		joining = append(joining, g.VoterIDs()...)
		joining = append(joining, g.DriverIDs()...)
	}
	// Existing replicas learn the joining principals' keys; the joining
	// replicas' key stores are derived over the full (post-grow)
	// principal set.
	d.mu.RLock()
	existing := make([]*Replica, 0, len(d.replicas))
	for _, group := range d.replicas {
		existing = append(existing, group...)
	}
	d.mu.RUnlock()
	for _, r := range existing {
		r.provisionPeers(d.master, joining)
	}
	d.Registry.SetDeployedShards(service, n)
	principals := d.Registry.AllPrincipals()
	opts := d.options[service]
	// Byzantine behaviors configured for the base service apply to built
	// groups only at Build time; joining groups start correct (grow-time
	// fault injection would make every reshard test implicitly faulty).
	opts.Behaviors = nil
	for k := cur; k < n; k++ {
		g := svc.Shard(k)
		d.mu.Lock()
		if _, exists := d.replicas[g.Name]; exists {
			d.mu.Unlock()
			continue
		}
		d.mu.Unlock()
		group, err := d.buildGroup(g, opts, principals)
		if err != nil {
			return err
		}
		d.mu.Lock()
		d.replicas[g.Name] = group
		start := d.started
		d.mu.Unlock()
		if start {
			for _, r := range group {
				r.Start()
			}
		}
	}
	return nil
}

// RetireShards stops and removes the replica groups of shards [n, ...)
// of a service — the groups a completed shrink reshard drained. Call
// only after Driver.Reshard returned successfully.
func (d *Deployment) RetireShards(service string, n int) {
	svc, err := d.Registry.Lookup(service)
	if err != nil {
		return
	}
	for k := n; ; k++ {
		g := svc.Shard(k)
		d.mu.Lock()
		group, ok := d.replicas[g.Name]
		delete(d.replicas, g.Name)
		d.mu.Unlock()
		if !ok {
			break
		}
		for _, r := range group {
			r.Stop()
		}
	}
	d.Registry.EndReshard(service)
}

// Start launches every replica.
func (d *Deployment) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		return
	}
	d.started = true
	for _, group := range d.replicas {
		for _, r := range group {
			r.Start()
		}
	}
}

// Stop shuts every replica down and closes the network. Under
// TransportTCP the replicas' adapters own (and close) their TCP
// connections; closing the remainder here covers conns built but never
// wrapped by a started replica.
func (d *Deployment) Stop() {
	d.mu.Lock()
	for _, group := range d.replicas {
		for _, r := range group {
			r.Stop()
		}
	}
	conns := make([]*transport.TCPConn, 0, len(d.tcpConns))
	for _, c := range d.tcpConns {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	_ = d.Network.Close()
}

// NetStats aggregates the wire-level counters of every TCP endpoint in
// the deployment (zero under TransportMem): queued/flushed frames and
// bytes, link-local drops, redials. The adapter-level TransportStats
// counts what the protocol sent; NetStats counts what actually hit the
// sockets, so a Byzantine-slow peer shows up as the gap between them.
func (d *Deployment) NetStats() transport.TCPStatsSnapshot {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var total transport.TCPStatsSnapshot
	for _, c := range d.tcpConns {
		total.Add(c.NetStats())
	}
	return total
}

// OverloadStats aggregates the voter-side admission counters of every
// replica of a service (all shard groups included) — the group-level
// accounting the overload sweep tests assert against: offered =
// admitted + shed + expired.
func (d *Deployment) OverloadStats(service string) OverloadStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var total OverloadStats
	for name, group := range d.replicas {
		if name != service && !strings.HasPrefix(name, service+"#") {
			continue
		}
		for _, r := range group {
			s := r.OverloadStats()
			total.ShedIntake += s.ShedIntake
			total.ShedProposer += s.ShedProposer
			total.ShedReads += s.ShedReads
			total.ExpiredDrops += s.ExpiredDrops
			total.SuppressedReplies += s.SuppressedReplies
		}
	}
	return total
}

// Replicas returns the replica group of a service (or of one shard
// group, when addressed by its "name#k" wire name). For the parent name
// of a sharded service use ShardReplicas.
func (d *Deployment) Replicas(service string) []*Replica {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.replicas[service]
}

// ShardReplicas returns the replica group of shard k of a service. For
// an unsharded service, shard 0 is the service's only group. During a
// reshard, transitional groups beyond the routing table's shard count
// (joining or draining) are addressable too.
func (d *Deployment) ShardReplicas(service string, k int) []*Replica {
	svc, err := d.Registry.Lookup(service)
	if err != nil || k < 0 || k >= d.Registry.DeployedShards(service) {
		return nil
	}
	return d.Replicas(svc.Shard(k).Name)
}

// ShardDrivers returns all drivers of shard k of a service.
func (d *Deployment) ShardDrivers(service string, k int) []*Driver {
	group := d.ShardReplicas(service, k)
	out := make([]*Driver, len(group))
	for i, r := range group {
		out[i] = r.Driver()
	}
	return out
}

// TransportStats aggregates the traffic counters of every replica of
// every group in the deployment, per-message-kind breakdown included —
// the whole-deployment view the bandwidth ablations and the bench
// harness report.
func (d *Deployment) TransportStats() transport.StatsSnapshot {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var total transport.StatsSnapshot
	for _, group := range d.replicas {
		for _, r := range group {
			total.Add(r.TransportStats())
		}
	}
	return total
}

// Driver returns the driver of replica i of a service.
func (d *Deployment) Driver(service string, i int) *Driver {
	group := d.Replicas(service)
	if i < 0 || i >= len(group) {
		return nil
	}
	return group[i].Driver()
}

// Drivers returns all drivers of a service.
func (d *Deployment) Drivers(service string) []*Driver {
	group := d.Replicas(service)
	out := make([]*Driver, len(group))
	for i, r := range group {
		out[i] = r.Driver()
	}
	return out
}
