package perpetual

import (
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"perpetualws/internal/auth"
	"perpetualws/internal/clbft"
	"perpetualws/internal/transport"
)

// ServiceOptions is a service's one tuning struct. It travels whole
// from the deployment edge (core.ServiceDef, core.TCPNodeConfig,
// Deployment.Configure) through ReplicaConfig to the voter group's
// clbft.Config, and every field's zero value selects the default its
// comment names.
type ServiceOptions struct {
	// CheckpointInterval is the number of executed operations between
	// CLBFT checkpoints; the log window is twice it. Zero uses
	// clbft.DefaultCheckpointInterval (64).
	CheckpointInterval uint64
	// ViewChangeTimeout is how long a voter waits for a submitted
	// operation to execute before suspecting the primary. Zero uses
	// clbft.DefaultViewChangeTimeout (500 ms).
	ViewChangeTimeout time.Duration
	// RetransmitInterval is the base of the driver's request
	// retransmission backoff. Zero uses DefaultRetransmitInterval (1 s).
	RetransmitInterval time.Duration
	// MaxBatch lets the CLBFT primary order up to this many operations
	// under one sequence number. Zero or one disables batching.
	MaxBatch int
	// MaxIntake bounds the voter's intake table (distinct requests
	// collecting admission votes); past it, requests are shed
	// eldest-first with busy replies, and fast-path reads shed at half
	// of it. Zero uses reqTableSize (8192) and sheds no reads on intake.
	// See overload.go.
	MaxIntake int
	// MaxProposerQueue bounds the CLBFT pending backlog a new proposal
	// may join; at the bound the proposal is deferred with a busy reply.
	// Zero disables the bound.
	MaxProposerQueue int
	// RetryAfterHint is the backoff hint the voter's busy replies carry.
	// Zero uses DefaultRetryAfterHint (25 ms).
	RetryAfterHint time.Duration
	// MaxOutstanding caps each driver's in-flight calls and fast-path
	// reads per target group; past it a call fails fast with the
	// RETRY-AFTER fault without sending anything. Zero disables the cap.
	MaxOutstanding int
	// Behaviors injects Byzantine faults by replica index (tests and
	// demos). Only the groups Build assembles take them; membership
	// joiners start correct. Nil means every replica is correct.
	Behaviors map[int]Behavior
	// Logger receives replica, node and deployment diagnostics. Nil
	// discards them.
	Logger *log.Logger
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
	// mu guards replicas, tcpConns, and started: membership installs
	// replace replicas while accessor goroutines (stats polling, tests)
	// read them.
	mu       sync.RWMutex
	replicas map[string][]*Replica
	tcpConns map[auth.NodeID]*transport.TCPConn
	options  map[string]ServiceOptions
	started  bool

	// memMu guards the membership-install bookkeeping (see
	// deployment_membership.go): each group's installed epoch (which
	// also dedups installs), rotation timestamps, and per-epoch
	// completion signals.
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
	for i := range group {
		r, err := d.newReplica(g.Name, i, opts, principals, 0, nil)
		if err != nil {
			return nil, err
		}
		group[i] = r
	}
	return group, nil
}

// newReplica builds replica i of a group: its voter and driver
// connections, their key stores derived from the master secret over
// principals, then the replica under opts (Behaviors included). A
// membership joiner passes the bootstrap it starts from; a fresh group
// passes nil.
func (d *Deployment) newReplica(group string, i int, opts ServiceOptions, principals []auth.NodeID, epoch uint64, bs *clbft.Bootstrap) (*Replica, error) {
	voterID := auth.VoterID(group, i)
	driverID := auth.DriverID(group, i)
	voterConn, err := d.newConn(voterID)
	if err != nil {
		return nil, fmt.Errorf("perpetual: transport for %s: %w", voterID, err)
	}
	driverConn, err := d.newConn(driverID)
	if err != nil {
		_ = voterConn.Close()
		return nil, fmt.Errorf("perpetual: transport for %s: %w", driverID, err)
	}
	r, err := NewReplica(ReplicaConfig{
		Service:         group,
		Index:           i,
		Registry:        d.Registry,
		VoterConn:       voterConn,
		DriverConn:      driverConn,
		VoterKeys:       auth.NewDerivedKeyStore(d.master, voterID, principals),
		DriverKeys:      auth.NewDerivedKeyStore(d.master, driverID, principals),
		Options:         opts,
		Bootstrap:       bs,
		MembershipEpoch: epoch,
		MembershipHook:  d.onMembership,
	})
	if err != nil {
		return nil, fmt.Errorf("perpetual: building %s/%d: %w", group, i, err)
	}
	return r, nil
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
// an unsharded service, shard 0 is the service's only group.
func (d *Deployment) ShardReplicas(service string, k int) []*Replica {
	svc, err := d.Registry.Lookup(service)
	if err != nil || k < 0 || k >= svc.ShardCount() {
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
