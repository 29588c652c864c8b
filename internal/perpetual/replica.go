package perpetual

import (
	"fmt"
	"sync/atomic"

	"perpetualws/internal/auth"
	"perpetualws/internal/clbft"
	"perpetualws/internal/transport"
)

// ReplicaConfig assembles one replica (voter + driver) of a service.
type ReplicaConfig struct {
	// Service names this replica's service; it must be registered in
	// Registry.
	Service string
	// Index is the replica index, 0 <= Index < N.
	Index int
	// Registry is the deployment's service directory.
	Registry *Registry
	// VoterConn and DriverConn are the transport endpoints of the two
	// co-located principals.
	VoterConn  transport.Connection
	DriverConn transport.Connection
	// VoterKeys and DriverKeys hold the principals' pairwise MAC keys.
	VoterKeys  *auth.KeyStore
	DriverKeys *auth.KeyStore
	// Options tunes the replica; NewReplica installs
	// Options.Behaviors[Index], if any.
	Options ServiceOptions
	// Bootstrap resumes (or joins) the voter's CLBFT instance from a
	// membership-boundary snapshot instead of a fresh log (see
	// clbft.NewFromBootstrap). Nil starts from sequence 0.
	Bootstrap *clbft.Bootstrap
	// MembershipEpoch is the group's installed membership epoch this
	// replica starts under (0 for the original roster); it must match
	// the epoch the replica's voter keys were derived for.
	MembershipEpoch uint64
	// MembershipHook is the deployment's membership installer: called
	// once per agreed membership change after its install barrier
	// commits. Replicas without a hook refuse OpMembership in agreement
	// validation.
	MembershipHook func(mc *MembershipChange, seq uint64, state clbft.Digest)
}

// Replica is one member of a replicated Perpetual service: a co-located
// voter and driver pair sharing a host.
type Replica struct {
	svc    ServiceInfo
	index  int
	voter  *voter
	driver *Driver

	voterKeys  *auth.KeyStore
	driverKeys *auth.KeyStore

	voterAdapter  *transport.ChannelAdapter
	driverAdapter *transport.ChannelAdapter

	// bftBase is the CLBFT configuration a membership install rebuilds
	// the voter's instance from.
	bftBase clbft.Config
	// stopped makes Stop idempotent: a crash-killed incarnation is
	// stopped again when the membership change that replaces it installs.
	stopped atomic.Bool
}

// NewReplica assembles a replica from its configuration. Call Start to
// begin protocol processing.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	svc, err := cfg.Registry.Lookup(cfg.Service)
	if err != nil {
		return nil, err
	}
	if cfg.Index < 0 || cfg.Index >= svc.N {
		return nil, fmt.Errorf("perpetual: replica index %d outside %s group of %d", cfg.Index, svc.Name, svc.N)
	}
	if cfg.VoterConn == nil || cfg.DriverConn == nil {
		return nil, fmt.Errorf("perpetual: replica %s/%d needs voter and driver connections", svc.Name, cfg.Index)
	}

	opts := cfg.Options
	behavior := opts.Behaviors[cfg.Index]
	voterConn, driverConn := cfg.VoterConn, cfg.DriverConn
	if behavior != nil {
		voterConn = behavior.wrapVoterConn(voterConn)
		driverConn = behavior.wrapDriverConn(driverConn)
	}
	voterAdapter := transport.NewChannelAdapter(cfg.VoterKeys, voterConn)
	driverAdapter := transport.NewChannelAdapter(cfg.DriverKeys, driverConn)

	v := newVoter(svc, cfg.Index, cfg.Registry, voterAdapter, cfg.VoterKeys, opts.Logger)
	d := newDriver(svc, cfg.Index, cfg.Registry, driverAdapter, cfg.DriverKeys, v, opts.Logger)
	if opts.RetransmitInterval > 0 {
		d.retransmitInterval = opts.RetransmitInterval
	}
	d.maxOutstanding = opts.MaxOutstanding
	v.driver = d
	v.membershipHook = cfg.MembershipHook
	v.memEpoch.Store(cfg.MembershipEpoch)
	v.maxProposer = opts.MaxProposerQueue
	if opts.MaxIntake > 0 {
		v.reqs.maxIntake = opts.MaxIntake
		// Reads shed at half the write bound, so the fast path gives way
		// well before the agreement path starts refusing work.
		v.readShedAt = max(1, opts.MaxIntake/2)
	}
	if opts.RetryAfterHint > 0 {
		v.retryHint = opts.RetryAfterHint
	}

	bftCfg := clbft.Config{
		ID:                 cfg.Index,
		N:                  svc.N,
		CheckpointInterval: opts.CheckpointInterval,
		ViewChangeTimeout:  opts.ViewChangeTimeout,
		MaxBatch:           opts.MaxBatch,
		Tentative:          true,
	}
	r := &Replica{
		svc:           svc,
		index:         cfg.Index,
		voter:         v,
		driver:        d,
		voterKeys:     cfg.VoterKeys,
		driverKeys:    cfg.DriverKeys,
		voterAdapter:  voterAdapter,
		driverAdapter: driverAdapter,
		bftBase:       bftCfg,
	}
	bft, err := clbft.NewFromBootstrap(bftCfg, v.bftTransport(), v.onDeliver, cfg.Bootstrap, r.bftOptions()...)
	if err != nil {
		return nil, err
	}
	v.bftp.Store(bft)
	if behavior != nil {
		behavior.install(r)
	}
	return r, nil
}

// bftOptions assembles the CLBFT options wiring the voter's hooks; a
// membership install reuses it to rebuild the instance.
func (r *Replica) bftOptions() []clbft.Option {
	v := r.voter
	opts := []clbft.Option{
		clbft.WithValidator(v.validateOp),
		clbft.WithVerdictEpoch(v.ks.Generation),
		clbft.WithCheckpointHook(v.onStableCheckpoint),
		clbft.WithRollback(v.onRollback),
		clbft.WithBarrier(v.membershipBarrier),
		clbft.WithHaltHook(v.onHalt),
	}
	if v.logger != nil {
		opts = append(opts, clbft.WithLogger(v.logger))
	}
	return opts
}

// installMembership rebuilds this replica's voter-side CLBFT instance
// for a freshly agreed membership epoch: stop, export the snapshot at
// the install barrier, and restart under the new epoch. A member
// that had not yet executed up to the barrier (the install fires once
// any member commits it) restores its own position and catches the gap
// up from its peers before voting. It returns the exported snapshot so
// the installer can seed a joining incarnation from a surviving donor.
// Called by the deployment installer; never from the voter's own event
// loop (Stop would deadlock).
func (r *Replica) installMembership(mc *MembershipChange, seq uint64, state clbft.Digest) (*clbft.Bootstrap, error) {
	old := r.voter.bft()
	old.Stop()
	bs := old.ExportBootstrap()
	if bs == nil {
		return nil, fmt.Errorf("perpetual: %s/%d: bootstrap export from running instance", r.svc.Name, r.index)
	}
	if bs.Seq < seq {
		bs.CatchUpSeq = seq
		bs.CatchUpDigest = state
	}
	bs.InitialView = mc.InitialView(r.svc.N)
	nb, err := clbft.NewFromBootstrap(r.bftBase, r.voter.bftTransport(), r.voter.onDeliver, bs, r.bftOptions()...)
	if err != nil {
		return nil, err
	}
	r.voter.adoptEpoch(mc.NewEpoch)
	r.voter.bftp.Store(nb)
	nb.Start()
	return bs, nil
}

// rotateEpochKeys re-derives, in this replica's key stores, every
// pairwise MAC key involving a voter of the changed group (both its own
// principals' keys toward those voters and — when this replica IS one
// of those voters — its keys toward everyone else). Pairwise derivation
// is symmetric, so running this at every replica of the deployment
// converges both ends of each affected pair.
func (r *Replica) rotateEpochKeys(master []byte, group string, epoch uint64, all []auth.NodeID) {
	isGroupVoter := func(id auth.NodeID) bool {
		return id.Service == group && id.Role == auth.RoleVoter
	}
	selfV, selfD := r.voterKeys.Self(), r.driverKeys.Self()
	selfInGroup := isGroupVoter(selfV)
	for _, p := range all {
		if p != selfV && (selfInGroup || isGroupVoter(p)) {
			r.voterKeys.SetKey(p, auth.DeriveEpochKey(master, epoch, selfV, p))
		}
		if p != selfD && isGroupVoter(p) {
			r.driverKeys.SetKey(p, auth.DeriveEpochKey(master, epoch, selfD, p))
		}
	}
}

// Start wires transport handlers and launches the voter group member.
func (r *Replica) Start() {
	r.voter.startLane()
	r.voterAdapter.SetHandler(r.voter.handleTransport)
	r.driverAdapter.SetHandler(r.driver.handleTransport)
	r.voter.bft().Start()
}

// Stop shuts the replica down. Idempotent.
func (r *Replica) Stop() {
	if r.stopped.Swap(true) {
		return
	}
	r.driver.close()
	r.voter.stopLane()
	r.voter.closeReads()
	r.voter.bft().Stop()
	_ = r.voterAdapter.Close()
	_ = r.driverAdapter.Close()
}

// Driver returns the application-facing driver API.
func (r *Replica) Driver() *Driver { return r.driver }

// SetReadExecutor installs the application's speculative read executor:
// a function that evaluates a declared-read operation against the
// replica's current local state without mutating it. Once installed,
// this replica answers session-tier fast-path reads (see
// Request.Read) with digest endorsements stamped by the agreement
// sequence the observed state reflects; replicas without an executor
// decline with Behind, shrinking the fast-path quorum. The executor
// runs on transport goroutines concurrently with the agreement
// executor, so it must synchronize with the application state it reads.
func (r *Replica) SetReadExecutor(fn func([]byte) ([]byte, error)) {
	r.voter.setReadExec(fn)
}

// AgreedSeq returns the agreement sequence of the last operation this
// replica's voter group delivered locally (the CLBFT log horizon local
// delivery has reached, including tentative deliveries; diagnostic).
func (r *Replica) AgreedSeq() uint64 { return r.voter.bft().LastExecutedSeq() }

// CommittedSeq returns the agreement sequence through which this
// replica's voter holds commit certificates — the stable horizon behind
// (or at) AgreedSeq. Deliveries above it are tentative and endorse
// replies at the tentative tier (diagnostic).
func (r *Replica) CommittedSeq() uint64 { return r.voter.bft().CommittedSeq() }

// TentativeExecs returns how many operations this replica's voter
// executed tentatively, ahead of their commit certificates (diagnostic).
func (r *Replica) TentativeExecs() uint64 { return r.voter.bft().TentativeExecs() }

// Rollbacks returns how many tentative executions were revoked by view
// changes at this replica's voter (diagnostic).
func (r *Replica) Rollbacks() uint64 { return r.voter.bft().Rollbacks() }

// PiggybackedCommits returns how many of this voter's commit votes rode
// a pre-prepare or prepare frame instead of paying their own
// (diagnostic; the frames-per-request reduction is proportional).
func (r *Replica) PiggybackedCommits() uint64 { return r.voter.bft().PiggybackedCommits() }

// MembershipEpoch returns the voter group's installed membership epoch
// as this replica knows it (diagnostic / operator surface).
func (r *Replica) MembershipEpoch() uint64 { return r.voter.memEpoch.Load() }

// OverloadStats returns this replica's voter-side admission counters:
// every request or read the voter refused (or whose reply send it
// suppressed) is in exactly one bucket (diagnostic / bench surface).
func (r *Replica) OverloadStats() OverloadStats {
	return OverloadStats{
		ShedIntake:        r.voter.reqs.shedIntake.Load(),
		ShedProposer:      r.voter.reqs.shedProposer.Load(),
		ShedReads:         r.voter.shedReads.Load(),
		ExpiredDrops:      r.voter.reqs.expiredDrops.Load(),
		SuppressedReplies: r.voter.reqs.replySuppress.Load(),
	}
}

// CatchUpTarget returns the agreement sequence this replica must replay
// to before its voter votes — nonzero while a joining or lagging
// incarnation is still fetching history (diagnostic).
func (r *Replica) CatchUpTarget() uint64 { return r.voter.bft().JoinTarget() }

// HaltedSeq returns the membership-barrier sequence the voter's
// execution is halted at, or 0 when not halted (diagnostic).
func (r *Replica) HaltedSeq() uint64 { return r.voter.bft().HaltedAt() }

// Service returns the replica's service descriptor.
func (r *Replica) Service() ServiceInfo { return r.svc }

// Index returns the replica's index within its group.
func (r *Replica) Index() int { return r.index }

// VoterView returns the voter group view this replica is in
// (diagnostic).
func (r *Replica) VoterView() uint64 { return r.voter.bft().View() }

// AgreementCount returns the number of operations this replica's voter
// has delivered (diagnostic).
func (r *Replica) AgreementCount() uint64 { return r.voter.bft().Executed() }

// StableCheckpointSeq returns the agreement sequence of the voter
// group's last stable (quorum-certified, locally executed) checkpoint,
// as observed by this replica via the CLBFT checkpoint hook
// (diagnostic: the membership soak waits for it to be nonzero, so its
// replacements join a group that has already checkpointed).
func (r *Replica) StableCheckpointSeq() uint64 { return r.voter.stableCkpt.Load() }

// TransportStats returns the combined traffic counters of the replica's
// voter and driver adapters (diagnostics and per-request message
// counts), including the per-message-kind breakdown.
func (r *Replica) TransportStats() transport.StatsSnapshot {
	s := r.voterAdapter.Stats()
	s.Add(r.driverAdapter.Stats())
	return s
}

// VoterStats returns the voter adapter's traffic counters alone, so
// tests can assert bandwidth properties of voter-to-voter protocol
// stages (reply shares, BFT traffic) without driver noise.
func (r *Replica) VoterStats() transport.StatsSnapshot { return r.voterAdapter.Stats() }
