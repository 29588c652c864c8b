package perpetual

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"perpetualws/internal/auth"
)

// ServiceInfo describes one replicated service known to the deployment.
type ServiceInfo struct {
	// Name uniquely identifies the service across the deployment. Names
	// must not contain "#", which is reserved for shard group names.
	Name string
	// N is the replica count; tolerating f faults requires N = 3f+1.
	// Unreplicated endpoints use N = 1.
	N int
	// Shards splits the service into that many independent voter groups
	// of N replicas each, with requests routed to exactly one shard by a
	// deterministic hash of their routing key (see ShardFor). 0 or 1
	// deploys the paper's single-group configuration. Each shard
	// individually tolerates f = (N-1)/3 Byzantine replicas.
	Shards int
}

// F returns the number of faults the service (each shard, if sharded)
// tolerates.
func (s ServiceInfo) F() int { return (s.N - 1) / 3 }

// Quorum returns the group's agreement quorum size (2f+1 for the
// canonical N = 3f+1), mirroring clbft.Config.Quorum. A reply backed by
// this many endorsements — even tentative ones — is guaranteed to
// survive any view change of the target group (see VerifyBundle).
func (s ServiceInfo) Quorum() int { return (s.N+s.F())/2 + 1 }

// IsSharded reports whether the service deploys more than one voter
// group.
func (s ServiceInfo) IsSharded() bool { return s.Shards > 1 }

// ShardCount returns the number of voter groups the service deploys.
func (s ServiceInfo) ShardCount() int {
	if s.Shards > 1 {
		return s.Shards
	}
	return 1
}

// Shard returns the concrete group descriptor of shard k: the
// ServiceInfo under which the shard's replicas are deployed and
// addressed. An unsharded service is its own (only) shard.
func (s ServiceInfo) Shard(k int) ServiceInfo {
	if !s.IsSharded() {
		return s
	}
	return ServiceInfo{Name: ShardGroupName(s.Name, k), N: s.N}
}

// VoterIDs returns the NodeIDs of the service's voter group. The slice
// is shared and read-only (see principals).
func (s ServiceInfo) VoterIDs() []auth.NodeID {
	p := s.principals()
	return p[s.N:len(p):len(p)]
}

// DriverIDs returns the NodeIDs of the service's driver group. The
// slice is shared and read-only (see principals).
func (s ServiceInfo) DriverIDs() []auth.NodeID {
	return s.principals()[:s.N:s.N]
}

// Rosters sit on the reply path: every share's authenticator names the
// caller's drivers and voters, and every bundle goes to its drivers. So
// each (group, size) roster is built once and shared. Nobody may write
// through a roster slice; each is capped at its length, so an append
// copies instead of writing into the shared array. The table is
// copy-on-write like auth's node-id intern cache: readers load it with
// one atomic, and past rosterLimit entries rosters are built fresh on
// every call instead of cached.
const rosterLimit = 1024

type rosterKey struct {
	name string
	n    int
}

var (
	rosterMu sync.Mutex // serializes writers
	rosters  atomic.Pointer[map[rosterKey][]auth.NodeID]
)

// principals returns the group's drivers followed by its voters, each
// in index order: the receivers of a reply share's authenticator. The
// slice is shared and read-only.
func (s ServiceInfo) principals() []auth.NodeID {
	key := rosterKey{s.Name, s.N}
	if m := rosters.Load(); m != nil {
		if ids, ok := (*m)[key]; ok {
			return ids
		}
	}
	ids := make([]auth.NodeID, 2*s.N)
	for i := 0; i < s.N; i++ {
		ids[i] = auth.DriverID(s.Name, i)
		ids[s.N+i] = auth.VoterID(s.Name, i)
	}
	rosterMu.Lock()
	defer rosterMu.Unlock()
	cur := rosters.Load()
	if cur != nil && len(*cur) >= rosterLimit {
		return ids
	}
	next := make(map[rosterKey][]auth.NodeID, 16)
	if cur != nil {
		for k, v := range *cur {
			next[k] = v
		}
	}
	next[key] = ids
	rosters.Store(&next)
	return ids
}

// Registry is the static service directory of a deployment — the
// runtime form of the replicas.xml mapping the paper describes in
// Section 5.2 (Perpetual-WS resolves endpoint references statically; a
// UDDI-based dynamic directory is future work). It is safe for
// concurrent use.
//
// Every request issued by every driver resolves its target here, so the
// directory sits on the hot path of all cross-group traffic. Reads go
// through an immutable copy-on-write snapshot behind an atomic pointer:
// Lookup and friends never take a lock (a shared RWMutex read-locked per
// call bounces its cache line across cores, serializing independent
// shard groups). Mutators — setup and membership commits — are rare;
// they serialize on mu, clone the snapshot, and publish the successor
// atomically.
type Registry struct {
	mu   sync.Mutex // serializes mutators; readers never take it
	snap atomic.Pointer[registryState]
}

// registryState is one immutable directory snapshot. Maps are never
// modified after publication; mutators clone before writing.
type registryState struct {
	services map[string]ServiceInfo
	// membership overlays, per concrete voter group, the group's
	// installed membership epoch and current size (see membership.go).
	// Groups absent from the map run epoch 0 at their declared N.
	// Lookup applies the overlay, so callers resolving a group always
	// see its post-change size.
	membership map[string]groupMembership
}

// groupMembership is one group's installed membership state.
type groupMembership struct {
	epoch uint64
	n     int
}

func (st *registryState) clone() *registryState {
	next := &registryState{
		services:   make(map[string]ServiceInfo, len(st.services)),
		membership: make(map[string]groupMembership, len(st.membership)),
	}
	for k, v := range st.services {
		next.services[k] = v
	}
	for k, v := range st.membership {
		next.membership[k] = v
	}
	return next
}

// NewRegistry creates a registry holding the given services.
func NewRegistry(services ...ServiceInfo) *Registry {
	st := &registryState{
		services:   make(map[string]ServiceInfo, len(services)),
		membership: make(map[string]groupMembership),
	}
	for _, s := range services {
		st.services[s.Name] = s
	}
	r := &Registry{}
	r.snap.Store(st)
	return r
}

// mutate runs f against a private clone of the current snapshot and, if
// f succeeds, publishes the clone as the new directory.
func (r *Registry) mutate(f func(st *registryState) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.snap.Load().clone()
	if err := f(st); err != nil {
		return err
	}
	r.snap.Store(st)
	return nil
}

// Add registers (or replaces) a service.
func (r *Registry) Add(s ServiceInfo) {
	r.mutate(func(st *registryState) error {
		st.services[s.Name] = s
		return nil
	})
}

// Lookup resolves a service or shard group by name: "store" yields the
// declared (possibly sharded) service; "store#2" yields the concrete
// group descriptor of its third shard. Lock-free: reads one immutable
// snapshot.
func (r *Registry) Lookup(name string) (ServiceInfo, error) {
	return r.snap.Load().lookup(name)
}

func (st *registryState) lookup(name string) (ServiceInfo, error) {
	if s, ok := st.services[name]; ok {
		if !s.IsSharded() {
			return st.withMembership(name, s), nil
		}
		return s, nil
	}
	if base, k, ok := splitShardGroupName(name); ok {
		if s, found := st.services[base]; found && s.IsSharded() && k < s.ShardCount() {
			return st.withMembership(name, s.Shard(k)), nil
		}
	}
	return ServiceInfo{}, fmt.Errorf("perpetual: unknown service %q", name)
}

// withMembership applies a concrete group's membership overlay to its
// descriptor.
func (st *registryState) withMembership(name string, s ServiceInfo) ServiceInfo {
	if gm, ok := st.membership[name]; ok {
		s.N = gm.n
	}
	return s
}

// GroupMembership returns a concrete group's installed membership epoch
// and size (epoch 0 at the declared N when no change was ever
// installed).
func (r *Registry) GroupMembership(group string) (epoch uint64, n int) {
	st := r.snap.Load()
	if gm, ok := st.membership[group]; ok {
		return gm.epoch, gm.n
	}
	s, err := st.lookup(group)
	if err != nil {
		return 0, 0
	}
	return 0, s.N
}

// CommitGroupMembership installs a concrete voter group's membership
// epoch in the directory: the point at which callers resolving the
// group see its new size. Idempotent per epoch — every member of the
// group commits the same flip — and refuses to move backwards or skip
// epochs.
func (r *Registry) CommitGroupMembership(group string, newEpoch uint64, newN int) error {
	if newN < 1 {
		return fmt.Errorf("perpetual: membership of %s with %d replicas", group, newN)
	}
	return r.mutate(func(st *registryState) error {
		cur, curN := uint64(0), 0
		if gm, ok := st.membership[group]; ok {
			cur, curN = gm.epoch, gm.n
		} else if s, err := st.lookup(group); err == nil {
			curN = s.N
		}
		if curN == 0 {
			return fmt.Errorf("perpetual: unknown group %q", group)
		}
		if newEpoch <= cur {
			if newEpoch == cur && newN == curN {
				return nil
			}
			return fmt.Errorf("perpetual: membership epoch %d of %s already installed", cur, group)
		}
		if newEpoch != cur+1 {
			return fmt.Errorf("perpetual: membership epoch flip %d -> %d of %s skips epochs", cur, newEpoch, group)
		}
		st.membership[group] = groupMembership{epoch: newEpoch, n: newN}
		return nil
	})
}

// ObserveGroupMembership adopts a group's membership state learned from
// a verified reply bundle (see ReplyBundle.Epoch/GroupN): unlike
// CommitGroupMembership it allows forward jumps — a caller that slept
// through several epochs catches up in one step — but never moves
// backwards. Returns true if the directory changed.
func (r *Registry) ObserveGroupMembership(group string, epoch uint64, n int) bool {
	if epoch == 0 || n < 1 {
		return false
	}
	changed := false
	r.mutate(func(st *registryState) error {
		if _, err := st.lookup(group); err != nil {
			return err
		}
		if gm, ok := st.membership[group]; ok && gm.epoch >= epoch {
			return errObserveStale
		}
		st.membership[group] = groupMembership{epoch: epoch, n: n}
		changed = true
		return nil
	})
	return changed
}

// errObserveStale aborts an ObserveGroupMembership mutation that would
// move a group's epoch backwards (not an error surfaced to callers).
var errObserveStale = errors.New("stale membership observation")

// Services returns all registered services sorted by name.
func (r *Registry) Services() []ServiceInfo {
	st := r.snap.Load()
	out := make([]ServiceInfo, 0, len(st.services))
	for _, s := range st.services {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Groups returns every concrete replica group of the deployment sorted
// by name: one per unsharded service plus one per shard of each sharded
// service. This is what Deployment.Build materializes.
func (r *Registry) Groups() []ServiceInfo {
	st := r.snap.Load()
	var out []ServiceInfo
	for _, s := range st.services {
		for k := 0; k < s.ShardCount(); k++ {
			g := s.Shard(k)
			out = append(out, st.withMembership(g.Name, g))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AllPrincipals returns every voter and driver NodeID in the deployment
// (every shard of every service), used to provision pairwise MAC keys.
func (r *Registry) AllPrincipals() []auth.NodeID {
	var out []auth.NodeID
	for _, g := range r.Groups() {
		out = append(out, g.VoterIDs()...)
		out = append(out, g.DriverIDs()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
