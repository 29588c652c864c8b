package perpetual

import (
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
// UDDI-based dynamic directory is future work). NewRegistry fills it and
// nothing writes it again, so it is safe for concurrent use without a
// lock: every request issued by every driver resolves its target here.
type Registry struct {
	services map[string]ServiceInfo
}

// NewRegistry creates a registry holding the given services.
func NewRegistry(services ...ServiceInfo) *Registry {
	r := &Registry{services: make(map[string]ServiceInfo, len(services))}
	for _, s := range services {
		r.services[s.Name] = s
	}
	return r
}

// Lookup resolves a service or shard group by name: "store" yields the
// declared (possibly sharded) service; "store#2" yields the concrete
// group descriptor of its third shard.
func (r *Registry) Lookup(name string) (ServiceInfo, error) {
	if s, ok := r.services[name]; ok {
		return s, nil
	}
	if base, k, ok := splitShardGroupName(name); ok {
		if s, found := r.services[base]; found && s.IsSharded() && k < s.ShardCount() {
			return s.Shard(k), nil
		}
	}
	return ServiceInfo{}, fmt.Errorf("perpetual: unknown service %q", name)
}

// Services returns all registered services sorted by name.
func (r *Registry) Services() []ServiceInfo {
	out := make([]ServiceInfo, 0, len(r.services))
	for _, s := range r.services {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Groups returns every concrete replica group of the deployment sorted
// by name: one per unsharded service plus one per shard of each sharded
// service. This is what Deployment.Build materializes.
func (r *Registry) Groups() []ServiceInfo {
	var out []ServiceInfo
	for _, s := range r.services {
		for k := 0; k < s.ShardCount(); k++ {
			out = append(out, s.Shard(k))
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
