package perpetual

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"perpetualws/internal/auth"
)

// ServiceInfo describes one replicated service known to the deployment:
// one voter group of N replicas, as in the paper.
type ServiceInfo struct {
	// Name uniquely identifies the service across the deployment. Names
	// must not contain "/", which separates a node id's parts.
	Name string
	// N is the replica count; tolerating f faults requires N = 3f+1.
	// Unreplicated endpoints use N = 1.
	N int
}

// F returns the number of faults the service tolerates.
func (s ServiceInfo) F() int { return (s.N - 1) / 3 }

// Quorum returns the group's agreement quorum size (2f+1 for the
// canonical N = 3f+1), mirroring clbft.Config.Quorum. A reply backed by
// this many endorsements — even tentative ones — is guaranteed to
// survive any view change of the target group (see VerifyBundle).
func (s ServiceInfo) Quorum() int { return (s.N+s.F())/2 + 1 }

// validateServiceName rejects declared names no node id can carry: the
// empty name, and any name containing "/", on which auth.ParseNodeID
// splits a node id (a voter of "a/b" would be parsed as group "a").
func validateServiceName(name string) error {
	if name == "" {
		return fmt.Errorf("perpetual: empty service name")
	}
	if strings.Contains(name, "/") {
		return fmt.Errorf("perpetual: service name %q contains reserved separator %q", name, "/")
	}
	return nil
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

// Lookup resolves a service by name.
func (r *Registry) Lookup(name string) (ServiceInfo, error) {
	if s, ok := r.services[name]; ok {
		return s, nil
	}
	return ServiceInfo{}, fmt.Errorf("perpetual: unknown service %q", name)
}

// Services returns all registered services sorted by name: the replica
// groups Deployment.Build materializes.
func (r *Registry) Services() []ServiceInfo {
	out := make([]ServiceInfo, 0, len(r.services))
	for _, s := range r.services {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AllPrincipals returns every voter and driver NodeID in the deployment,
// used to provision pairwise MAC keys.
func (r *Registry) AllPrincipals() []auth.NodeID {
	var out []auth.NodeID
	for _, g := range r.Services() {
		out = append(out, g.VoterIDs()...)
		out = append(out, g.DriverIDs()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
