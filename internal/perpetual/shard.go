package perpetual

import (
	"fmt"
	"strconv"
	"strings"
)

// Service sharding splits one logical service into several independent
// CLBFT voter groups ("shards"), lifting the throughput cap of a single
// agreement instance: requests are routed to exactly one shard by a
// deterministic function of their routing key, so unrelated keys are
// ordered (and executed) in parallel while each shard individually
// retains the full Perpetual fault-tolerance guarantees (N = 3f+1
// replicas, f Byzantine voters tolerated per shard).
//
// Routing must be replica-consistent: every driver replica of a calling
// service computes the same shard for the same key, otherwise the
// f_c+1 matching request copies the target's stage-2 vote requires would
// never accumulate at any one group. ShardFor is therefore a pure
// function of (key, shard count) with no per-node state.

// shardSep joins a service name and a shard index into the shard group's
// wire name ("store#2"). The separator is reserved: declared service
// names must not contain it.
const shardSep = "#"

// ShardGroupName returns the wire name of shard k of a sharded service.
// Shard groups are addressed like ordinary services in every protocol
// stage; only request routing knows about the parent name.
func ShardGroupName(service string, k int) string {
	return service + shardSep + strconv.Itoa(k)
}

// splitShardGroupName parses a shard group name back into its parent
// service name and shard index.
func splitShardGroupName(name string) (base string, k int, ok bool) {
	i := strings.LastIndex(name, shardSep)
	if i <= 0 || i == len(name)-1 {
		return "", 0, false
	}
	k, err := strconv.Atoi(name[i+1:])
	if err != nil || k < 0 {
		return "", 0, false
	}
	return name[:i], k, true
}

// validateServiceName rejects declared names that collide with the shard
// group namespace.
func validateServiceName(name string) error {
	if name == "" {
		return fmt.Errorf("perpetual: empty service name")
	}
	if strings.Contains(name, shardSep) {
		return fmt.Errorf("perpetual: service name %q contains reserved separator %q", name, shardSep)
	}
	return nil
}

// ShardFor maps a routing key onto one of shards groups using
// highest-random-weight (rendezvous) consistent hashing: the key scores
// every shard and picks the maximum. Rendezvous hashing keeps the
// mapping deterministic and uniform, and minimizes key movement when the
// shard count changes between deployments (only keys whose winning
// shard disappears move).
func ShardFor(key []byte, shards int) int {
	if shards <= 1 {
		return 0
	}
	// FNV-1a over the key, then a distinct splitmix64-style finalization
	// per shard index as the "random weight".
	h := fnv64a(key)
	best, bestScore := 0, uint64(0)
	for s := 0; s < shards; s++ {
		score := mix64(h ^ (uint64(s)+1)*0x9e3779b97f4a7c15)
		if s == 0 || score > bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

// fnv64a is the 64-bit FNV-1a hash shard routing keys on.
func fnv64a(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
