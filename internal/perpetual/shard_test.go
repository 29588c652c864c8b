package perpetual

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestShardForDeterministicAndSpread is the routing property test: the
// key→shard map must be a pure function (every driver replica of a
// calling service computes it independently and must agree), and it must
// spread keys across shards (no shard starved over 1k random keys).
func TestShardForDeterministicAndSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = make([]byte, 4+rng.Intn(24))
		rng.Read(keys[i])
	}
	for _, shards := range []int{2, 4, 8} {
		counts := make([]int, shards)
		for _, key := range keys {
			s := ShardFor(key, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardFor(%x, %d) = %d out of range", key, shards, s)
			}
			// Determinism: recomputing (as each driver replica does
			// independently) must yield the same shard every time.
			for rep := 0; rep < 3; rep++ {
				if again := ShardFor(key, shards); again != s {
					t.Fatalf("ShardFor(%x, %d) flapped: %d then %d", key, shards, s, again)
				}
			}
			counts[s]++
		}
		// Spread: with 1000 keys over ≤8 shards, a fair hash leaves no
		// shard under ~5% of the keys.
		min := len(keys) / shards / 4
		for s, c := range counts {
			if c < min {
				t.Errorf("shards=%d: shard %d starved with %d/%d keys (min %d)", shards, s, c, len(keys), min)
			}
		}
		t.Logf("shards=%d distribution: %v", shards, counts)
	}
}

// TestShardForConsistency checks the rendezvous property: growing the
// shard count only moves keys onto the new shard — keys that stay on an
// existing shard keep their assignment.
func TestShardForConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	moved := 0
	const n = 1000
	for i := 0; i < n; i++ {
		key := make([]byte, 16)
		rng.Read(key)
		before := ShardFor(key, 4)
		after := ShardFor(key, 5)
		if after != before && after != 4 {
			t.Fatalf("key %x moved between existing shards: %d -> %d", key, before, after)
		}
		if after != before {
			moved++
		}
	}
	// Expect 1/5 of the keys to move to the new shard; with n=1000 the
	// binomial 3-sigma band is ~±38, so [150, 250] is tight without
	// being flaky.
	if moved < 150 || moved > 250 {
		t.Errorf("moved %d/%d keys going from 4 to 5 shards, want %d ± 50", moved, n, n/5)
	}
}

func TestShardGroupNames(t *testing.T) {
	if got := ShardGroupName("store", 2); got != "store#2" {
		t.Errorf("ShardGroupName = %q", got)
	}
	for _, tc := range []struct {
		name string
		base string
		k    int
		ok   bool
	}{
		{"store#2", "store", 2, true},
		{"a#b#7", "a#b", 7, true},
		{"store", "", 0, false},
		{"store#", "", 0, false},
		{"#3", "", 0, false},
		{"store#-1", "", 0, false},
		{"store#x", "", 0, false},
	} {
		base, k, ok := splitShardGroupName(tc.name)
		if base != tc.base || k != tc.k || ok != tc.ok {
			t.Errorf("splitShardGroupName(%q) = (%q, %d, %v), want (%q, %d, %v)",
				tc.name, base, k, ok, tc.base, tc.k, tc.ok)
		}
	}
}

func TestRegistryShardLookup(t *testing.T) {
	r := NewRegistry(
		ServiceInfo{Name: "store", N: 4, Shards: 3},
		ServiceInfo{Name: "client", N: 1},
	)
	s, err := r.Lookup("store")
	if err != nil || !s.IsSharded() || s.ShardCount() != 3 {
		t.Fatalf("Lookup(store) = %+v, %v", s, err)
	}
	leaf, err := r.Lookup("store#2")
	if err != nil || leaf.Name != "store#2" || leaf.N != 4 || leaf.IsSharded() {
		t.Fatalf("Lookup(store#2) = %+v, %v", leaf, err)
	}
	if _, err := r.Lookup("store#3"); err == nil {
		t.Error("Lookup of out-of-range shard succeeded")
	}
	if _, err := r.Lookup("client#0"); err == nil {
		t.Error("Lookup of shard of unsharded service succeeded")
	}
	if groups := r.Groups(); len(groups) != 4 {
		t.Errorf("Groups() = %d entries, want 4 (3 shards + client)", len(groups))
	}
	// 3 shard groups of 4 replicas plus 1 client replica, voters+drivers.
	if p := r.AllPrincipals(); len(p) != (3*4+1)*2 {
		t.Errorf("AllPrincipals() = %d entries, want %d", len(p), (3*4+1)*2)
	}
}

func TestRejectsReservedServiceName(t *testing.T) {
	dep := NewDeployment([]byte("m"), ServiceInfo{Name: "bad#name", N: 1})
	if err := dep.Build(); err == nil {
		t.Error("Build accepted a service name containing the shard separator")
	}
}

// buildSharded creates a caller "c" (nc replicas) and a sharded target
// "t" (shards × nt replicas) whose shard executors echo with a
// shard-identifying prefix ("s<k>:"), so replies prove which group
// executed — and that every caller driver routed the key identically
// (disagreement would starve the f_c+1 request vote and hang the call).
func buildSharded(t *testing.T, nc, nt, shards int, tune func(*Deployment)) *Deployment {
	t.Helper()
	dep := NewDeployment([]byte("shard-master"),
		ServiceInfo{Name: "c", N: nc},
		ServiceInfo{Name: "t", N: nt, Shards: shards},
	)
	dep.Configure("c", fastOpts())
	dep.Configure("t", fastOpts())
	if tune != nil {
		tune(dep)
	}
	if err := dep.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	dep.Start()
	t.Cleanup(dep.Stop)
	for k := 0; k < shards; k++ {
		prefix := fmt.Sprintf("s%d:", k)
		for _, drv := range dep.ShardDrivers("t", k) {
			drv := drv
			go func() {
				for {
					req, err := drv.NextRequest()
					if err != nil {
						return
					}
					if err := drv.Reply(req, []byte(prefix+string(req.Payload))); err != nil {
						return
					}
				}
			}()
		}
	}
	return dep
}

// callAllKey issues the same keyed request from every caller driver and
// returns the common request ID.
func callAllKey(t *testing.T, dep *Deployment, target string, key, payload []byte) string {
	t.Helper()
	var reqID string
	for i, drv := range dep.Drivers("c") {
		id, err := issue(drv, Request{Target: target, Key: key, Payload: payload})
		if err != nil {
			t.Fatalf("keyed Do from c/%d: %v", i, err)
		}
		if reqID == "" {
			reqID = id
		} else if id != reqID {
			t.Fatalf("driver %d assigned reqID %s, others %s", i, id, reqID)
		}
	}
	return reqID
}

func TestShardedServiceRoutesByKey(t *testing.T) {
	const shards = 2
	dep := buildSharded(t, 4, 4, shards, nil)
	for i := 0; i < 4; i++ {
		key := []byte(fmt.Sprintf("customer-%d", i))
		want := fmt.Sprintf("s%d:k%d", ShardFor(key, shards), i)
		reqID := callAllKey(t, dep, "t", key, []byte(fmt.Sprintf("k%d", i)))
		r := awaitAll(t, dep, "c", reqID)
		if r.Aborted || string(r.Payload) != want {
			t.Errorf("key %q: reply %q (aborted=%v), want %q", key, r.Payload, r.Aborted, want)
		}
	}
}

func TestShardedServiceSurvivesFaultsPerShard(t *testing.T) {
	// N=4 shard groups tolerate f=1 Byzantine voters each; corrupt
	// replica 1 of *every* shard group and check both shards still serve
	// correct replies.
	const shards = 2
	dep := buildSharded(t, 1, 4, shards, func(dep *Deployment) {
		opts := fastOpts()
		opts.Behaviors = map[int]Behavior{1: CorruptResultFault{}}
		dep.Configure("t", opts)
	})
	served := make(map[int]bool)
	for i := 0; served[0] == false || served[1] == false; i++ {
		if i >= 16 {
			t.Fatalf("16 keys did not cover both shards: %v", served)
		}
		key := []byte(fmt.Sprintf("key-%d", i))
		shard := ShardFor(key, shards)
		payload := []byte(fmt.Sprintf("p%d", i))
		reqID := callAllKey(t, dep, "t", key, payload)
		r := awaitAll(t, dep, "c", reqID)
		want := fmt.Sprintf("s%d:%s", shard, payload)
		if r.Aborted || string(r.Payload) != want {
			t.Fatalf("key %q on shard %d: reply %q (aborted=%v), want %q", key, shard, r.Payload, r.Aborted, want)
		}
		served[shard] = true
	}
}

func TestCallAllShardsBroadcast(t *testing.T) {
	const shards = 3
	dep := buildSharded(t, 1, 1, shards, nil)
	drv := dep.Driver("c", 0)
	ids, err := issueAll(drv, Request{Target: "t", Payload: []byte("bcast"), AllShards: true})
	if err != nil {
		t.Fatalf("AllShards Do: %v", err)
	}
	if len(ids) != shards {
		t.Fatalf("AllShards Do returned %d ids, want %d", len(ids), shards)
	}
	for k, id := range ids {
		r, err := drv.WaitReply(id)
		if err != nil {
			t.Fatalf("WaitReply(%s): %v", id, err)
		}
		want := fmt.Sprintf("s%d:bcast", k)
		if r.Aborted || string(r.Payload) != want {
			t.Errorf("shard %d: reply %q (aborted=%v), want %q", k, r.Payload, r.Aborted, want)
		}
	}
}

func TestCallAllShardsOnUnshardedTarget(t *testing.T) {
	dep := buildPair(t, 1, 1, nil)
	echoApp(t, dep, "t")
	drv := dep.Driver("c", 0)
	ids, err := issueAll(drv, Request{Target: "t", Payload: []byte("one"), AllShards: true})
	if err != nil || len(ids) != 1 {
		t.Fatalf("AllShards Do = %v, %v; want one id", ids, err)
	}
	r, err := drv.WaitReply(ids[0])
	if err != nil || r.Aborted || string(r.Payload) != "echo:one" {
		t.Errorf("reply = %+v, %v", r, err)
	}
}

func TestShardedDefaultDigestRouting(t *testing.T) {
	// Call (no explicit key) routes by payload digest: same payload →
	// same shard, and the reply's shard stamp matches the digest route.
	dep := buildSharded(t, 1, 1, 4, nil)
	drv := dep.Driver("c", 0)
	for i := 0; i < 4; i++ {
		payload := []byte(fmt.Sprintf("auto-%d", i))
		id, err := issue(drv, Request{Target: "t", Payload: payload})
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		r, err := drv.WaitReply(id)
		if err != nil {
			t.Fatalf("WaitReply: %v", err)
		}
		if r.Aborted || len(r.Payload) < 3 || string(r.Payload[3:]) != string(payload) {
			t.Errorf("payload %q: reply %q", payload, r.Payload)
		}
	}
}

func TestShardAgreementIndependence(t *testing.T) {
	// Traffic pinned to one shard must not advance the other shard's
	// agreement log: shards are independent CLBFT instances.
	const shards = 2
	dep := buildSharded(t, 1, 1, shards, nil)
	drv := dep.Driver("c", 0)
	var key []byte
	for i := 0; ; i++ {
		key = []byte(fmt.Sprintf("pin-%d", i))
		if ShardFor(key, shards) == 0 {
			break
		}
	}
	for i := 0; i < 5; i++ {
		id, err := issue(drv, Request{Target: "t", Key: key, Payload: []byte(fmt.Sprintf("v%d", i))})
		if err != nil {
			t.Fatalf("keyed Do: %v", err)
		}
		if _, err := drv.WaitReply(id); err != nil {
			t.Fatalf("WaitReply: %v", err)
		}
	}
	// Give any stray traffic a moment to surface before asserting.
	time.Sleep(100 * time.Millisecond)
	if n := dep.ShardReplicas("t", 1)[0].AgreementCount(); n != 0 {
		t.Errorf("idle shard executed %d agreements, want 0", n)
	}
	if n := dep.ShardReplicas("t", 0)[0].AgreementCount(); n == 0 {
		t.Error("busy shard executed no agreements")
	}
}
