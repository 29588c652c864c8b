package perpetual

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"perpetualws/internal/auth"
)

func TestServiceInfoF(t *testing.T) {
	cases := []struct{ n, f int }{{1, 0}, {4, 1}, {7, 2}, {10, 3}}
	for _, c := range cases {
		if got := (ServiceInfo{N: c.n}).F(); got != c.f {
			t.Errorf("N=%d: F=%d, want %d", c.n, got, c.f)
		}
	}
}

func TestServiceInfoIDs(t *testing.T) {
	s := ServiceInfo{Name: "svc", N: 3}
	voters := s.VoterIDs()
	drivers := s.DriverIDs()
	if len(voters) != 3 || len(drivers) != 3 {
		t.Fatalf("lengths: %d voters, %d drivers", len(voters), len(drivers))
	}
	for i := 0; i < 3; i++ {
		if voters[i] != auth.VoterID("svc", i) {
			t.Errorf("voter %d = %v", i, voters[i])
		}
		if drivers[i] != auth.DriverID("svc", i) {
			t.Errorf("driver %d = %v", i, drivers[i])
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	r := NewRegistry(ServiceInfo{Name: "c", N: 7}, ServiceInfo{Name: "a", N: 4}, ServiceInfo{Name: "b", N: 1})
	got, err := r.Lookup("a")
	if err != nil || got.N != 4 {
		t.Errorf("Lookup(a) = %+v, %v", got, err)
	}
	if _, err := r.Lookup("missing"); err == nil {
		t.Error("Lookup(missing) succeeded")
	}
	if got, err := r.Lookup("c"); err != nil || got.N != 7 {
		t.Errorf("Lookup(c) = %+v, %v", got, err)
	}
	services := r.Services()
	if len(services) != 3 || services[0].Name != "a" || services[2].Name != "c" {
		t.Errorf("Services = %+v", services)
	}
}

// TestRejectsReservedServiceName: Build refuses a name no node id can
// carry — empty, or containing the "/" that separates a node id's parts.
func TestRejectsReservedServiceName(t *testing.T) {
	for _, name := range []string{"", "a/b"} {
		dep := NewDeployment([]byte("m"), ServiceInfo{Name: name, N: 1})
		if err := dep.Build(); err == nil {
			t.Errorf("Build accepted service name %q", name)
		}
	}
}

func TestRegistryAllPrincipals(t *testing.T) {
	r := NewRegistry(ServiceInfo{Name: "a", N: 2}, ServiceInfo{Name: "b", N: 1})
	ps := r.AllPrincipals()
	if len(ps) != 6 { // 2 services x (voters + drivers)
		t.Fatalf("principals = %d, want 6", len(ps))
	}
	seen := make(map[auth.NodeID]bool)
	for _, p := range ps {
		if seen[p] {
			t.Errorf("duplicate principal %v", p)
		}
		seen[p] = true
	}
	for i := 1; i < len(ps); i++ {
		if !ps[i-1].Less(ps[i]) {
			t.Errorf("principals not sorted at %d: %v >= %v", i, ps[i-1], ps[i])
		}
	}
}

func TestBoundedCacheEviction(t *testing.T) {
	c := newBoundedCache[int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Put("d", 4) // evicts "a"
	if c.Contains("a") {
		t.Error("oldest entry not evicted")
	}
	if v, ok := c.Get("d"); !ok || v != 4 {
		t.Errorf("Get(d) = %d, %v", v, ok)
	}
	// Replacement does not evict.
	c.Put("b", 20)
	if c.Len() != 3 {
		t.Errorf("Len after replace = %d", c.Len())
	}
	if v, _ := c.Get("b"); v != 20 {
		t.Errorf("b = %d", v)
	}
	// A key deleted and put again is as new as its last Put: its first
	// slot must not evict it ahead of older live keys.
	c = newBoundedCache[int](2)
	c.Put("a", 1)
	c.Delete("a")
	c.Put("b", 2)
	c.Put("a", 3)
	c.Put("c", 4)
	if c.Contains("b") || !c.Contains("a") || !c.Contains("c") {
		t.Errorf("after put a, delete a, put b, a, c at max 2: a %v, b %v, c %v; want a and c",
			c.Contains("a"), c.Contains("b"), c.Contains("c"))
	}
}

func TestBoundedCacheDelete(t *testing.T) {
	c := newBoundedCache[string](2)
	c.Put("x", "1")
	c.Delete("x")
	if c.Contains("x") {
		t.Error("deleted key present")
	}
	// Re-inserting a deleted key works and the cache keeps functioning.
	c.Put("x", "2")
	c.Put("y", "3")
	c.Put("z", "4")
	if c.Len() > 2 {
		t.Errorf("Len = %d, want <= 2", c.Len())
	}
	if !c.Contains("z") {
		t.Error("latest key missing")
	}
}

// TestBoundedCacheCompaction: Put/Delete cycles leave stale order slots
// behind every deleted key; compaction keeps order within 2*max and
// keeps FIFO order, so the oldest live key is still evicted first.
func TestBoundedCacheCompaction(t *testing.T) {
	c := newBoundedCache[int](2)
	c.Put("live", 0)
	compacted := false
	for i := 0; i < 21; i++ {
		k := fmt.Sprintf("tmp%d", i)
		before := len(c.order)
		c.Put(k, i)
		c.Delete(k)
		if len(c.order) <= before {
			compacted = true
		}
		if len(c.order) > 2*c.max {
			t.Fatalf("cycle %d: len(order) = %d, want <= %d", i, len(c.order), 2*c.max)
		}
	}
	if !compacted {
		t.Fatal("21 Put/Delete cycles never compacted order")
	}
	// Three stale slots now trail "live", so this Put compacts order
	// with two live keys in it, and the next Put must evict the older.
	c.Put("b", 1)
	var keys []string
	for _, s := range c.order {
		keys = append(keys, s.key)
	}
	if want := []string{"live", "b"}; !slices.Equal(keys, want) {
		t.Fatalf("order after compaction = %v, want %v", keys, want)
	}
	c.Put("c", 2) // evicts "live", the oldest live key
	if c.Contains("live") || !c.Contains("b") || !c.Contains("c") {
		t.Errorf("after compaction: live=%v b=%v c=%v, want false true true",
			c.Contains("live"), c.Contains("b"), c.Contains("c"))
	}
}

func TestBoundedCacheMinimumCapacity(t *testing.T) {
	c := newBoundedCache[int](0) // clamps to 1
	c.Put("a", 1)
	c.Put("b", 2)
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestRostersSharedReadOnly: a group's rosters are built once per
// (group, size) and shared, and appending to one copies it instead of
// writing into the shared array.
func TestRostersSharedReadOnly(t *testing.T) {
	s := ServiceInfo{Name: "roster", N: 4}
	if a, b := s.VoterIDs(), s.VoterIDs(); &a[0] != &b[0] {
		t.Error("the voter roster was built twice")
	}
	if got := testing.AllocsPerRun(100, func() { s.VoterIDs(); s.DriverIDs() }); got != 0 {
		t.Errorf("rosters cost %.0f allocs per lookup pair, budget 0", got)
	}
	_ = append(s.DriverIDs(), auth.VoterID("x", 9))
	if got := s.VoterIDs()[0]; got != auth.VoterID("roster", 0) {
		t.Errorf("appending to the driver roster overwrote voter 0 with %v", got)
	}
	if got := len(ServiceInfo{Name: "roster", N: 7}.VoterIDs()); got != 7 {
		t.Errorf("a resized group has %d voters, want 7", got)
	}
}

// TestDedupShares: a request vote keeps one share per calling driver,
// however often and in whatever order the drivers' copies arrive, and
// lists them in driver index order.
func TestDedupShares(t *testing.T) {
	var digest [sha256.Size]byte
	vote := &inReq{drivers: make([]driverVote, 4)}
	for _, i := range []int{1, 2, 1, 3, 2} {
		vote.drivers[i] = driverVote{req: &RequestMsg{}, digest: digest}
	}
	out := vote.shares(digest)
	if len(out) != 3 {
		t.Fatalf("dedup produced %d shares", len(out))
	}
	for i, want := range []int{1, 2, 3} {
		if out[i].Replica != want {
			t.Errorf("share %d from replica %d, want %d", i, out[i].Replica, want)
		}
	}
}

func TestKindAndOpKindStrings(t *testing.T) {
	kinds := []Kind{KindRequest, KindBFT, KindReplyShare, KindReplyBundle,
		KindResultForward, KindPayloadFetch, KindReadRequest, KindReadReply, KindBusy, Kind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", uint8(k))
		}
	}
	ops := []OpKind{OpRequest, OpReply, OpAbort, OpUtil, OpKind(99)}
	for _, o := range ops {
		if o.String() == "" {
			t.Errorf("empty string for op kind %d", uint8(o))
		}
	}
}
