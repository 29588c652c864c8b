package perpetual

import (
	"runtime"
	"testing"

	"perpetualws/internal/auth"
	"perpetualws/internal/clbft"
	"perpetualws/internal/transport"
)

// TestBuildCostBudget pins what standing up one replica's queues costs:
// the heap bytes a memnet port, a CLBFT replica and a voter's client
// lane allocate when built. Their queues grow with use, so none may
// preallocate its bound.
func TestBuildCostBudget(t *testing.T) {
	const budget = 64 << 10
	v, _, _ := newBareVoter(t)
	cases := []struct {
		name  string
		build func()
	}{
		{"transport.NewNetwork().Port", func() {
			net := transport.NewNetwork()
			net.Port(auth.VoterID("t", 0))
			t.Cleanup(func() { net.Close() })
		}},
		{"clbft.New", func() {
			r, err := clbft.New(clbft.Config{ID: 0, N: 4}, clbft.TransportFunc(func(int, *clbft.Message) {}),
				func(clbft.Delivery) {})
			if err != nil || r == nil {
				t.Fatalf("clbft.New: %v", err)
			}
		}},
		{"voter.startLane", func() {
			v.startLane()
			v.stopLane()
		}},
	}
	for _, c := range cases {
		// The least of three builds, so that a goroutine a previous test
		// left running cannot charge its allocations to this one.
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.build()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: %d B", c.name, least)
		if least > budget {
			t.Errorf("%s allocates %d KiB, budget %d KiB", c.name, least>>10, budget>>10)
		}
	}
}
