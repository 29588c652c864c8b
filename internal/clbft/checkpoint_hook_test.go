package clbft

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCheckpointHookFiresOnStabilize covers the checkpoint export hook:
// it must fire exactly when a checkpoint becomes stable (quorum
// certified and locally executed), with monotonically increasing
// sequences on the configured interval — the signal perpetual surfaces
// as Replica.StableCheckpointSeq.
func TestCheckpointHookFiresOnStabilize(t *testing.T) {
	const (
		n        = 4
		interval = 4
		ops      = 10
	)
	var mu sync.Mutex
	hooks := make([][]uint64, n)
	replicas := make([]*Replica, n)
	for i := 0; i < n; i++ {
		i := i
		transport := TransportFunc(func(to int, m *Message) {
			if to >= 0 && to < n {
				replicas[to].Receive(i, m)
			}
		})
		r, err := New(
			Config{ID: i, N: n, CheckpointInterval: interval, ViewChangeTimeout: 300 * time.Millisecond},
			transport,
			func(Delivery) {},
			WithCheckpointHook(func(seq uint64, _ Digest) {
				mu.Lock()
				hooks[i] = append(hooks[i], seq)
				mu.Unlock()
			}),
		)
		if err != nil {
			t.Fatalf("New replica %d: %v", i, err)
		}
		replicas[i] = r
	}
	for _, r := range replicas {
		r.Start()
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	for k := 0; k < ops; k++ {
		replicas[0].Submit(fmt.Sprintf("op-%d", k), []byte{byte(k)})
	}
	waitFor(t, 10*time.Second, "stable checkpoint at seq >= 8 on every replica", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < n; i++ {
			if len(hooks[i]) == 0 || hooks[i][len(hooks[i])-1] < 8 {
				return false
			}
		}
		return true
	})
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		var prev uint64
		for _, seq := range hooks[i] {
			if seq%interval != 0 {
				t.Errorf("replica %d: hook fired off-interval at seq %d", i, seq)
			}
			if seq <= prev {
				t.Errorf("replica %d: hook sequence not increasing: %v", i, hooks[i])
				break
			}
			prev = seq
		}
	}
}
