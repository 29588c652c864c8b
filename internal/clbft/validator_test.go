package clbft

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestValidatorBlocksInvalidOps shows that a primary cannot push an
// operation rejected by the application validator through agreement:
// backups refuse to prepare it, and after the view change a valid
// operation still gets through.
func TestValidatorBlocksInvalidOps(t *testing.T) {
	const n = 4
	replicas := make([]*Replica, n)
	var mu sync.Mutex
	delivered := make(map[int][]string)

	for i := 0; i < n; i++ {
		i := i
		cfg := Config{ID: i, N: n, CheckpointInterval: 8, ViewChangeTimeout: 300 * time.Millisecond}
		transport := TransportFunc(func(to int, m *Message) {
			decoded, err := DecodeMessage(m.Encode())
			if err != nil {
				t.Errorf("codec: %v", err)
				return
			}
			replicas[to].Receive(i, decoded)
		})
		deliver := func(d Delivery) {
			mu.Lock()
			delivered[i] = append(delivered[i], d.OpID)
			mu.Unlock()
		}
		validator := func(opID string, op []byte) (any, bool) {
			return nil, !bytes.HasPrefix(op, []byte("poison"))
		}
		r, err := New(cfg, transport, deliver, WithValidator(validator))
		if err != nil {
			t.Fatal(err)
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

	// The poison op is submitted at the primary: its own validator
	// rejects it at pre-prepare, so it is never even proposed
	// successfully; the subsequent good op must be delivered, and no
	// replica may ever deliver the poison op.
	replicas[0].Submit("bad", []byte("poison-pill"))
	replicas[0].Submit("good", []byte("fine"))

	deadline := time.Now().Add(15 * time.Second)
	for {
		mu.Lock()
		ok := true
		for i := 0; i < n; i++ {
			found := false
			for _, id := range delivered[i] {
				if id == "good" {
					found = true
				}
			}
			if !found {
				ok = false
			}
		}
		mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("good op never delivered everywhere")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		for _, id := range delivered[i] {
			if id == "bad" {
				t.Errorf("replica %d delivered the poison op", i)
			}
		}
	}
}

// TestValidatorRejectionAtBackupsOnly simulates a faulty primary that
// bypasses its own validator (it proposes a poison op directly on the
// wire). Backups must refuse it, and the group must recover via view
// change to order later work.
func TestValidatorRejectionAtBackupsOnly(t *testing.T) {
	const n = 4
	replicas := make([]*Replica, n)
	var mu sync.Mutex
	delivered := make(map[int][]string)
	var intercept func(from, to int, m *Message) *Message

	for i := 0; i < n; i++ {
		i := i
		cfg := Config{ID: i, N: n, CheckpointInterval: 8, ViewChangeTimeout: 300 * time.Millisecond}
		transport := TransportFunc(func(to int, m *Message) {
			mu.Lock()
			icpt := intercept
			mu.Unlock()
			if icpt != nil {
				m = icpt(i, to, m)
				if m == nil {
					return
				}
			}
			decoded, err := DecodeMessage(m.Encode())
			if err != nil {
				return
			}
			replicas[to].Receive(i, decoded)
		})
		deliver := func(d Delivery) {
			mu.Lock()
			delivered[i] = append(delivered[i], d.OpID)
			mu.Unlock()
		}
		// Only backups validate in this test: the primary (0) is
		// "faulty" and accepts everything.
		validator := func(opID string, op []byte) (any, bool) {
			if i == 0 {
				return nil, true
			}
			return nil, !bytes.HasPrefix(op, []byte("poison"))
		}
		r, err := New(cfg, transport, deliver, WithValidator(validator))
		if err != nil {
			t.Fatal(err)
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

	// Poison proposed by the faulty primary. Backups reject the
	// pre-prepare; nothing commits; backups eventually suspect the
	// primary (outstanding work) and elect replica 1.
	replicas[0].Submit("bad", []byte("poison-pill"))
	// A good request submitted at a backup keeps the group obligated to
	// make progress.
	replicas[1].Submit("good", []byte("fine"))

	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		count := 0
		for i := 1; i < n; i++ {
			for _, id := range delivered[i] {
				if id == "good" {
					count++
				}
			}
		}
		mu.Unlock()
		if count == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("good op not delivered at backups after faulty-primary poison")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < n; i++ {
		for _, id := range delivered[i] {
			if id == "bad" {
				t.Errorf("backup %d delivered the poison op", i)
			}
		}
	}
	for _, r := range replicas[1:] {
		if r.View() == 0 {
			// Not strictly required (the primary could have re-proposed
			// only the good op in view 0), but with the poison op stuck
			// a view change is the expected recovery path.
			t.Logf("note: replica %d still in view 0", r.cfg.ID)
		}
	}
	_ = fmt.Sprint() // keep fmt for potential debugging
}
