package clbft

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestBatchEncodeDecode(t *testing.T) {
	inner := []*Request{
		{OpID: "a", Op: []byte("1")},
		{OpID: "b", Op: []byte("22")},
		{OpID: "c", Op: []byte("333")},
	}
	b := encodeBatch(inner)
	if !isBatch(b) {
		t.Fatal("encoded batch not recognized")
	}
	got, err := decodeBatch(b)
	if err != nil {
		t.Fatalf("decodeBatch: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d entries", len(got))
	}
	for i := range got {
		if got[i].OpID != inner[i].OpID || string(got[i].Op) != string(inner[i].Op) {
			t.Errorf("entry %d = %+v", i, got[i])
		}
	}
}

func TestBatchRejectsTamperedOpID(t *testing.T) {
	b := encodeBatch([]*Request{{OpID: "x", Op: []byte("y")}})
	b.OpID = batchPrefix + "0000000000000000" // wrong content hash
	if _, err := decodeBatch(b); err == nil {
		t.Error("tampered batch OpID accepted")
	}
}

func TestBatchRejectsNestedAndNull(t *testing.T) {
	nested := encodeBatch([]*Request{encodeBatch([]*Request{{OpID: "i", Op: []byte("1")}})})
	if _, err := decodeBatch(nested); err == nil {
		t.Error("nested batch accepted")
	}
	withNull := encodeBatch([]*Request{{OpID: "", Op: nil}})
	if _, err := decodeBatch(withNull); err == nil {
		t.Error("batch with null entry accepted")
	}
	if _, err := decodeBatch(&Request{OpID: "plain"}); err == nil {
		t.Error("non-batch decoded as batch")
	}
}

func TestBatchRoundTripProperty(t *testing.T) {
	f := func(ids [][2]string) bool {
		if len(ids) == 0 {
			return true
		}
		if len(ids) > 16 {
			ids = ids[:16]
		}
		var inner []*Request
		for i, pair := range ids {
			opID := pair[0]
			if opID == "" || opID[0] == 0 {
				opID = fmt.Sprintf("op-%d", i)
			}
			op := []byte(pair[1])
			if len(op) == 0 {
				op = []byte{byte(i + 1)}
			}
			inner = append(inner, &Request{OpID: opID, Op: op})
		}
		got, err := decodeBatch(encodeBatch(inner))
		if err != nil || len(got) != len(inner) {
			return false
		}
		for i := range got {
			if got[i].OpID != inner[i].OpID || string(got[i].Op) != string(inner[i].Op) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInnerOpIDs(t *testing.T) {
	ids := func(ops []agreedOp) []string {
		var out []string
		for i := range ops {
			out = append(out, ops[i].OpID)
		}
		return out
	}
	plain := &Request{OpID: "solo", Op: []byte("x")}
	if got := ids(carriedOps(plain)); !reflect.DeepEqual(got, []string{"solo"}) {
		t.Errorf("plain carriedOps = %v", got)
	}
	batch := encodeBatch([]*Request{{OpID: "a", Op: []byte("1")}, {OpID: "b", Op: []byte("2")}})
	if got := ids(carriedOps(batch)); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("batch carriedOps = %v", got)
	}
	// A batch-prefixed request that does not decode carries itself.
	broken := &Request{OpID: batch.OpID, Op: []byte("not the hashed body")}
	if got := ids(carriedOps(broken)); !reflect.DeepEqual(got, []string{batch.OpID}) {
		t.Errorf("undecodable batch carriedOps = %q", got)
	}
}

// newBatchingCluster builds a cluster with batching enabled.
func newBatchingCluster(t *testing.T, n, maxBatch int) *testCluster {
	return newTestCluster(t, n, func(cfg *Config) { cfg.MaxBatch = maxBatch })
}

func TestBatchedOrderingDeliversAllOpsInOrder(t *testing.T) {
	c := newBatchingCluster(t, 4, 8)
	const ops = 40
	for i := 0; i < ops; i++ {
		c.replicas[0].Submit(fmt.Sprintf("op-%d", i), []byte{byte(i)})
	}
	c.waitDelivered(ops)
	c.checkConsistent(ops)
	// Submission order from a single submitter must be preserved even
	// across batch boundaries.
	got := c.deliveredAt(0)
	for i := 0; i < ops; i++ {
		if got[i].OpID != fmt.Sprintf("op-%d", i) {
			t.Fatalf("position %d: %s", i, got[i].OpID)
		}
	}
	// Batching must actually have happened: fewer sequence numbers than
	// operations.
	seqs := make(map[uint64]bool)
	for _, d := range got {
		seqs[d.Seq] = true
	}
	if len(seqs) >= ops {
		t.Errorf("no batching occurred: %d seqs for %d ops", len(seqs), ops)
	}
}

func TestBatchedDedup(t *testing.T) {
	c := newBatchingCluster(t, 4, 4)
	for i := 0; i < 6; i++ {
		c.replicas[0].Submit(fmt.Sprintf("op-%d", i), []byte{byte(i)})
	}
	c.waitDelivered(6)
	// Resubmit everything; nothing may deliver twice.
	for i := 0; i < 6; i++ {
		c.replicas[1].Submit(fmt.Sprintf("op-%d", i), []byte{byte(i)})
	}
	c.replicas[0].Submit("tail", nil)
	c.waitDelivered(7)
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 4; i++ {
		seen := make(map[string]int)
		for _, d := range c.deliveredAt(i) {
			seen[d.OpID]++
		}
		for id, n := range seen {
			if n != 1 {
				t.Errorf("replica %d delivered %s %d times", i, id, n)
			}
		}
	}
}

func TestBatchedViewChangePreservesOps(t *testing.T) {
	c := newBatchingCluster(t, 4, 8)
	c.replicas[0].Submit("warm", nil)
	c.waitDelivered(1)
	// Silence the primary, then submit a burst at a backup: the ops are
	// shared on suspicion, batched by the new primary, and delivered.
	c.setIntercept(func(from, to int, m *Message) *Message {
		if from == 0 || to == 0 {
			return nil
		}
		return m
	})
	for i := 0; i < 10; i++ {
		c.replicas[1].Submit(fmt.Sprintf("burst-%d", i), []byte{byte(i)})
	}
	c.waitDelivered(11, 1, 2, 3)
	c.checkConsistent(11, 1, 2, 3)
}

func TestBatchedValidatorRejectsWholeBatch(t *testing.T) {
	// A batch containing one invalid op must be rejected as a whole by
	// backups (the primary, refusing to buffer invalid ops, never forms
	// such a batch; this simulates a faulty primary's batch).
	r, err := New(Config{ID: 1, N: 4, MaxBatch: 4}, clbftNopTransport{}, nil,
		WithValidator(func(opID string, op []byte) (any, bool) { return opID, opID != "evil" }))
	if err != nil {
		t.Fatal(err)
	}
	accepts := func(req *Request) bool {
		_, _, ok := r.accept(req, req.Digest())
		return ok
	}
	good := encodeBatch([]*Request{{OpID: "fine", Op: []byte("1")}, {OpID: "ok", Op: []byte("2")}})
	if _, ops, ok := r.accept(good, good.Digest()); !ok {
		t.Error("valid batch rejected")
	} else if len(ops) != 2 || ops[0].parsed != "fine" || ops[1].parsed != "ok" {
		t.Errorf("accepted batch lost the validator's parsed values: %+v", ops)
	}
	if _, _, ok := r.accept(good, Digest{1}); ok {
		t.Error("batch accepted under a digest that is not its own")
	}
	bad := encodeBatch([]*Request{{OpID: "fine", Op: []byte("1")}, {OpID: "evil", Op: []byte("2")}})
	if accepts(bad) {
		t.Error("batch containing invalid op accepted")
	}
	oversized := encodeBatch([]*Request{
		{OpID: "a", Op: []byte("1")}, {OpID: "b", Op: []byte("2")},
		{OpID: "c", Op: []byte("3")}, {OpID: "d", Op: []byte("4")},
		{OpID: "e", Op: []byte("5")},
	})
	if accepts(oversized) {
		t.Error("oversized batch accepted")
	}
}
