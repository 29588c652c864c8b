package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

// txnKVApp is a transaction-aware sharded key-value service: bodies of
// the form "put:key=value" apply immediately on ordinary requests, but
// when tagged as a transaction PREPARE they are staged under the
// transaction id and only applied on the agreed COMMIT. A put to a key
// beginning with "deny" votes abort. "get:key" reads.
var txnKVApp = ApplicationFunc(func(ctx *AppContext) {
	store := make(map[string]string)
	staged := make(map[string][][2]string)
	for {
		req, err := ctx.ReceiveRequest()
		if err != nil {
			return
		}
		reply := wsengine.NewMessageContext()
		body := string(req.Envelope.Body)
		if txnID, commit, ok := decodeGenuineOutcome(req); ok {
			if commit {
				for _, kv := range staged[txnID] {
					store[kv[0]] = kv[1]
				}
			}
			delete(staged, txnID)
			reply.Envelope.Body = []byte("<ack/>")
		} else if strings.HasPrefix(body, "put:") {
			kv := strings.SplitN(strings.TrimPrefix(body, "put:"), "=", 2)
			if txnIDv, inTxn := req.Property(PropTxnID); inTxn {
				if strings.HasPrefix(kv[0], "deny") {
					reply.Envelope.Body = soap.FaultBody(soap.Fault{Code: "soap:Receiver", Reason: "denied"})
				} else {
					txnID := txnIDv.(string)
					staged[txnID] = append(staged[txnID], [2]string{kv[0], kv[1]})
					reply.Envelope.Body = []byte("<staged/>")
				}
			} else {
				store[kv[0]] = kv[1]
				reply.Envelope.Body = []byte("<ok/>")
			}
		} else if strings.HasPrefix(body, "get:") {
			reply.Envelope.Body = []byte("<value>" + store[strings.TrimPrefix(body, "get:")] + "</value>")
		} else {
			reply.Envelope.Body = soap.FaultBody(soap.Fault{Code: "soap:Sender", Reason: "unknown op"})
		}
		if err := ctx.SendReply(reply, req); err != nil {
			return
		}
	}
})

// decodeGenuineOutcome honors txnOutcome bodies only on contexts the
// node marked as agreed outcomes.
func decodeGenuineOutcome(req *wsengine.MessageContext) (string, bool, bool) {
	if _, genuine := req.Property(PropTxnOutcome); !genuine {
		return "", false, false
	}
	return DecodeTxnOutcome(req.Envelope.Body)
}

func newTxnKVCluster(t *testing.T, nc, nkv, shards int) *Cluster {
	t.Helper()
	c, err := NewCluster([]byte("core-txn-test"),
		ServiceDef{Name: "client", N: nc, Options: fastOpts()},
		ServiceDef{Name: "kv", N: nkv, Shards: shards, App: txnKVApp, Options: fastOpts()},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

// keysForShards returns one routing key per shard index.
func keysForShards(t *testing.T, shards int) []string {
	t.Helper()
	keys := make([]string, shards)
	for k := range keys {
		for i := 0; ; i++ {
			cand := fmt.Sprintf("key-%d-%d", k, i)
			if perpetual.ShardFor([]byte(cand), shards) == k {
				keys[k] = cand
				break
			}
		}
	}
	return keys
}

func kvGet(t *testing.T, h MessageHandler, key string) string {
	t.Helper()
	req := newRequest("kv", "get:"+key)
	req.Options.RoutingKey = key
	reply, err := h.SendReceive(req)
	if err != nil {
		t.Fatalf("get %s: %v", key, err)
	}
	return string(reply.Envelope.Body)
}

func TestSendTxnCommitsAcrossShards(t *testing.T) {
	const shards = 2
	c := newTxnKVCluster(t, 1, 1, shards)
	h := c.Handler("client", 0)
	ts, ok := h.(TxnSender)
	if !ok {
		t.Fatal("handler does not implement TxnSender")
	}
	keys := keysForShards(t, shards)
	res, err := ts.SendTxn("kv", keys,
		[][]byte{[]byte("put:" + keys[0] + "=a"), []byte("put:" + keys[1] + "=b")}, 0)
	if err != nil {
		t.Fatalf("SendTxn: %v", err)
	}
	if !res.Committed {
		t.Fatalf("transaction aborted: %+v", res)
	}
	for i, v := range res.Votes {
		if !v.Commit || v.Aborted {
			t.Errorf("vote %d = %+v", i, v)
		}
		// The vote payload is the participant's SOAP reply.
		env, err := soap.Parse(v.Payload)
		if err != nil || string(env.Body) != "<staged/>" {
			t.Errorf("vote %d payload = %q (%v)", i, v.Payload, err)
		}
	}
	if got := kvGet(t, h, keys[0]); got != "<value>a</value>" {
		t.Errorf("shard 0 value = %q", got)
	}
	if got := kvGet(t, h, keys[1]); got != "<value>b</value>" {
		t.Errorf("shard 1 value = %q", got)
	}
}

func TestSendTxnAbortsOnFaultVote(t *testing.T) {
	const shards = 2
	c := newTxnKVCluster(t, 1, 1, shards)
	h := c.Handler("client", 0)
	ts := h.(TxnSender)
	keys := keysForShards(t, shards)
	// Route a denied put to shard 1: its fault reply is an abort vote,
	// so shard 0's staged put must never apply.
	res, err := ts.SendTxn("kv", keys,
		[][]byte{[]byte("put:" + keys[0] + "=x"), []byte("put:deny-" + keys[1] + "=y")}, 0)
	if err != nil {
		t.Fatalf("SendTxn: %v", err)
	}
	if res.Committed {
		t.Fatalf("transaction committed despite fault vote: %+v", res)
	}
	if !res.Votes[0].Commit || res.Votes[1].Commit {
		t.Errorf("votes = %+v, want [commit, abort]", res.Votes)
	}
	if got := kvGet(t, h, keys[0]); got != "<value></value>" {
		t.Errorf("aborted put leaked into shard 0: %q", got)
	}
}

func TestSendTxnReplicatedCoordinatorAndShards(t *testing.T) {
	// Replicated coordinator (N=4) against replicated shard groups
	// (2 x N=4), one corrupt-result voter in every group: each client
	// replica drives the same transaction and all must observe the same
	// committed outcome.
	const shards = 2
	c, err := NewCluster([]byte("core-txn-bft"),
		ServiceDef{Name: "client", N: 4,
			Options: faultyOpts(map[int]perpetual.Behavior{1: perpetual.CorruptResultFault{}})},
		ServiceDef{Name: "kv", N: 4, Shards: shards, App: txnKVApp,
			Options: faultyOpts(map[int]perpetual.Behavior{1: perpetual.CorruptResultFault{}})},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	keys := keysForShards(t, shards)
	bodies := [][]byte{[]byte("put:" + keys[0] + "=r0"), []byte("put:" + keys[1] + "=r1")}
	results := make([]*perpetual.TxnResult, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		ts := c.Handler("client", i).(TxnSender)
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = ts.SendTxn("kv", keys, bodies, 20_000)
		}()
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if errs[i] != nil {
			t.Fatalf("client replica %d: %v", i, errs[i])
		}
		if !results[i].Committed || results[i].TxnID != results[0].TxnID {
			t.Fatalf("client replica %d decided %+v, replica 0 %+v", i, results[i], results[0])
		}
	}
	// Reads must see the committed values (the client replicas all read
	// identically; replica 0 suffices since replies are BFT-agreed).
	h := c.Handler("client", 0)
	var got0, got1 string
	var rwg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		hi := c.Handler("client", i)
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			v0 := kvGet(t, hi, keys[0])
			v1 := kvGet(t, hi, keys[1])
			if i == 0 {
				got0, got1 = v0, v1
			}
		}()
	}
	rwg.Wait()
	_ = h
	if got0 != "<value>r0</value>" || got1 != "<value>r1</value>" {
		t.Errorf("committed reads = %q, %q", got0, got1)
	}
}

func TestSendTxnValidatesArgs(t *testing.T) {
	c := newTxnKVCluster(t, 1, 1, 2)
	ts := c.Handler("client", 0).(TxnSender)
	if _, err := ts.SendTxn("kv", nil, nil, 0); err == nil {
		t.Error("SendTxn with no keys succeeded")
	}
	if _, err := ts.SendTxn("kv", []string{"a"}, [][]byte{[]byte("x"), []byte("y")}, 0); err == nil {
		t.Error("SendTxn with mismatched lengths succeeded")
	}
	if _, err := ts.SendTxn("nowhere", []string{"a"}, [][]byte{[]byte("x")}, 0); err == nil {
		t.Error("SendTxn to unknown service succeeded")
	}
}

func TestTxnOutcomeBodyCodec(t *testing.T) {
	id, commit, ok := DecodeTxnOutcome(TxnOutcomeBody("c:txn:7", true))
	if !ok || id != "c:txn:7" || !commit {
		t.Errorf("outcome round trip = (%q, %v, %v)", id, commit, ok)
	}
	id, commit, ok = DecodeTxnOutcome(TxnOutcomeBody("c:txn:8", false))
	if !ok || id != "c:txn:8" || commit {
		t.Errorf("abort outcome round trip = (%q, %v, %v)", id, commit, ok)
	}
	for _, junk := range [][]byte{nil, []byte("<interaction/>"), []byte("put:a=b"), []byte("<txnOutcome/>")} {
		if _, _, ok := DecodeTxnOutcome(junk); ok {
			t.Errorf("junk %q decoded as outcome", junk)
		}
	}
}
