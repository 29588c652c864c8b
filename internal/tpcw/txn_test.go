package tpcw

import (
	"sync"
	"testing"

	"perpetualws/internal/core"
	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

// customersOnShards returns one customer id per shard index (< limit).
func customersOnShards(t *testing.T, shards, limit int) []int {
	t.Helper()
	out := make([]int, shards)
	for k := range out {
		found := false
		for c := 0; c < limit; c++ {
			if perpetual.ShardFor([]byte(CustomerKey(c)), shards) == k {
				out[k] = c
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no customer below %d routes to shard %d", limit, k)
		}
	}
	return out
}

// stockCart puts exactly qty units of item into the customer's cart
// through the public interaction path.
func stockCart(t *testing.T, client *StoreClient, customer, item, qty int) {
	t.Helper()
	s := &Session{CustomerID: customer}
	for i := 0; i < qty; i++ {
		// The add-to-cart arg names the item; each call adds quantity 1.
		if _, err := client.Execute(ShoppingCart, s, item); err != nil {
			t.Fatalf("ShoppingCart for %d: %v", customer, err)
		}
	}
}

func TestTransferOrderCommitsAcrossShards(t *testing.T) {
	// The acceptance scenario's commit half: a 2-shard, N=4 store; a
	// cart transfer between customers on different shards must apply on
	// both or neither.
	const shards = 2
	_, client := newShardedStoreCluster(t, 4, shards)
	custs := customersOnShards(t, shards, 64)
	from, to := custs[0], custs[1]
	const item = 7
	stockCart(t, client, from, item, 1)

	res, err := client.TransferOrder(from, to, item, 1)
	if err != nil {
		t.Fatalf("TransferOrder: %v", err)
	}
	if !res.Committed {
		t.Fatalf("transfer aborted: %+v", res)
	}
	for i, v := range res.Votes {
		if !v.Commit || v.Aborted {
			t.Errorf("vote %d = %+v", i, v)
		}
	}
	// The units left the source: a second identical transfer must abort
	// (the source cart no longer holds the item) without touching the
	// destination.
	res, err = client.TransferOrder(from, to, item, 1)
	if err != nil {
		t.Fatalf("second TransferOrder: %v", err)
	}
	if res.Committed {
		t.Fatal("transfer out of an empty cart committed")
	}
	if res.Votes[0].Commit {
		t.Errorf("source voted commit without the item: %+v", res.Votes[0])
	}
	// The units arrived at the destination: transferring them back
	// commits.
	res, err = client.TransferOrder(to, from, item, 1)
	if err != nil {
		t.Fatalf("transfer back: %v", err)
	}
	if !res.Committed {
		t.Fatalf("transfer back aborted — units never arrived: %+v", res)
	}
}

func TestTransferOrderAbortLeavesNoResidue(t *testing.T) {
	// An abort on the destination side (invalid item) must release the
	// source's reservation, leaving the cart intact for checkout.
	const shards = 2
	_, client := newShardedStoreCluster(t, 1, shards)
	custs := customersOnShards(t, shards, 64)
	from, to := custs[0], custs[1]
	const item = 11
	stockCart(t, client, from, item, 1)

	res, err := client.TransferOrder(from, to, -1, 1) // destination rejects the item
	if err != nil {
		t.Fatalf("TransferOrder: %v", err)
	}
	if res.Committed {
		t.Fatal("transfer of an invalid item committed")
	}
	// The reservation was released: the same unit can still transfer.
	res, err = client.TransferOrder(from, to, item, 1)
	if err != nil {
		t.Fatalf("retry TransferOrder: %v", err)
	}
	if !res.Committed {
		t.Fatalf("retry aborted — the failed transfer leaked its reservation: %+v", res)
	}
}

func TestTransferOrderRejectsNegativeDestination(t *testing.T) {
	// Regression: a negative destination id survives the customer-range
	// wrap (Go's % keeps the sign), so the TransferIn leg used to vote
	// commit and then fail CartAdd silently at commit time — the source
	// dropped its hold and the units vanished. The destination shard now
	// refuses at prepare (an abort vote), keeping the transfer atomic.
	const shards = 2
	_, client := newShardedStoreCluster(t, 1, shards)
	custs := customersOnShards(t, shards, 64)
	from := custs[0]
	const item = 5
	stockCart(t, client, from, item, 1)

	res, err := client.TransferOrder(from, -3, item, 1)
	if err != nil {
		t.Fatalf("TransferOrder: %v", err)
	}
	if res.Committed {
		t.Fatal("transfer to a negative customer committed")
	}
	// The source kept its units: the same unit still transfers to a
	// valid destination.
	res, err = client.TransferOrder(from, custs[1], item, 1)
	if err != nil || !res.Committed {
		t.Fatalf("follow-up transfer = %+v, %v", res, err)
	}
}

func TestTransferOrderSameShardDegenerates(t *testing.T) {
	// Both customers on one shard: the transaction has a single
	// participant group receiving both legs; atomicity still holds.
	const shards = 2
	_, client := newShardedStoreCluster(t, 1, shards)
	var from, to = -1, -1
	for c := 0; c < 64 && to < 0; c++ {
		if perpetual.ShardFor([]byte(CustomerKey(c)), shards) != 0 {
			continue
		}
		if from < 0 {
			from = c
		} else {
			to = c
		}
	}
	if from < 0 || to < 0 {
		t.Fatal("could not find two shard-0 customers")
	}
	const item = 3
	stockCart(t, client, from, item, 1)
	res, err := client.TransferOrder(from, to, item, 1)
	if err != nil || !res.Committed {
		t.Fatalf("same-shard transfer = %+v, %v", res, err)
	}
	if res, err = client.TransferOrder(to, from, item, 1); err != nil || !res.Committed {
		t.Fatalf("same-shard transfer back = %+v, %v", res, err)
	}
}

func TestTransferOrderToleratesFaultyVoterPerGroup(t *testing.T) {
	// The acceptance scenario's fault half: one corrupt-result voter in
	// the replicated caller group and in each N=4 store shard group;
	// every caller replica must reach the same agreed decision.
	const shards = 2
	cluster, err := core.NewCluster([]byte("tpcw-txn-bft"),
		core.ServiceDef{Name: "client", N: 4,
			Options: faultyOpts(map[int]perpetual.Behavior{1: perpetual.CorruptResultFault{}})},
		core.ServiceDef{
			Name: "store", N: 4, Shards: shards,
			App:     StoreApp(StoreConfig{Items: 100, Customers: 64}),
			Options: faultyOpts(map[int]perpetual.Behavior{1: perpetual.CorruptResultFault{}}),
		},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cluster.Start()
	t.Cleanup(cluster.Stop)

	custs := customersOnShards(t, shards, 64)
	from, to := custs[0], custs[1]
	const item = 23

	results := make([]*perpetual.TxnResult, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		client := &StoreClient{
			Handler:       cluster.Handler("client", i),
			Service:       "store",
			NumCustomers:  64,
			TimeoutMillis: 20_000,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every caller replica runs the identical deterministic
			// sequence, as a replicated executor would.
			stockCart(t, client, from, item, 1)
			results[i], errs[i] = client.TransferOrder(from, to, item, 1)
		}()
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if errs[i] != nil {
			t.Fatalf("caller replica %d: %v", i, errs[i])
		}
		if !results[i].Committed || results[i].TxnID != results[0].TxnID {
			t.Fatalf("caller replica %d decided %+v, replica 0 decided %+v", i, results[i], results[0])
		}
	}
}

func TestLookalikeOutcomeBodyDoesNotReleaseHolds(t *testing.T) {
	// A client mailing a <txnOutcome> body as an ordinary interaction
	// must not be treated as an agreed transaction outcome: the store
	// only honors outcome bodies on contexts the node marked with
	// core.PropTxnOutcome.
	const shards = 2
	cluster, client := newShardedStoreCluster(t, 1, shards)
	_ = cluster
	custs := customersOnShards(t, shards, 64)

	req := wsengineOutcomeRequest(custs[0], "client:txn:1")
	reply, err := client.Handler.SendReceive(req)
	if err != nil {
		t.Fatalf("SendReceive: %v", err)
	}
	// The body fell through to the interaction decoder, which faults on
	// it — proving the txn path did not swallow it.
	if f, isFault := soap.IsFault(reply.Envelope.Body); !isFault {
		t.Errorf("lookalike outcome body was not rejected: %q", reply.Envelope.Body)
	} else if f.Reason == "" {
		t.Error("fault carries no reason")
	}
}

// wsengineOutcomeRequest builds an ordinary store request whose body
// imitates a transaction outcome.
func wsengineOutcomeRequest(customer int, txnID string) *wsengine.MessageContext {
	req := wsengine.NewMessageContext()
	req.Options.To = soap.ServiceURI("store")
	req.Options.Action = ActionInteraction
	req.Options.RoutingKey = CustomerKey(customer)
	req.Envelope.Body = core.TxnOutcomeBody(txnID, true)
	return req
}

func TestPrepareAfterOutcomeIsRefused(t *testing.T) {
	// A PREPARE withheld by a faulty shard primary can be agreed after
	// the coordinator (having settled the timed-out PREPARE on its own
	// side) already fanned out the transaction's abort. Reserving at
	// that point would hold the units forever — no further outcome will
	// arrive to release them — so the late PREPARE must be refused.
	db := NewDB(10, 4)
	st := newStoreTxns(NewBookstore(db, nil))
	if err := db.CartAdd(1, 2, 3); err != nil {
		t.Fatal(err)
	}

	const txn = "c:txn:1"
	if body := st.outcome(txn, false); string(body) != "<transferDone/>" {
		t.Fatalf("abort outcome ack = %q", body)
	}
	late := st.prepare(txn, EncodeTransfer(TransferOut, 1, 2, 1))
	if _, isFault := soap.IsFault(late); !isFault {
		t.Fatalf("late PREPARE after outcome = %q, want fault (abort vote)", late)
	}
	if db.Holds() != 0 {
		t.Fatalf("late PREPARE leaked %d holds", db.Holds())
	}
	if got := db.Cart(1); len(got) != 1 || got[0].Qty != 3 {
		t.Errorf("cart disturbed by refused PREPARE: %+v", got)
	}

	// A fresh transaction on the same replica is unaffected.
	ready := st.prepare("c:txn:2", EncodeTransfer(TransferOut, 1, 2, 1))
	if _, isFault := soap.IsFault(ready); isFault {
		t.Fatalf("fresh PREPARE refused: %q", ready)
	}
}

func TestTransferCodecRoundTrip(t *testing.T) {
	side, cust, item, qty, ok := DecodeTransfer(EncodeTransfer(TransferOut, 5, 9, 2))
	if !ok || side != TransferOut || cust != 5 || item != 9 || qty != 2 {
		t.Errorf("round trip = (%q, %d, %d, %d, %v)", side, cust, item, qty, ok)
	}
	if _, _, _, _, ok := DecodeTransfer([]byte("<interaction/>")); ok {
		t.Error("interaction body decoded as transfer")
	}
}

func TestDBHolds(t *testing.T) {
	db := NewDB(10, 4)
	if err := db.CartAdd(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := db.CartReserve(1, 2, 2, "h1"); err != nil {
		t.Fatalf("CartReserve: %v", err)
	}
	if got := db.Cart(1); len(got) != 1 || got[0].Qty != 1 {
		t.Errorf("cart after reserve = %+v", got)
	}
	if err := db.CartReserve(1, 2, 5, "h2"); err == nil {
		t.Error("over-reserve succeeded")
	}
	if err := db.CartReserve(1, 2, 1, "h1"); err == nil {
		t.Error("duplicate hold ref succeeded")
	}
	if err := db.ReleaseHold("h1"); err != nil {
		t.Fatalf("ReleaseHold: %v", err)
	}
	if got := db.Cart(1); len(got) != 1 || got[0].Qty != 3 {
		t.Errorf("cart after release = %+v", got)
	}
	if err := db.CartReserve(1, 2, 3, "h3"); err != nil {
		t.Fatalf("reserve all: %v", err)
	}
	if got := db.Cart(1); len(got) != 0 {
		t.Errorf("cart after full reserve = %+v", got)
	}
	if err := db.CommitHold("h3"); err != nil {
		t.Fatalf("CommitHold: %v", err)
	}
	if db.Holds() != 0 {
		t.Errorf("holds left: %d", db.Holds())
	}
	if err := db.CommitHold("h3"); err == nil {
		t.Error("double commit succeeded")
	}
	if err := db.ReleaseHold("nope"); err == nil {
		t.Error("release of unknown hold succeeded")
	}
}
