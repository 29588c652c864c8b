package tpcw

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"perpetualws/internal/core"
	"perpetualws/internal/perpetual"
)

func approveAll(card string, amountCts int64) (bool, string, error) {
	return true, "txn-test", nil
}

func TestDBPopulation(t *testing.T) {
	db := NewDB(100, 10)
	if db.Items() != 100 || db.Customers() != 10 {
		t.Fatalf("sizes = %d items, %d customers", db.Items(), db.Customers())
	}
	it, ok := db.Item(5)
	if !ok || it.ID != 5 || it.CostCts <= 0 || it.Stock <= 0 {
		t.Errorf("item 5 = %+v", it)
	}
	if _, ok := db.Item(100); ok {
		t.Error("out-of-range item found")
	}
	if len(db.BestSellers()) == 0 || len(db.NewProducts()) == 0 {
		t.Error("empty best-seller or new-product lists")
	}
}

func TestCartAndOrderLifecycle(t *testing.T) {
	db := NewDB(50, 5)
	if err := db.CartAdd(1, 10, 2); err != nil {
		t.Fatalf("CartAdd: %v", err)
	}
	if err := db.CartAdd(1, 10, 1); err != nil {
		t.Fatalf("CartAdd merge: %v", err)
	}
	cart := db.Cart(1)
	if len(cart) != 1 || cart[0].Qty != 3 {
		t.Fatalf("cart = %+v", cart)
	}
	it, _ := db.Item(10)
	if got, want := db.CartTotal(1), it.CostCts*3; got != want {
		t.Errorf("CartTotal = %d, want %d", got, want)
	}
	stockBefore := it.Stock

	o, err := db.PlaceOrder(1)
	if err != nil {
		t.Fatalf("PlaceOrder: %v", err)
	}
	if o.Status != OrderPending || o.TotalCts != it.CostCts*3 {
		t.Errorf("order = %+v", o)
	}
	if len(db.Cart(1)) != 0 {
		t.Error("cart not cleared after order")
	}
	it, _ = db.Item(10)
	if it.Stock != stockBefore-3 {
		t.Errorf("stock = %d, want %d", it.Stock, stockBefore-3)
	}
	if err := db.SetOrderOutcome(o.ID, true, "txn-1"); err != nil {
		t.Fatalf("SetOrderOutcome: %v", err)
	}
	got, _ := db.Order(o.ID)
	if got.Status != OrderAuthorized || got.AuthTxn != "txn-1" {
		t.Errorf("order after outcome = %+v", got)
	}
	last, ok := db.LastOrderOf(1)
	if !ok || last != o.ID {
		t.Errorf("LastOrderOf = %d, %v", last, ok)
	}
}

func TestPlaceOrderValidation(t *testing.T) {
	db := NewDB(10, 2)
	if _, err := db.PlaceOrder(0); err == nil {
		t.Error("order from empty cart succeeded")
	}
	if _, err := db.PlaceOrder(99); err == nil {
		t.Error("order from unknown customer succeeded")
	}
	if err := db.CartAdd(0, 99, 1); err == nil {
		t.Error("added unknown item to cart")
	}
	if err := db.CartAdd(0, 1, 0); err == nil {
		t.Error("added zero quantity")
	}
}

func TestAllInteractionsExecute(t *testing.T) {
	db := NewDB(200, 8)
	store := NewBookstore(db, PaymentAuthorizerFunc(approveAll))
	s := &Session{CustomerID: 3}
	for i := Interaction(0); i < NumInteractions; i++ {
		page, err := store.Execute(i, s, 7)
		if err != nil {
			t.Fatalf("%s: %v", i, err)
		}
		if page.Interaction != i || page.Size <= 0 {
			t.Errorf("%s: page = %+v", i, page)
		}
	}
	counts := store.Counts()
	for i := Interaction(0); i < NumInteractions; i++ {
		if counts[i] != 1 {
			t.Errorf("%s executed %d times", i, counts[i])
		}
	}
	if store.PGECalls() != 1 {
		t.Errorf("PGECalls = %d, want 1 (one buy_confirm)", store.PGECalls())
	}
}

func TestBuyConfirmRecordsOutcome(t *testing.T) {
	db := NewDB(50, 4)
	store := NewBookstore(db, PaymentAuthorizerFunc(approveAll))
	s := &Session{CustomerID: 2, LastItem: 7}
	if _, err := store.Execute(ShoppingCart, s, 1); err != nil {
		t.Fatalf("ShoppingCart: %v", err)
	}
	page, err := store.Execute(BuyConfirm, s, 0)
	if err != nil {
		t.Fatalf("BuyConfirm: %v", err)
	}
	if page.Detail != "approved" {
		t.Errorf("detail = %q", page.Detail)
	}
	o, ok := db.Order(s.LastOrder)
	if !ok || o.Status != OrderAuthorized {
		t.Errorf("order = %+v", o)
	}
}

func TestBuyConfirmSurvivesPaymentFailure(t *testing.T) {
	db := NewDB(50, 4)
	deny := PaymentAuthorizerFunc(func(string, int64) (bool, string, error) {
		return false, "", errTest
	})
	store := NewBookstore(db, deny)
	s := &Session{CustomerID: 1, LastItem: 3}
	page, err := store.Execute(BuyConfirm, s, 0)
	if err != nil {
		t.Fatalf("BuyConfirm with failing gateway: %v", err)
	}
	if page.Detail != "payment unavailable" {
		t.Errorf("detail = %q", page.Detail)
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "gateway down" }

func TestMixDistributionProperty(t *testing.T) {
	// The shopping mix must produce buy confirmations within the paper's
	// 5-10% band, and every interaction must be reachable.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mix := ShoppingMix()
		var counts [NumInteractions]int
		const n = 20000
		for i := 0; i < n; i++ {
			counts[mix.Pick(rng)]++
		}
		buyFrac := float64(counts[BuyConfirm]) / n
		if buyFrac < 0.05 || buyFrac > 0.10 {
			return false
		}
		for i := Interaction(0); i < NumInteractions; i++ {
			if counts[i] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBankDecisionDeterministic(t *testing.T) {
	a1, t1 := BankDecision("4111-1111", 995)
	a2, t2 := BankDecision("4111-1111", 995)
	if a1 != a2 || t1 != t2 {
		t.Error("BankDecision is not deterministic")
	}
	// Pinned outputs: every bank replica, old or new, must decide alike.
	for _, c := range []struct {
		card     string
		amount   int64
		approved bool
		txn      string
	}{
		{"4111-1111", 995, true, "txn-517633eee4fb"},
		{"4111-0001-0007", 12345, false, "txn-50494e28e822"},
		{"", 0, true, "txn-af5570f5a181"},
		{"card", -1, true, "txn-688b0f0f7fd7"},
	} {
		if approved, txn := BankDecision(c.card, c.amount); approved != c.approved || txn != c.txn {
			t.Errorf("BankDecision(%q, %d) = %v, %q; want %v, %q", c.card, c.amount, approved, txn, c.approved, c.txn)
		}
	}
	// Roughly 5% declines over many cards.
	declines := 0
	const n = 2000
	for i := 0; i < n; i++ {
		approved, _ := BankDecision("card", int64(i))
		if !approved {
			declines++
		}
	}
	frac := float64(declines) / n
	if frac < 0.01 || frac > 0.12 {
		t.Errorf("decline fraction = %.3f", frac)
	}
}

func TestAuthorizePayloadRoundTrip(t *testing.T) {
	body := EncodeAuthorize("4111-0000-1111", 12345)
	card, amount, err := DecodeAuthorize(body)
	if err != nil {
		t.Fatalf("DecodeAuthorize: %v", err)
	}
	if card != "4111-0000-1111" || amount != 12345 {
		t.Errorf("decoded %q %d", card, amount)
	}
	reply := EncodeAuthorization(true, "txn-9")
	approved, txn, err := DecodeAuthorization(reply)
	if err != nil {
		t.Fatalf("DecodeAuthorization: %v", err)
	}
	if !approved || txn != "txn-9" {
		t.Errorf("decoded %v %q", approved, txn)
	}
}

// TestAuthorizeCodecAllocBudget pins the payment tier's codecs at one
// allocation each on canonical input: the encoded buffer, or the one
// decoded string.
func TestAuthorizeCodecAllocBudget(t *testing.T) {
	req := EncodeAuthorize("4111-0001-0007", 12345)
	reply := EncodeAuthorization(true, "txn-0a1b2c3d4e5f")
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"EncodeAuthorize", func() { EncodeAuthorize("4111-0001-0007", 12345) }},
		{"DecodeAuthorize", func() {
			if _, _, err := DecodeAuthorize(req); err != nil {
				t.Fatal(err)
			}
		}},
		{"EncodeAuthorization", func() { EncodeAuthorization(true, "txn-0a1b2c3d4e5f") }},
		{"DecodeAuthorization", func() {
			if _, _, err := DecodeAuthorization(reply); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.f); got > 1 {
			t.Errorf("%s: %.0f allocs per run, budget 1", c.name, got)
		}
	}
}

func TestRBEFleetDrivesStore(t *testing.T) {
	db := NewDB(200, 16)
	store := NewBookstore(db, PaymentAuthorizerFunc(approveAll))
	fleet := NewRBEFleet(RBEConfig{
		Count:     8,
		ThinkTime: time.Millisecond,
		Seed:      42,
	}, store)
	wips := fleet.MeasureWIPS(300 * time.Millisecond)
	if wips <= 0 {
		t.Errorf("WIPS = %f", wips)
	}
	if fleet.Errors() > fleet.Interactions()/10 {
		t.Errorf("too many errors: %d of %d", fleet.Errors(), fleet.Interactions())
	}
}

// fastOpts tunes Perpetual services for test speed.
func fastOpts() perpetual.ServiceOptions {
	return perpetual.ServiceOptions{
		CheckpointInterval: 32,
		ViewChangeTimeout:  500 * time.Millisecond,
		RetransmitInterval: 300 * time.Millisecond,
	}
}

// faultyOpts is fastOpts with Byzantine behaviors by replica index.
func faultyOpts(faults map[int]perpetual.Behavior) perpetual.ServiceOptions {
	opts := fastOpts()
	opts.Behaviors = faults
	return opts
}

// TestEndToEndTPCW wires the full Figure 5 configuration: RBEs ->
// bookstore -> replicated PGE -> replicated Bank, with asynchronous
// payment-tier messaging.
func TestEndToEndTPCW(t *testing.T) {
	cluster, err := core.NewCluster([]byte("tpcw"),
		core.ServiceDef{Name: "store", N: 1, Options: fastOpts()},
		core.ServiceDef{Name: "pge", N: 4, App: PGEAsyncApp("bank"), Options: fastOpts()},
		core.ServiceDef{Name: "bank", N: 4, App: BankApp(), Options: fastOpts()},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cluster.Start()
	t.Cleanup(cluster.Stop)

	gateway := &GatewayClient{Handler: cluster.Handler("store", 0), Service: "pge"}
	db := NewDB(200, 16)
	store := NewBookstore(db, gateway)
	fleet := NewRBEFleet(RBEConfig{
		Count:     6,
		ThinkTime: 2 * time.Millisecond,
		Seed:      7,
	}, store)
	fleet.Start()
	time.Sleep(1 * time.Second)
	fleet.Stop()

	if fleet.Interactions() == 0 {
		t.Fatal("no interactions completed")
	}
	if store.PGECalls() == 0 {
		t.Fatal("no PGE calls made; mix did not reach buy_confirm")
	}
	if orders := db.Orders(); orders == 0 {
		t.Error("no orders placed")
	}
	t.Logf("interactions=%d pgeCalls=%d errors=%d", fleet.Interactions(), store.PGECalls(), fleet.Errors())
}

// TestGatewayClientConcurrency exercises concurrent authorizations from
// many RBE goroutines through one handler.
func TestGatewayClientConcurrency(t *testing.T) {
	cluster, err := core.NewCluster([]byte("gw"),
		core.ServiceDef{Name: "store", N: 1, Options: fastOpts()},
		core.ServiceDef{Name: "pge", N: 1, App: PGESyncApp("bank"), Options: fastOpts()},
		core.ServiceDef{Name: "bank", N: 1, App: BankApp(), Options: fastOpts()},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cluster.Start()
	t.Cleanup(cluster.Stop)

	gw := &GatewayClient{Handler: cluster.Handler("store", 0), Service: "pge"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			approved, txn, err := gw.Authorize("4111-2222", int64(1000+i))
			if err != nil {
				t.Errorf("Authorize %d: %v", i, err)
				return
			}
			wantApproved, wantTxn := BankDecision("4111-2222", int64(1000+i))
			if approved != wantApproved || txn != wantTxn {
				t.Errorf("Authorize %d = %v %q, want %v %q", i, approved, txn, wantApproved, wantTxn)
			}
		}()
	}
	wg.Wait()
}
