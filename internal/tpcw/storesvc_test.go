package tpcw

import (
	"testing"
	"time"

	"perpetualws/internal/core"
)

func TestInteractionCodecRoundTrip(t *testing.T) {
	body := EncodeInteraction(17, BuyConfirm, 42)
	cust, kind, arg, err := DecodeInteraction(body)
	if err != nil || cust != 17 || kind != BuyConfirm || arg != 42 {
		t.Fatalf("round trip = (%d, %v, %d, %v)", cust, kind, arg, err)
	}
	page, err := DecodePage(EncodePage(Page{Interaction: Home, Size: 4000, Detail: "home"}))
	if err != nil || page.Interaction != Home || page.Size != 4000 || page.Detail != "home" {
		t.Fatalf("page round trip = (%+v, %v)", page, err)
	}
	if _, _, _, err := DecodeInteraction([]byte("<interaction kind=\"99\"/>")); err == nil {
		t.Error("decoded out-of-range interaction kind")
	}
}

// newStoreCluster deploys client -> store (one group of n replicas)
// with local payment authorization.
func newStoreCluster(t *testing.T, n int) *StoreClient {
	t.Helper()
	cluster, err := core.NewCluster([]byte("tpcw-store-test"),
		core.ServiceDef{Name: "client", N: 1, Options: fastOpts()},
		core.ServiceDef{
			Name:    "store",
			N:       n,
			App:     StoreApp(StoreConfig{Items: 100, Customers: 64}),
			Options: fastOpts(),
		},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cluster.Start()
	t.Cleanup(cluster.Stop)
	return &StoreClient{
		Handler:      cluster.Handler("client", 0),
		Service:      "store",
		NumCustomers: 64,
	}
}

func TestStoreCartCarriesAcrossInteractions(t *testing.T) {
	// A customer's cart must survive across interactions: add to cart,
	// then buy, and the order sees the cart.
	client := newStoreCluster(t, 1)
	for cust := 0; cust < 8; cust++ {
		s := &Session{CustomerID: cust}
		if _, err := client.Execute(ProductDetail, s, cust*3+1); err != nil {
			t.Fatalf("ProductDetail for %d: %v", cust, err)
		}
		if _, err := client.Execute(ShoppingCart, s, 1); err != nil {
			t.Fatalf("ShoppingCart for %d: %v", cust, err)
		}
		page, err := client.Execute(BuyConfirm, s, 0)
		if err != nil {
			t.Fatalf("BuyConfirm for %d: %v", cust, err)
		}
		if page.Detail != "approved" && page.Detail != "declined" {
			t.Errorf("customer %d: buy confirm outcome %q", cust, page.Detail)
		}
	}
}

func TestReplicatedStorePageFlow(t *testing.T) {
	// A store of N=4 is a full BFT group; the page flow still works end
	// to end through StoreClient.
	client := newStoreCluster(t, 4)
	s := &Session{CustomerID: 5}
	if _, err := client.Execute(Home, s, 0); err != nil {
		t.Fatalf("Home: %v", err)
	}
	if _, err := client.Execute(BestSellers, s, 2); err != nil {
		t.Fatalf("BestSellers: %v", err)
	}
}

func TestRBEFleetOverStore(t *testing.T) {
	// The RBE fleet (the paper's load generator) drives the replicated
	// store service through the Storefront seam.
	client := newStoreCluster(t, 1)
	fleet := NewRBEFleet(RBEConfig{Count: 4, ThinkTime: time.Millisecond, Seed: 9}, client)
	wips := fleet.MeasureWIPS(400 * time.Millisecond)
	if fleet.Errors() > 0 {
		t.Errorf("fleet saw %d errors", fleet.Errors())
	}
	if wips <= 0 {
		t.Errorf("WIPS = %v, want > 0", wips)
	}
}
