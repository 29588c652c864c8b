package tpcw

import (
	"fmt"
	"sync/atomic"
)

// Interaction identifies one of the bookstore's twelve distinct web
// pages (paper Section 6.1).
type Interaction int

// The twelve TPC-W web interactions.
const (
	Home Interaction = iota
	NewProducts
	BestSellers
	ProductDetail
	SearchRequest
	SearchResults
	ShoppingCart
	CustomerRegistration
	BuyRequest
	BuyConfirm
	OrderInquiry
	OrderDisplay
	// CartView renders the customer's cart without mutating it — the
	// read-only companion of ShoppingCart (which adds an item). The
	// browse-heavy read-mix benchmark uses it to read back cart state
	// through the session fast path.
	CartView

	NumInteractions
)

// String names the interaction.
func (i Interaction) String() string {
	names := [...]string{
		"home", "new_products", "best_sellers", "product_detail",
		"search_request", "search_results", "shopping_cart",
		"customer_registration", "buy_request", "buy_confirm",
		"order_inquiry", "order_display", "cart_view",
	}
	if i < 0 || int(i) >= len(names) {
		return fmt.Sprintf("interaction(%d)", int(i))
	}
	return names[i]
}

// IsRead reports whether the interaction only reads database state —
// the operation-classification seam of the two-tier request path: reads
// may be served through the session fast path (speculative, no
// agreement); everything else must commit through full agreement.
// ShoppingCart adds to the cart and the two buy steps place/settle
// orders, so they are commits; every other page renders from reads.
func (i Interaction) IsRead() bool {
	switch i {
	case ShoppingCart, BuyRequest, BuyConfirm:
		return false
	}
	return i >= 0 && i < NumInteractions
}

// PaymentAuthorizer is the bookstore's interface to the payment gateway
// tier. The Perpetual-WS client handle implements it in the benchmark
// configuration; tests may stub it.
type PaymentAuthorizer interface {
	Authorize(card string, amountCts int64) (approved bool, txn string, err error)
}

// PaymentAuthorizerFunc adapts a function to PaymentAuthorizer.
type PaymentAuthorizerFunc func(card string, amountCts int64) (bool, string, error)

// Authorize implements PaymentAuthorizer.
func (f PaymentAuthorizerFunc) Authorize(card string, amountCts int64) (bool, string, error) {
	return f(card, amountCts)
}

// Storefront is the RBE-facing surface of the bookstore: either the
// in-process Bookstore or a StoreClient invoking a replicated store
// service through Perpetual-WS.
type Storefront interface {
	Execute(i Interaction, s *Session, arg int) (Page, error)
	Customers() int
}

// Bookstore serves the twelve TPC-W interactions over the in-memory DB,
// calling the payment tier on buy confirmations. It is safe for
// concurrent use by many RBEs.
type Bookstore struct {
	db  *DB
	pay PaymentAuthorizer

	interactions [NumInteractions]atomic.Uint64
	pgeCalls     atomic.Uint64
}

// NewBookstore creates a bookstore over db with the given payment tier.
func NewBookstore(db *DB, pay PaymentAuthorizer) *Bookstore {
	return &Bookstore{db: db, pay: pay}
}

// Customers implements Storefront.
func (b *Bookstore) Customers() int { return b.db.Customers() }

// Page is a rendered interaction result; Size approximates the page
// weight the servlet implementation would emit.
type Page struct {
	Interaction Interaction
	Size        int
	Detail      string
}

// Counts returns per-interaction completion counters.
func (b *Bookstore) Counts() map[Interaction]uint64 {
	out := make(map[Interaction]uint64, NumInteractions)
	for i := Interaction(0); i < NumInteractions; i++ {
		out[i] = b.interactions[i].Load()
	}
	return out
}

// PGECalls reports how many interactions resulted in payment-gateway
// requests.
func (b *Bookstore) PGECalls() uint64 { return b.pgeCalls.Load() }

func (b *Bookstore) done(i Interaction, size int, detail string) Page {
	b.interactions[i].Add(1)
	return Page{Interaction: i, Size: size, Detail: detail}
}

// Session is one emulated browser's state.
type Session struct {
	CustomerID  int
	LastItem    int
	LastSubject string
	LastOrder   int
}

// Execute runs one interaction for the session. Parameters that a real
// browser would supply (item ids, quantities) are drawn from rng by the
// RBE before calling.
func (b *Bookstore) Execute(i Interaction, s *Session, arg int) (Page, error) {
	switch i {
	case Home:
		c, ok := b.db.Customer(s.CustomerID)
		if !ok {
			return Page{}, fmt.Errorf("tpcw: session for unknown customer %d", s.CustomerID)
		}
		return b.done(Home, 4000+len(c.Name), "home"), nil
	case NewProducts:
		ids := b.db.NewProducts()
		if len(ids) > 0 {
			s.LastItem = ids[arg%len(ids)]
		}
		return b.done(NewProducts, 6000+len(ids)*40, "new products"), nil
	case BestSellers:
		ids := b.db.BestSellers()
		if len(ids) > 0 {
			s.LastItem = ids[arg%len(ids)]
		}
		return b.done(BestSellers, 6000+len(ids)*40, "best sellers"), nil
	case ProductDetail:
		item, ok := b.db.Item(abs(arg) % b.db.Items())
		if !ok {
			return Page{}, fmt.Errorf("tpcw: product detail for unknown item")
		}
		s.LastItem = item.ID
		return b.done(ProductDetail, 3500+len(item.Title), item.Title), nil
	case SearchRequest:
		subs := Subjects()
		s.LastSubject = subs[abs(arg)%len(subs)]
		return b.done(SearchRequest, 2500, s.LastSubject), nil
	case SearchResults:
		if s.LastSubject == "" {
			s.LastSubject = Subjects()[0]
		}
		ids := b.db.Search(s.LastSubject, 25)
		if len(ids) > 0 {
			s.LastItem = ids[abs(arg)%len(ids)]
		}
		return b.done(SearchResults, 3000+len(ids)*60, s.LastSubject), nil
	case ShoppingCart:
		// The add-to-cart request names its item (browsers submit it with
		// the form): with browse pages served through the stateless read
		// fast path, the server session no longer carries LastItem between
		// a product view and the add that follows it.
		item := abs(arg) % b.db.Items()
		if err := b.db.CartAdd(s.CustomerID, item, 1); err != nil {
			return Page{}, err
		}
		s.LastItem = item
		return b.done(ShoppingCart, 3200+len(b.db.Cart(s.CustomerID))*80, "cart"), nil
	case CartView:
		// Identical page weight formula to ShoppingCart, so a read-back
		// reflects exactly the cart length a prior add produced.
		return b.done(CartView, 3200+len(b.db.Cart(s.CustomerID))*80, "cart"), nil
	case CustomerRegistration:
		return b.done(CustomerRegistration, 2800, "registration"), nil
	case BuyRequest:
		// Ensure a non-empty cart (browsers reach buy_request after
		// shopping_cart, but the mix allows shortcuts).
		if len(b.db.Cart(s.CustomerID)) == 0 {
			if err := b.db.CartAdd(s.CustomerID, s.LastItem, 1); err != nil {
				return Page{}, err
			}
		}
		total := b.db.CartTotal(s.CustomerID)
		return b.done(BuyRequest, 3600, fmt.Sprintf("total=%d", total)), nil
	case BuyConfirm:
		return b.buyConfirm(s)
	case OrderInquiry:
		return b.done(OrderInquiry, 2200, "inquiry"), nil
	case OrderDisplay:
		id, ok := b.db.LastOrderOf(s.CustomerID)
		if !ok {
			return b.done(OrderDisplay, 2000, "no orders"), nil
		}
		o, _ := b.db.Order(id)
		s.LastOrder = id
		return b.done(OrderDisplay, 2600+len(o.Lines)*70, o.Status.String()), nil
	default:
		return Page{}, fmt.Errorf("tpcw: unknown interaction %d", int(i))
	}
}

// buyConfirm is the interaction that crosses tiers: the order is placed
// and the payment gateway (a Perpetual-WS service) authorizes it.
func (b *Bookstore) buyConfirm(s *Session) (Page, error) {
	if len(b.db.Cart(s.CustomerID)) == 0 {
		if err := b.db.CartAdd(s.CustomerID, s.LastItem, 1); err != nil {
			return Page{}, err
		}
	}
	order, err := b.db.PlaceOrder(s.CustomerID)
	if err != nil {
		return Page{}, err
	}
	cust, _ := b.db.Customer(s.CustomerID)
	b.pgeCalls.Add(1)
	approved, txn, err := b.pay.Authorize(cust.Card, order.TotalCts)
	if err != nil {
		// The payment tier aborted (e.g., compromised gateway): the
		// order stays pending; the page reports the failure. The store
		// remains live — fault isolation across tiers.
		return b.done(BuyConfirm, 3000, "payment unavailable"), nil
	}
	if err := b.db.SetOrderOutcome(order.ID, approved, txn); err != nil {
		return Page{}, err
	}
	s.LastOrder = order.ID
	outcome := "declined"
	if approved {
		outcome = "approved"
	}
	return b.done(BuyConfirm, 4200, outcome), nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
