// Package tpcw implements the TPC-W web e-commerce benchmark substrate
// used by the paper's macro evaluation (Section 6.1): an online
// bookstore with twelve distinct web interactions, an in-memory database
// standing in for the MySQL image store, Remote Browser Emulators (RBEs)
// that generate the TPC-W traffic mix with think times, and a Payment
// Gateway Emulator (PGE) plus credit-card-issuing Bank implemented as
// Perpetual-WS services. Around 5-10% of bookstore traffic (the buy
// confirmations) results in requests to the PGE, which in turn calls the
// Bank — the three-tier call chain of the paper's Figure 5.
package tpcw

import (
	"fmt"
	"sync"
)

// Database sizing defaults (scaled-down TPC-W, preserving access
// patterns rather than storage volume).
const (
	DefaultItems     = 1000
	DefaultCustomers = 288
)

// Item is one book in the store.
type Item struct {
	ID      int
	Title   string
	Author  string
	CostCts int64 // price in cents
	Stock   int
	Subject string
}

// Customer is a registered buyer.
type Customer struct {
	ID       int
	Name     string
	Card     string // credit card token
	OrderIDs []int
}

// OrderLine is one item within an order.
type OrderLine struct {
	ItemID int
	Qty    int
}

// OrderStatus tracks an order's lifecycle.
type OrderStatus int

// Order lifecycle states.
const (
	OrderPending OrderStatus = iota + 1
	OrderAuthorized
	OrderDeclined
)

// String names the status.
func (s OrderStatus) String() string {
	switch s {
	case OrderPending:
		return "pending"
	case OrderAuthorized:
		return "authorized"
	case OrderDeclined:
		return "declined"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Order is a purchase.
type Order struct {
	ID         int
	CustomerID int
	Lines      []OrderLine
	TotalCts   int64
	Status     OrderStatus
	AuthTxn    string
}

// subjects used for browsing categories.
var subjects = []string{
	"ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS",
	"COOKING", "HEALTH", "HISTORY", "HOME", "HUMOR", "LITERATURE",
	"MYSTERY", "NON-FICTION", "PARENTING", "POLITICS", "REFERENCE",
	"RELIGION", "ROMANCE", "SELF-HELP", "SCIENCE-NATURE", "SCIENCE-FICTION",
	"SPORTS", "YOUTH", "TRAVEL",
}

// DB is the bookstore's in-memory database. It replaces the paper's
// co-located MySQL instance; the bookstore tier is unreplicated in the
// paper's configuration, so only its call pattern to the PGE matters for
// the benchmark, not its storage engine.
type DB struct {
	mu        sync.RWMutex
	items     []Item
	customers []Customer
	orders    []Order
	carts     map[int][]OrderLine // customer -> active cart
	bestSell  []int               // precomputed best-seller item ids
	newProd   []int               // precomputed newest item ids
}

// NewDB populates a deterministic database with nItems items and
// nCustomers customers.
func NewDB(nItems, nCustomers int) *DB {
	if nItems <= 0 {
		nItems = DefaultItems
	}
	if nCustomers <= 0 {
		nCustomers = DefaultCustomers
	}
	db := &DB{carts: make(map[int][]OrderLine)}
	db.items = make([]Item, nItems)
	for i := range db.items {
		db.items[i] = Item{
			ID:      i,
			Title:   fmt.Sprintf("Book #%d", i),
			Author:  fmt.Sprintf("Author %d", i%97),
			CostCts: int64(500 + (i*37)%9500),
			Stock:   100 + i%400,
			Subject: subjects[i%len(subjects)],
		}
	}
	db.customers = make([]Customer, nCustomers)
	for i := range db.customers {
		db.customers[i] = Customer{
			ID:   i,
			Name: fmt.Sprintf("Customer %d", i),
			Card: fmt.Sprintf("4111-%04d-%04d", i%10000, (i*7)%10000),
		}
	}
	for i := 0; i < 50 && i < nItems; i++ {
		db.bestSell = append(db.bestSell, (i*31)%nItems)
		db.newProd = append(db.newProd, nItems-1-i)
	}
	return db
}

// Items returns the item count.
func (db *DB) Items() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.items)
}

// Customers returns the customer count.
func (db *DB) Customers() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.customers)
}

// Item returns a copy of the item with the given id.
func (db *DB) Item(id int) (Item, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if id < 0 || id >= len(db.items) {
		return Item{}, false
	}
	return db.items[id], true
}

// Customer returns a copy of the customer with the given id.
func (db *DB) Customer(id int) (Customer, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if id < 0 || id >= len(db.customers) {
		return Customer{}, false
	}
	c := db.customers[id]
	c.OrderIDs = append([]int(nil), c.OrderIDs...)
	return c, true
}

// BestSellers returns the precomputed best-seller list.
func (db *DB) BestSellers() []int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]int(nil), db.bestSell...)
}

// NewProducts returns the precomputed newest-item list.
func (db *DB) NewProducts() []int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]int(nil), db.newProd...)
}

// Search returns item ids whose subject matches.
func (db *DB) Search(subject string, limit int) []int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []int
	for i := range db.items {
		if db.items[i].Subject == subject {
			out = append(out, db.items[i].ID)
			if len(out) == limit {
				break
			}
		}
	}
	return out
}

// CartAdd adds an item to a customer's cart.
func (db *DB) CartAdd(customerID, itemID, qty int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if customerID < 0 || customerID >= len(db.customers) {
		return fmt.Errorf("tpcw: unknown customer %d", customerID)
	}
	if itemID < 0 || itemID >= len(db.items) {
		return fmt.Errorf("tpcw: unknown item %d", itemID)
	}
	if qty <= 0 {
		return fmt.Errorf("tpcw: non-positive quantity %d", qty)
	}
	cart := db.carts[customerID]
	for i := range cart {
		if cart[i].ItemID == itemID {
			cart[i].Qty += qty
			db.carts[customerID] = cart
			return nil
		}
	}
	db.carts[customerID] = append(cart, OrderLine{ItemID: itemID, Qty: qty})
	return nil
}

// Cart returns a copy of the customer's cart.
func (db *DB) Cart(customerID int) []OrderLine {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]OrderLine(nil), db.carts[customerID]...)
}

// CartTotal computes the cart's price in cents.
func (db *DB) CartTotal(customerID int) int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var total int64
	for _, l := range db.carts[customerID] {
		if l.ItemID >= 0 && l.ItemID < len(db.items) {
			total += db.items[l.ItemID].CostCts * int64(l.Qty)
		}
	}
	return total
}

// PlaceOrder converts the customer's cart into a pending order and
// clears the cart, decrementing stock.
func (db *DB) PlaceOrder(customerID int) (Order, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if customerID < 0 || customerID >= len(db.customers) {
		return Order{}, fmt.Errorf("tpcw: unknown customer %d", customerID)
	}
	cart := db.carts[customerID]
	if len(cart) == 0 {
		return Order{}, fmt.Errorf("tpcw: customer %d has an empty cart", customerID)
	}
	var total int64
	for _, l := range cart {
		it := &db.items[l.ItemID]
		if it.Stock < l.Qty {
			return Order{}, fmt.Errorf("tpcw: item %d out of stock", l.ItemID)
		}
		total += it.CostCts * int64(l.Qty)
	}
	for _, l := range cart {
		db.items[l.ItemID].Stock -= l.Qty
	}
	o := Order{
		ID:         len(db.orders),
		CustomerID: customerID,
		Lines:      append([]OrderLine(nil), cart...),
		TotalCts:   total,
		Status:     OrderPending,
	}
	db.orders = append(db.orders, o)
	db.customers[customerID].OrderIDs = append(db.customers[customerID].OrderIDs, o.ID)
	delete(db.carts, customerID)
	return o, nil
}

// SetOrderOutcome records the payment authorization outcome.
func (db *DB) SetOrderOutcome(orderID int, approved bool, txn string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if orderID < 0 || orderID >= len(db.orders) {
		return fmt.Errorf("tpcw: unknown order %d", orderID)
	}
	if approved {
		db.orders[orderID].Status = OrderAuthorized
	} else {
		db.orders[orderID].Status = OrderDeclined
	}
	db.orders[orderID].AuthTxn = txn
	return nil
}

// Order returns a copy of the order with the given id.
func (db *DB) Order(orderID int) (Order, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if orderID < 0 || orderID >= len(db.orders) {
		return Order{}, false
	}
	o := db.orders[orderID]
	o.Lines = append([]OrderLine(nil), o.Lines...)
	return o, true
}

// LastOrderOf returns the most recent order id of a customer.
func (db *DB) LastOrderOf(customerID int) (int, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if customerID < 0 || customerID >= len(db.customers) {
		return 0, false
	}
	ids := db.customers[customerID].OrderIDs
	if len(ids) == 0 {
		return 0, false
	}
	return ids[len(ids)-1], true
}

// Orders returns the number of orders placed.
func (db *DB) Orders() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.orders)
}

// Subjects returns the browsing categories.
func Subjects() []string { return append([]string(nil), subjects...) }
