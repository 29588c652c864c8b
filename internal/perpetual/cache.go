package perpetual

// boundedCache is a FIFO-eviction map used for delivered-result
// tracking and the driver's early-event tables. Perpetual state that
// grows with traffic must be bounded: a compromised peer can replay
// ancient request IDs forever, and an unbounded map would be a memory
// exhaustion vector. Not safe for concurrent use; callers hold the
// owner's mutex.
type boundedCache[V any] struct {
	max   int
	items map[string]slotted[V]
	order []slot // insertion order; evictions pop the front
	next  uint64 // the stamp of the next insertion
}

// slot is one insertion of key. A key deleted and put again has a newer
// slot, and evicting its older one must not take it.
type slot struct {
	key   string
	stamp uint64
}

// slotted is a live value and the stamp of its key's current slot.
type slotted[V any] struct {
	v     V
	stamp uint64
}

func newBoundedCache[V any](max int) *boundedCache[V] {
	if max < 1 {
		max = 1
	}
	// The map starts empty and grows with use: max is an abuse bound,
	// not an expected size, and preallocating it for every cache of
	// every replica wastes megabytes per deployment.
	return &boundedCache[V]{max: max, items: make(map[string]slotted[V])}
}

// Get returns the cached value for key.
func (c *boundedCache[V]) Get(key string) (V, bool) {
	e, ok := c.items[key]
	return e.v, ok
}

// Contains reports whether key is cached.
func (c *boundedCache[V]) Contains(key string) bool {
	_, ok := c.items[key]
	return ok
}

// Put inserts or replaces the value for key, evicting the oldest entry
// if the cache is full.
func (c *boundedCache[V]) Put(key string, v V) {
	if e, exists := c.items[key]; exists {
		c.items[key] = slotted[V]{v, e.stamp}
		return
	}
	for len(c.items) >= c.max && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		if c.current(oldest) {
			delete(c.items, oldest.key)
		}
	}
	c.items[key] = slotted[V]{v, c.next}
	c.order = append(c.order, slot{key, c.next})
	c.next++
	// Deletes leave stale slots in order; without compaction a workload
	// that deletes most entries (the parked-outcome table) grows order —
	// and the evicted backing array behind it — without bound.
	if len(c.order) >= 2*c.max && len(c.order) > 2*len(c.items) {
		c.compact()
	}
}

// current reports whether s is its key's live slot.
func (c *boundedCache[V]) current(s slot) bool {
	e, ok := c.items[s.key]
	return ok && e.stamp == s.stamp
}

// compact rewrites order to the live slots, keeping FIFO order.
func (c *boundedCache[V]) compact() {
	kept := make([]slot, 0, len(c.items))
	for _, s := range c.order {
		if c.current(s) {
			kept = append(kept, s)
		}
	}
	c.order = kept
}

// Delete removes key. The order slot is reclaimed lazily on eviction.
func (c *boundedCache[V]) Delete(key string) {
	delete(c.items, key)
}

// Len returns the number of live entries.
func (c *boundedCache[V]) Len() int { return len(c.items) }
