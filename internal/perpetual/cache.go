package perpetual

// boundedCache is a FIFO-eviction map used for delivered-result
// tracking and the driver's early-event tables. Perpetual state that
// grows with traffic must be bounded: a compromised peer can replay
// ancient request IDs forever, and an unbounded map would be a memory
// exhaustion vector. Not safe for concurrent use; callers hold the
// owner's mutex.
type boundedCache[V any] struct {
	max   int
	items map[string]V
	order []string // insertion order; evictions pop the front
}

func newBoundedCache[V any](max int) *boundedCache[V] {
	if max < 1 {
		max = 1
	}
	// The map starts empty and grows with use: max is an abuse bound,
	// not an expected size, and preallocating it for every cache of
	// every replica wastes megabytes per deployment.
	return &boundedCache[V]{max: max, items: make(map[string]V)}
}

// Get returns the cached value for key.
func (c *boundedCache[V]) Get(key string) (V, bool) {
	v, ok := c.items[key]
	return v, ok
}

// Contains reports whether key is cached.
func (c *boundedCache[V]) Contains(key string) bool {
	_, ok := c.items[key]
	return ok
}

// Put inserts or replaces the value for key, evicting the oldest entry
// if the cache is full.
func (c *boundedCache[V]) Put(key string, v V) {
	if _, exists := c.items[key]; exists {
		c.items[key] = v
		return
	}
	for len(c.items) >= c.max && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.items, oldest)
	}
	c.items[key] = v
	c.order = append(c.order, key)
	// Deletes leave stale slots in order; without compaction a workload
	// that deletes most entries (the parked-outcome table) grows order —
	// and the evicted backing array behind it — without bound.
	if len(c.order) >= 2*c.max && len(c.order) > 2*len(c.items) {
		c.compact()
	}
}

// compact rewrites order to the live keys, keeping FIFO order (first
// live occurrence wins; re-inserted keys keep their newest slot only if
// no older slot survives, an acceptable approximation for eviction).
func (c *boundedCache[V]) compact() {
	seen := make(map[string]struct{}, len(c.items))
	kept := make([]string, 0, len(c.items))
	for _, k := range c.order {
		if _, live := c.items[k]; !live {
			continue
		}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		kept = append(kept, k)
	}
	c.order = kept
}

// Delete removes key. The order slot is reclaimed lazily on eviction.
func (c *boundedCache[V]) Delete(key string) {
	delete(c.items, key)
}

// Len returns the number of live entries.
func (c *boundedCache[V]) Len() int { return len(c.items) }
