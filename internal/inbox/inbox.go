// Package inbox is the queue in front of each event loop: many
// producers put items, one consumer takes them a batch at a time.
package inbox

import "sync"

// Queue is a bounded multi-producer, single-consumer queue. Its storage
// is a slice that grows with use, so an idle queue costs a few words
// where a buffered channel of the same bound is zeroed up front. The
// consumer takes everything queued on each wake, for one lock and at
// most one wake per batch.
type Queue[T any] struct {
	mu      sync.Mutex
	items   []T
	limit   int
	closed  bool
	waiting bool // the consumer sleeps on wake
	wake    chan struct{}
}

// New returns an empty queue that holds limit items for bounded Puts.
func New[T any](limit int) *Queue[T] {
	return &Queue[T]{limit: limit, wake: make(chan struct{}, 1)}
}

// Put queues v and reports whether it was taken. A bounded Put is
// refused while limit items wait; the batch the consumer holds does not
// count. Only Close refuses an unbounded Put.
func (q *Queue[T]) Put(v T, bounded bool) bool {
	q.mu.Lock()
	ok := !q.closed && (!bounded || len(q.items) < q.limit)
	if ok {
		q.items = append(q.items, v)
	}
	q.unlock()
	return ok
}

// Take waits for items and returns all of them, oldest first. spent is
// the batch the previous Take returned, or nil: Take clears it and
// queues into it, so two slices alternate and the caller must be done
// with spent. Once the queue is closed Take returns false, and whatever
// was still queued is dropped.
func (q *Queue[T]) Take(spent []T) ([]T, bool) {
	clear(spent)
	q.mu.Lock()
	for len(q.items) == 0 && !q.closed {
		q.waiting = true
		q.mu.Unlock()
		<-q.wake
		q.mu.Lock()
	}
	batch := q.items
	q.items = spent[:0]
	closed := q.closed
	q.mu.Unlock()
	return batch, !closed
}

// Close refuses every later Put and releases the consumer.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed, q.items = true, nil
	q.unlock()
}

// unlock releases mu, waking the consumer if it sleeps: once per sleep,
// so the send never blocks.
func (q *Queue[T]) unlock() {
	wake := q.waiting
	q.waiting = false
	q.mu.Unlock()
	if wake {
		q.wake <- struct{}{}
	}
}
