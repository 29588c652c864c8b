package inbox

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestQueueFIFOPerProducer: with producers putting concurrently, the
// consumer receives every item, and each producer's items in the order
// it put them.
func TestQueueFIFOPerProducer(t *testing.T) {
	const producers, each = 4, 2000
	type item struct{ producer, seq int }
	q := New[item](producers * each)
	var wg sync.WaitGroup
	for p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				if !q.Put(item{p, i}, true) {
					t.Errorf("producer %d: put %d refused below the bound", p, i)
					return
				}
			}
		}()
	}
	var next [producers]int
	var batch []item
	for got := 0; got < producers*each; {
		var ok bool
		if batch, ok = q.Take(batch); !ok {
			t.Fatal("Take reported a closed queue")
		}
		for _, it := range batch {
			if it.seq != next[it.producer] {
				t.Fatalf("producer %d: got item %d, want %d", it.producer, it.seq, next[it.producer])
			}
			next[it.producer]++
		}
		got += len(batch)
	}
	wg.Wait()
}

// TestQueueBound: a bounded Put is refused once limit items wait, an
// unbounded Put is still taken, and the batch the consumer holds does
// not count against the bound.
func TestQueueBound(t *testing.T) {
	q := New[int](2)
	if !q.Put(1, true) || !q.Put(2, true) {
		t.Fatal("a put below the bound was refused")
	}
	if q.Put(3, true) {
		t.Fatal("a bounded put past the bound was taken")
	}
	if !q.Put(4, false) {
		t.Fatal("an unbounded put past the bound was refused")
	}
	if q.Put(5, true) {
		t.Fatal("a bounded put was taken while more than the bound waits")
	}
	batch, ok := q.Take(nil)
	if !ok || len(batch) != 3 || batch[0] != 1 || batch[1] != 2 || batch[2] != 4 {
		t.Fatalf("Take = %v, %v; want [1 2 4], true", batch, ok)
	}
	if !q.Put(6, true) || !q.Put(7, true) {
		t.Fatal("the batch in hand counted against the bound")
	}
}

// TestQueueNoLostWake: a Put that lands after Take found the queue empty,
// whether the consumer already sleeps or is on its way to, always wakes
// it.
func TestQueueNoLostWake(t *testing.T) {
	q := New[int](1)
	got := make(chan int)
	go func() {
		var batch []int
		for {
			var ok bool
			if batch, ok = q.Take(batch); !ok {
				close(got)
				return
			}
			for _, v := range batch {
				got <- v
			}
		}
	}()
	for i := range 2000 {
		if i%2 == 0 {
			waitSleeping(q)
		}
		if !q.Put(i, true) {
			t.Fatalf("put %d refused", i)
		}
		select {
		case v := <-got:
			if v != i {
				t.Fatalf("took %d, want %d", v, i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("put %d never woke the consumer", i)
		}
	}
	q.Close()
	<-got
}

// TestQueueClose: Close releases a consumer blocked in Take, and every
// later Put, bounded or not, is refused.
func TestQueueClose(t *testing.T) {
	q := New[int](4)
	done := make(chan bool)
	go func() {
		_, ok := q.Take(nil)
		done <- ok
	}()
	waitSleeping(q)
	q.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Take on a closed queue reported items")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not release the blocked Take")
	}
	if q.Put(1, true) || q.Put(2, false) {
		t.Fatal("a put after Close was taken")
	}
	if _, ok := q.Take(nil); ok {
		t.Fatal("Take after Close reported items")
	}
	q.Close() // a second Close is harmless
}

// TestQueueReusesSpent: Take clears the batch it is handed back, so the
// queue holds no reference to an item the consumer is done with (memnet
// recycles each frame after its handler), and then queues into it.
func TestQueueReusesSpent(t *testing.T) {
	q := New[*int](4)
	a, b, c := new(int), new(int), new(int)
	q.Put(a, true)
	first, _ := q.Take(nil)
	q.Put(b, true)
	second, _ := q.Take(first)
	if first[0] != nil {
		t.Fatal("Take kept a reference in the spent batch")
	}
	if len(second) != 1 || second[0] != b {
		t.Fatalf("second batch = %v, want [b]", second)
	}
	q.Put(c, true)
	third, _ := q.Take(second)
	if len(third) != 1 || third[0] != c || unsafe.SliceData(third) != unsafe.SliceData(first) {
		t.Fatal("the third batch did not reuse the first batch's storage")
	}
	if second[0] != nil {
		t.Fatal("Take kept a reference in the spent batch")
	}
}

// waitSleeping returns once q's consumer has found it empty and sleeps.
func waitSleeping(q *Queue[int]) {
	for sleeping := false; !sleeping; runtime.Gosched() {
		q.mu.Lock()
		sleeping = q.waiting
		q.mu.Unlock()
	}
}
