package main

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"perpetualws/internal/core"
	"perpetualws/internal/tpcw"
	"perpetualws/internal/wsengine"
)

// The load generator is the benchmark's own code, kept to at most two
// goroutines per phase (one sender and one receiver, or two sessions)
// so on two cores it competes with the deployment as little as a
// co-located client can.

// Latency limits: a reply slower than this counts as failed. The paced
// limit is far above any latency the program produces (its slowest path,
// a read falling back to agreement, takes 150 ms) because on the shared
// sandbox the whole VM now and then pauses for a quarter of a second,
// and a benchmark that fails at random rejects good changes at random.
const (
	saturateLimit = 2 * time.Second
	pacedLimit    = time.Second
)

// observer accumulates one phase's outcomes. The counters are atomics
// because the phase controller samples them at sub-window boundaries
// while the generator runs; the latency slices are per generator
// goroutine and read only after the phase ends.
type observer struct {
	attempted atomic.Int64
	correct   atomic.Int64 // oracle-approved replies within the limit
	lateMax   atomic.Int64 // worst generator lateness in an open loop, ns
	lat       [2][]time.Duration
	commitLat [2][]time.Duration

	mu       sync.Mutex
	failures []string // the first few, for the PROBLEM lines
}

// record files one correct reply within the limit.
func (o *observer) record(g int, lat time.Duration, commit bool) {
	o.correct.Add(1)
	o.lat[g] = append(o.lat[g], lat)
	if commit {
		o.commitLat[g] = append(o.commitLat[g], lat)
	}
}

// fail keeps the first few failed requests' descriptions; the count is
// attempted - correct.
func (o *observer) fail(lat time.Duration, format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...)+fmt.Sprintf(" after %v", lat.Round(time.Microsecond)))
	}
}

// sleepUntil blocks the calling goroutine's thread until due. The Go
// runtime rounds an idle scheduler's timer waits up to a millisecond
// (time.Sleep here overshoots by 0.57 ms at the median), which would be
// most of a paced request's latency; nanosleep is late by tens of
// microseconds, and what lateness remains is reported, not hidden.
func sleepUntil(due time.Time) {
	if d := time.Until(due); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake only sends early by less than it slept
	}
}

func (o *observer) noteLate(d time.Duration) {
	for {
		cur := o.lateMax.Load()
		if int64(d) <= cur || o.lateMax.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// latencies returns every lane's samples merged and sorted.
func (o *observer) latencies() []time.Duration { return mergeSorted(o.lat) }

func (o *observer) commitLatencies() []time.Duration { return mergeSorted(o.commitLat) }

func mergeSorted(lanes [2][]time.Duration) []time.Duration {
	merged := append(append([]time.Duration(nil), lanes[0]...), lanes[1]...)
	slices.Sort(merged)
	return merged
}

// gen drives one deployment's traffic and checks every reply against
// the workload's oracle.
type gen interface {
	// closed keeps the workload's window outstanding while more()
	// holds, then waits for what is in flight.
	closed(window int, more func(issued int) bool, limit time.Duration, obs *observer) error
	// open issues rate req/s for d on a fixed schedule, timing each
	// request from the instant it was due.
	open(rate float64, d, limit time.Duration, obs *observer) error
	// finish runs the oracle's end-of-run check.
	finish() error
	// lanes is how many goroutines closed runs, each asking more() with
	// its own count.
	lanes() int
}

// asyncGen drives a service through MessageHandler.Send/ReceiveReply
// with requests in flight, correlating replies by wsa:RelatesTo.
type asyncGen struct {
	h     core.MessageHandler
	build func(k int) *wsengine.MessageContext
	check func(k int, reply *wsengine.MessageContext) bool
	final func() error

	// mu orders the sender's "Send, then remember the MessageID it
	// assigned" against the receiver's lookup of a reply that may arrive
	// in between.
	mu       sync.Mutex
	inflight map[string]pendingReq
	sent     int
}

type pendingReq struct {
	k   int
	due time.Time
}

func (a *asyncGen) issued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sent
}

func (a *asyncGen) send(due time.Time, obs *observer) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight == nil {
		a.inflight = make(map[string]pendingReq)
	}
	mc := a.build(a.sent)
	obs.attempted.Add(1)
	if err := a.h.Send(mc); err != nil {
		return err
	}
	a.inflight[mc.Envelope.Header.MessageID] = pendingReq{k: a.sent, due: due}
	a.sent++
	return nil
}

func (a *asyncGen) complete(reply *wsengine.MessageContext, limit time.Duration, obs *observer) {
	a.mu.Lock()
	p, ok := a.inflight[reply.Envelope.Header.RelatesTo]
	delete(a.inflight, reply.Envelope.Header.RelatesTo)
	a.mu.Unlock()
	if !ok {
		return // not ours: counted as a missing reply by attempted-correct
	}
	lat := time.Since(p.due)
	if good := a.check(p.k, reply); !good || lat > limit {
		obs.fail(lat, "request %d: oracle ok=%v, reply body %q", p.k, good, reply.Envelope.Body)
		return
	}
	obs.record(0, lat, true)
}

func (a *asyncGen) closed(window int, more func(int) bool, limit time.Duration, obs *observer) error {
	issued, outstanding := 0, 0
	for outstanding < window && more(issued) {
		if err := a.send(time.Now(), obs); err != nil {
			return err
		}
		issued++
		outstanding++
	}
	for outstanding > 0 {
		reply, err := a.h.ReceiveReply()
		if err != nil {
			return err
		}
		a.complete(reply, limit, obs)
		outstanding--
		if more(issued) {
			if err := a.send(time.Now(), obs); err != nil {
				return err
			}
			issued++
			outstanding++
		}
	}
	return nil
}

func (a *asyncGen) open(rate float64, d, limit time.Duration, obs *observer) error {
	n := int(d.Seconds() * rate)
	start := time.Now()
	sendErr := make(chan error, 1)
	go func() {
		for k := 0; k < n; k++ {
			due := dueTime(start, k, rate)
			sleepUntil(due)
			obs.noteLate(time.Since(due))
			if err := a.send(due, obs); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	var recvErr error
	for got := 0; got < n; got++ {
		reply, err := a.h.ReceiveReply()
		if err != nil {
			recvErr = err
			break
		}
		a.complete(reply, limit, obs)
	}
	return errors.Join(<-sendErr, recvErr)
}

func (a *asyncGen) finish() error { return a.final() }
func (a *asyncGen) lanes() int    { return 1 }

// browseGen drives two synchronous StoreClient sessions.
type browseGen struct {
	client   *tpcw.StoreClient
	sessions [2]*browseSession
}

// step runs one interaction of session g, timed from due.
func (b *browseGen) step(g int, due time.Time, limit time.Duration, obs *observer) error {
	s := b.sessions[g]
	kind, arg := s.next()
	obs.attempted.Add(1)
	page, err := b.client.Execute(kind, &s.session, arg)
	if errors.Is(err, core.ErrClosed) {
		return err
	}
	lat := time.Since(due)
	if good := err == nil && s.checkPage(kind, arg, page); !good || lat > limit {
		obs.fail(lat, "session %d %s(%d): oracle ok=%v, page %+v, err %v", g, kind, arg, good, page, err)
		return nil
	}
	obs.record(g, lat, !kind.IsRead())
	return nil
}

// both runs fn once per session, each on its own goroutine.
func (b *browseGen) both(fn func(g int) error) error {
	var errs [2]error
	var wg sync.WaitGroup
	for g := range b.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = fn(g)
		}()
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

// closed ignores window: the sessions are the window. more is asked per
// session, so a count-bounded caller passes each session's share.
func (b *browseGen) closed(_ int, more func(int) bool, limit time.Duration, obs *observer) error {
	return b.both(func(g int) error {
		for issued := 0; more(issued); issued++ {
			if err := b.step(g, time.Now(), limit, obs); err != nil {
				return err
			}
		}
		return nil
	})
}

func (b *browseGen) open(rate float64, d, limit time.Duration, obs *observer) error {
	perSession := rate / float64(len(b.sessions))
	n := int(d.Seconds() * perSession)
	start := time.Now()
	return b.both(func(g int) error {
		for k := 0; k < n; k++ {
			due := dueTime(start, k, perSession)
			sleepUntil(due)
			obs.noteLate(time.Since(due))
			if err := b.step(g, due, limit, obs); err != nil {
				return err
			}
		}
		return nil
	})
}

func (b *browseGen) finish() error { return nil }
func (b *browseGen) lanes() int    { return len(b.sessions) }
