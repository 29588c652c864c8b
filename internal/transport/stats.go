package transport

import (
	"sync/atomic"
	"unsafe"
)

// NumMsgClasses is the number of per-message-class counter slots a
// Stats tracks. A payload's class is its leading byte (the perpetual
// message kind discriminant: request, BFT, reply-share, ...), clamped
// into this range, so sender and receiver count a frame in the same
// class.
const NumMsgClasses = 16

// ClassOf returns the stats class of a payload: its leading byte,
// clamped to the counter range (class 0 doubles as "unclassified").
func ClassOf(payload []byte) uint8 {
	if len(payload) == 0 || payload[0] >= NumMsgClasses {
		return 0
	}
	return payload[0]
}

// numStatStripes spreads each hot counter over this many
// cache-line-padded cells, so concurrent writers (the adapter's sender
// goroutines and the inbound pump) don't all contend one line. Must be
// a power of two.
const numStatStripes = 8

// statCell is one 64-byte-aligned counter cell; the padding keeps
// adjacent stripes off each other's cache line.
type statCell struct {
	atomic.Uint64
	_ [56]byte
}

// stripedUint64 is one logical counter sharded over padded stripes.
// Writers pick a stripe by their goroutine's stack address — stable for
// a goroutine's lifetime and well-spread across goroutines — so two
// cores incrementing "the same" counter usually touch different lines.
// Load sums the stripes (advisory counters: no cross-stripe atomicity).
type stripedUint64 struct {
	cells [numStatStripes]statCell
}

// stripeIdx derives this goroutine's stripe from a stack address.
func stripeIdx() int {
	var local byte
	return int(uintptr(unsafe.Pointer(&local))>>9) & (numStatStripes - 1)
}

func (s *stripedUint64) add(stripe int, n uint64) { s.cells[stripe].Add(n) }

func (s *stripedUint64) load() uint64 {
	var total uint64
	for i := range s.cells {
		total += s.cells[i].Load()
	}
	return total
}

// classCell groups one message class's four counters on one cache line
// of their own, so traffic in different classes never false-shares.
type classCell struct {
	sentMsgs  atomic.Uint64
	sentBytes atomic.Uint64
	recvMsgs  atomic.Uint64
	recvBytes atomic.Uint64
	_         [32]byte
}

// Stats tracks adapter traffic counters. The zero value is ready to use.
// The aggregate counters are striped (see stripedUint64); the per-class
// breakdown gets a padded line per class.
type Stats struct {
	sentMsgs     stripedUint64
	sentBytes    stripedUint64
	recvMsgs     stripedUint64
	recvBytes    stripedUint64
	rejectedMsgs atomic.Uint64 // rejection is the cold path

	byClass [NumMsgClasses]classCell
}

func (s *Stats) addSent(n int, class uint8) {
	i := stripeIdx()
	s.sentMsgs.add(i, 1)
	s.sentBytes.add(i, uint64(n))
	s.byClass[class].sentMsgs.Add(1)
	s.byClass[class].sentBytes.Add(uint64(n))
}

func (s *Stats) addReceived(n int, class uint8) {
	i := stripeIdx()
	s.recvMsgs.add(i, 1)
	s.recvBytes.add(i, uint64(n))
	s.byClass[class].recvMsgs.Add(1)
	s.byClass[class].recvBytes.Add(uint64(n))
}

func (s *Stats) addRejected() { s.rejectedMsgs.Add(1) }

func (s *Stats) snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		SentMsgs:     s.sentMsgs.load(),
		SentBytes:    s.sentBytes.load(),
		RecvMsgs:     s.recvMsgs.load(),
		RecvBytes:    s.recvBytes.load(),
		RejectedMsgs: s.rejectedMsgs.Load(),
	}
	for c := 0; c < NumMsgClasses; c++ {
		snap.ByClass[c] = ClassCounters{
			SentMsgs:  s.byClass[c].sentMsgs.Load(),
			SentBytes: s.byClass[c].sentBytes.Load(),
			RecvMsgs:  s.byClass[c].recvMsgs.Load(),
			RecvBytes: s.byClass[c].recvBytes.Load(),
		}
	}
	return snap
}

// ClassCounters is one message class's traffic totals.
type ClassCounters struct {
	SentMsgs  uint64
	SentBytes uint64
	RecvMsgs  uint64
	RecvBytes uint64
}

// StatsSnapshot is a point-in-time copy of adapter counters.
type StatsSnapshot struct {
	SentMsgs     uint64
	SentBytes    uint64
	RecvMsgs     uint64
	RecvBytes    uint64
	RejectedMsgs uint64

	// ByClass breaks traffic down per message class (see ClassOf), so
	// tests can assert bandwidth properties of individual protocol
	// stages: reply-share bytes, BFT agreement traffic, request copies.
	ByClass [NumMsgClasses]ClassCounters
}

// Class returns the counters of one message class (e.g. a
// perpetual.Kind converted to uint8). Out-of-range classes return the
// "unclassified" slot 0.
func (s StatsSnapshot) Class(class uint8) ClassCounters {
	if class >= NumMsgClasses {
		class = 0
	}
	return s.ByClass[class]
}

// Add accumulates another snapshot into s (aggregation across
// adapters/replicas/clusters).
func (s *StatsSnapshot) Add(o StatsSnapshot) {
	s.SentMsgs += o.SentMsgs
	s.SentBytes += o.SentBytes
	s.RecvMsgs += o.RecvMsgs
	s.RecvBytes += o.RecvBytes
	s.RejectedMsgs += o.RejectedMsgs
	for c := range s.ByClass {
		s.ByClass[c].SentMsgs += o.ByClass[c].SentMsgs
		s.ByClass[c].SentBytes += o.ByClass[c].SentBytes
		s.ByClass[c].RecvMsgs += o.ByClass[c].RecvMsgs
		s.ByClass[c].RecvBytes += o.ByClass[c].RecvBytes
	}
}
