package perpetual

import (
	"math/rand"
	"sync"

	"perpetualws/internal/auth"
	"perpetualws/internal/transport"
)

// Behavior injects Byzantine faults into a replica for testing and
// demonstration. Implementations mutate the replica's connections or
// internals at assembly time; a nil Behavior means correct execution.
type Behavior interface {
	// wrapVoterConn and wrapDriverConn may replace the replica's
	// transport connections (e.g., to drop or corrupt traffic).
	wrapVoterConn(c transport.Connection) transport.Connection
	wrapDriverConn(c transport.Connection) transport.Connection
	// install applies post-assembly mutations.
	install(r *Replica)
}

// CorrectBehavior is the identity behavior; embed it to override only
// some hooks.
type CorrectBehavior struct{}

func (CorrectBehavior) wrapVoterConn(c transport.Connection) transport.Connection  { return c }
func (CorrectBehavior) wrapDriverConn(c transport.Connection) transport.Connection { return c }
func (CorrectBehavior) install(*Replica)                                           {}

// SilentFault makes the replica completely mute: every outbound frame
// from both its voter and its driver is dropped, modeling a crashed or
// partitioned replica. Inbound traffic still arrives (a silent replica
// may recover in tests by removing the fault).
type SilentFault struct{ CorrectBehavior }

func (SilentFault) wrapVoterConn(c transport.Connection) transport.Connection {
	return &muteConn{Connection: c}
}

func (SilentFault) wrapDriverConn(c transport.Connection) transport.Connection {
	return &muteConn{Connection: c}
}

type muteConn struct{ transport.Connection }

func (m *muteConn) Send(auth.NodeID, []byte) error { return nil }

// DropFault drops each outbound frame independently with probability P,
// using a deterministic source seeded with Seed.
type DropFault struct {
	CorrectBehavior
	P    float64
	Seed int64
}

func (f DropFault) wrapVoterConn(c transport.Connection) transport.Connection {
	return newDropConn(c, f.P, f.Seed)
}

func (f DropFault) wrapDriverConn(c transport.Connection) transport.Connection {
	return newDropConn(c, f.P, f.Seed+1)
}

type dropConn struct {
	transport.Connection
	mu  sync.Mutex
	p   float64
	rng *rand.Rand
}

func newDropConn(c transport.Connection, p float64, seed int64) *dropConn {
	return &dropConn{Connection: c, p: p, rng: rand.New(rand.NewSource(seed))}
}

func (d *dropConn) Send(to auth.NodeID, frame []byte) error {
	d.mu.Lock()
	drop := d.rng.Float64() < d.p
	d.mu.Unlock()
	if drop {
		return nil
	}
	return d.Connection.Send(to, frame)
}

// FaultFirings counts the results and read answers this replica's flag
// fault (one of the four below, installed as voter.fault) falsified: a
// test installing one shows with it that the fault ran, not only that
// the system survived it.
func (r *Replica) FaultFirings() uint64 { return r.voter.faultFired.Load() }

// CorruptResultFault makes the replica's executor results wrong: the
// driver's replies are bit-flipped before the voter endorses them. Up to
// f such replicas must not affect the reply the caller accepts, because
// bundles need f_t+1 matching endorsements.
type CorruptResultFault struct{ CorrectBehavior }

func (f CorruptResultFault) install(r *Replica) { r.voter.fault = f }

// StaleResultFault makes the replica endorse an empty reply for every
// request, modeling a replica whose state diverged.
type StaleResultFault struct{ CorrectBehavior }

func (f StaleResultFault) install(r *Replica) { r.voter.fault = f }

// CorruptReadFault makes the replica's speculative fast-path read
// answers wrong: read results are prefixed with garbage before being
// digested, so the replica endorses (and, as responder, serves) a
// forged answer. Up to f such replicas can at worst force the client
// back to agreement, never a wrong certified read.
type CorruptReadFault struct{ CorrectBehavior }

func (f CorruptReadFault) install(r *Replica) { r.voter.fault = f }

// StaleReadFault makes the replica answer fast-path reads from a stale
// state while claiming currency: it serves an empty answer stamped with
// position 0 and Behind unset, modeling a Byzantine replica lying about
// its lease. Clients reject the endorsement once their session floor is
// positive.
type StaleReadFault struct{ CorrectBehavior }

func (f StaleReadFault) install(r *Replica) { r.voter.fault = f }
