package clbft

import (
	"fmt"
	"time"
)

// Defaults for Config fields left zero.
const (
	DefaultCheckpointInterval = 64
	DefaultViewChangeTimeout  = 500 * time.Millisecond
	DefaultCommitFlushDelay   = 2 * time.Millisecond
)

// Config parameterizes one replica of a CLBFT group.
type Config struct {
	// ID is this replica's index within the group, 0 <= ID < N.
	ID int
	// N is the group size; tolerating f faults requires N = 3f+1.
	N int
	// CheckpointInterval is the number of executed operations between
	// checkpoints. The log high watermark is twice this interval.
	CheckpointInterval uint64
	// ViewChangeTimeout is how long a replica waits for a submitted
	// operation to execute before suspecting the primary. It doubles on
	// each consecutive view change (exponential backoff), as in PBFT.
	ViewChangeTimeout time.Duration
	// MaxBatch lets the primary order up to this many buffered
	// operations under a single sequence number (PBFT request
	// batching), amortizing the three-phase agreement cost under
	// pipelined load. 0 or 1 disables batching. Deliveries of batched
	// operations share their batch's sequence number but arrive in
	// batch order.
	MaxBatch int
	// Tentative enables the Castro-Liskov tentative-execution and
	// commit-piggybacking optimizations: an operation is executed
	// (and delivered with Delivery.Tentative set) as soon as it is
	// prepared and every lower sequence number has committed, and
	// commit votes ride the sender's next pre-prepare or prepare
	// instead of paying their own frame — roughly halving the
	// per-request message count. Tentative deliveries roll back on a
	// view change that reassigns their sequence number (see
	// WithRollback); checkpoints and the state-digest chain certify
	// only committed history.
	Tentative bool
	// CommitFlushDelay bounds how long a piggybacked commit vote may
	// wait for a carrier message before it is flushed in a votes
	// message of its own (the idle heartbeat). Only meaningful with
	// Tentative; defaults to DefaultCommitFlushDelay.
	CommitFlushDelay time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = DefaultCheckpointInterval
	}
	if c.ViewChangeTimeout == 0 {
		c.ViewChangeTimeout = DefaultViewChangeTimeout
	}
	if c.CommitFlushDelay == 0 {
		c.CommitFlushDelay = DefaultCommitFlushDelay
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("clbft: group size %d < 1", c.N)
	}
	if c.ID < 0 || c.ID >= c.N {
		return fmt.Errorf("clbft: replica id %d outside group of %d", c.ID, c.N)
	}
	return nil
}

// F returns the number of faults the group tolerates: floor((N-1)/3).
func (c Config) F() int { return (c.N - 1) / 3 }

// Quorum returns the agreement quorum size, ceil((N+F+1)/2). For the
// canonical N = 3F+1 this is the familiar 2F+1; the general form keeps
// any two quorums intersecting in at least F+1 replicas for group sizes
// that over-provision replicas.
func (c Config) Quorum() int { return (c.N+c.F())/2 + 1 }

// WeakQuorum returns f+1, the size that guarantees at least one correct
// replica.
func (c Config) WeakQuorum() int { return c.F() + 1 }

// PrimaryOf returns the primary replica index for a view.
func (c Config) PrimaryOf(view uint64) int { return int(view % uint64(c.N)) }

// LogWindow returns the watermark window size L; pre-prepares are only
// accepted for sequence numbers in (h, h+L].
func (c Config) LogWindow() uint64 { return 2 * c.CheckpointInterval }
