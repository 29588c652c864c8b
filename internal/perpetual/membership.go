package perpetual

import (
	"fmt"
	"strconv"
	"strings"

	"perpetualws/internal/wire"
)

// Voter-group membership epochs.
//
// A voter group changes its own composition by agreeing an OpMembership
// operation through the *current* epoch's quorum — membership is just
// another replicated decision, so a faction below quorum can never
// install an epoch. The operation's own sequence number is the install
// point: the CLBFT barrier (clbft.WithBarrier) halts execution exactly
// there, every member that commits the barrier exports an identical
// (seq, state digest) snapshot, and the deployment rebuilds the group
// under the new epoch from those snapshots (clbft.Bootstrap). All
// in-flight agreement work above the barrier is abandoned uniformly;
// its requests remain pending and are re-agreed by the new group, so a
// membership flip loses nothing and duplicates nothing (operation-ID
// deduplication rides across the boundary in the snapshot).
//
// Epochs are stamped into every transport message (Message.Epoch) and
// every reply bundle (ReplyBundle.Epoch, MAC-covered), and all
// voter<->voter MAC keys are re-derived per epoch
// (auth.DeriveEpochKey), so traffic from a departed incarnation is
// rejected twice over: its frames fail channel authentication, and
// even a replayed frame carries a stale epoch stamp.
//
// Changes are slot-based: a replica is addressed by (group, index), and
// an epoch replaces the incarnation behind one slot. A group's size is
// fixed at deployment, so the quorum arithmetic never changes.

// isMembershipOpID reports whether an agreement OpID carries the
// membership prefix (see voter.membershipBarrier for the epoch-aware
// CLBFT barrier predicate built on top of it).
func isMembershipOpID(opID string) bool {
	return strings.HasPrefix(opID, MembershipOpPrefix)
}

// parseMembershipOpID extracts the target epoch from a membership OpID
// ("mem:<group>:<epoch>"); ok is false for any other id.
func parseMembershipOpID(opID string) (epoch uint64, ok bool) {
	if !isMembershipOpID(opID) {
		return 0, false
	}
	i := strings.LastIndexByte(opID, ':')
	e, err := strconv.ParseUint(opID[i+1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// MembershipChange is the payload of an OpMembership operation: it
// installs a fresh incarnation behind one slot of a voter group. The
// old incarnation's keys stop verifying (epoch rotation) and the new one
// bootstraps from the install point via catch-up. This is the
// proactive-recovery primitive; a group's size is fixed at deployment.
type MembershipChange struct {
	// Group names the voter group changing ("store").
	Group string
	// NewEpoch is the membership epoch this change installs; it must be
	// exactly the group's current epoch + 1 (validated under agreement).
	NewEpoch uint64
	// Slot is the replica index whose incarnation is replaced.
	Slot int
}

// Encode serializes the change.
func (mc *MembershipChange) Encode() []byte {
	w := wire.NewWriter(32 + len(mc.Group))
	w.PutString(mc.Group)
	w.PutUvarint(mc.NewEpoch)
	w.PutUvarint(uint64(mc.Slot))
	return w.Bytes()
}

// DecodeMembershipChange parses an encoded change.
func DecodeMembershipChange(buf []byte) (*MembershipChange, error) {
	r := wire.NewReader(buf)
	mc := &MembershipChange{
		Group:    r.String(),
		NewEpoch: r.Uvarint(),
		Slot:     int(r.Uvarint()),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("perpetual: decoding membership change: %w", err)
	}
	return mc, nil
}

// Validate checks the change against the group's size and current
// epoch. It is called from the agreement validator at every voter, so
// an invalid change (wrong group, stale or skipping epoch, no such
// slot) is refused by every correct replica before ordering — this is
// the non-quorum-install defense.
func (mc *MembershipChange) Validate(group string, curEpoch uint64, n int) error {
	if mc.Group != group {
		return fmt.Errorf("membership change for %q agreed at %q", mc.Group, group)
	}
	if mc.NewEpoch != curEpoch+1 {
		return fmt.Errorf("membership epoch %d does not advance current epoch %d by one", mc.NewEpoch, curEpoch)
	}
	if mc.Slot < 0 || mc.Slot >= n {
		return fmt.Errorf("replace slot %d out of range [0,%d)", mc.Slot, n)
	}
	return nil
}

// InitialView is the view the new epoch's instances of a group of n
// start in. It is derived deterministically from the change so every
// member rebuilds into the same view, and so the first primary of the
// new epoch is never the slot that was just replaced — a recovering
// replica should catch up, not immediately lead.
func (mc *MembershipChange) InitialView(n int) uint64 {
	return uint64((mc.Slot + 1) % n)
}
