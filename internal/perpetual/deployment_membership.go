package perpetual

// Deployment-side membership orchestration: the install machinery behind
// agreement-installed voter-group epochs (see membership.go for the
// protocol model) and the proactive-recovery operator surface built on
// it (ReplaceReplica).
//
// The flow: an operator method proposes an OpMembership through the
// current group's survivors; agreement orders it, the CLBFT barrier
// halts execution at its sequence number, and once that sequence
// commits at any member the voter's halt hook fires onMembership here.
// The first hook to arrive wins (per (group, epoch) dedup) and performs
// the install for the whole in-process deployment:
//
//  1. every replica's MAC keys for pairs involving the group's voters
//     are re-derived for the new epoch (auth.DeriveEpochKey) — the
//     departing incarnation is skipped, so its keys stop verifying;
//  2. every surviving member's CLBFT instance is stopped, exported at
//     the install barrier, and rebuilt under the new epoch; a member
//     that had not itself committed the barrier yet restores its own
//     position and fetches the gap before voting;
//  3. the departing incarnation is stopped, and the joining one is
//     built from a JoinBootstrap — it replays history from its peers up
//     to the install point and is vote-gated until caught up.
//
// Centralizing the install in the Deployment is an in-process
// simplification: a multi-host deployment would propagate the install
// point to laggards via an announce message carrying the barrier
// certificate (f+1 attestations) instead of rebuilding them directly.

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"perpetualws/internal/auth"
	"perpetualws/internal/clbft"
)

// membershipInstallTimeout bounds how long the operator methods wait
// for a proposed change to agree and install.
const membershipInstallTimeout = 30 * time.Second

// membershipHaltWait bounds how long an install waits for the surviving
// members to reach the barrier themselves before rebuilding them. Under
// normal conditions they converge in milliseconds (the hook only fires
// once a commit certificate for the barrier exists); the bound covers a
// crashed survivor, which then rebuilds onto the catch-up path instead.
const membershipHaltWait = 5 * time.Second

// GroupStatus is one voter group's membership state, as reported by
// Deployment.MembershipStatus.
type GroupStatus struct {
	// Group is the concrete group name ("store", "store#2").
	Group string
	// Epoch is the installed membership epoch (0 = original roster).
	Epoch uint64
	// N is the group size, fixed at deployment; the roster is always
	// slots 0..N-1 (slot-based addressing).
	N int
	// LastRotation is when the latest epoch finished installing here
	// (zero if the group still runs its original roster).
	LastRotation time.Time
	// CatchingUp lists slots whose incarnation is still replaying
	// history toward its catch-up target (vote-gated).
	CatchingUp []int
	// Halted lists slots halted at a membership barrier awaiting
	// install.
	Halted []int
}

// ReplaceReplica agrees and installs a membership epoch replacing the
// incarnation behind one slot of a voter group with a fresh one that
// bootstraps from the install point — the proactive-recovery primitive.
// It blocks until the new epoch is installed deployment-wide (the new
// incarnation may still be catching up; see WaitCaughtUp).
func (d *Deployment) ReplaceReplica(group string, slot int) error {
	g, err := d.Registry.Lookup(group)
	if err != nil {
		return fmt.Errorf("perpetual: membership change: %w", err)
	}
	d.memMu.Lock()
	epoch := d.memInstalled[group]
	d.memMu.Unlock()
	mc := &MembershipChange{Group: group, NewEpoch: epoch + 1, Slot: slot}
	if err := mc.Validate(group, epoch, g.N); err != nil {
		return fmt.Errorf("perpetual: membership change: %w", err)
	}
	d.mu.RLock()
	replicas := d.replicas[group]
	d.mu.RUnlock()
	if len(replicas) == 0 {
		return fmt.Errorf("perpetual: membership change: group %q not deployed", group)
	}
	// The proposal goes through every surviving member's voter:
	// proposals deduplicate by operation id, and the departing slot may
	// be crashed, so it must never be the only proposer.
	done := d.memDoneCh(group, mc.NewEpoch)
	for i, r := range replicas {
		if i != slot {
			r.voter.proposeMembership(mc)
		}
	}
	select {
	case <-done:
		return nil
	case <-time.After(membershipInstallTimeout):
		return fmt.Errorf("perpetual: membership epoch %d for %s not installed within %v", mc.NewEpoch, group, membershipInstallTimeout)
	}
}

// KillReplica crash-stops one incarnation without any membership
// change: the group runs degraded (agreement still lives while
// survivors >= quorum) until ReplaceReplica installs a fresh
// incarnation behind the slot. This is the chaos harness's crash
// injection.
func (d *Deployment) KillReplica(group string, slot int) error {
	d.mu.RLock()
	replicas := d.replicas[group]
	d.mu.RUnlock()
	if slot < 0 || slot >= len(replicas) {
		return fmt.Errorf("perpetual: kill %s/%d: no such replica", group, slot)
	}
	replicas[slot].Stop()
	return nil
}

// WaitCaughtUp blocks until the incarnation behind a slot has replayed
// to its catch-up target and is voting (or timeout elapses).
func (d *Deployment) WaitCaughtUp(group string, slot int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		d.mu.RLock()
		replicas := d.replicas[group]
		var r *Replica
		if slot >= 0 && slot < len(replicas) {
			r = replicas[slot]
		}
		d.mu.RUnlock()
		if r != nil && r.CatchUpTarget() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("perpetual: %s/%d not caught up within %v", group, slot, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// MembershipStatus reports one group's membership state.
func (d *Deployment) MembershipStatus(group string) (GroupStatus, error) {
	g, err := d.Registry.Lookup(group)
	if err != nil {
		return GroupStatus{}, fmt.Errorf("perpetual: membership status: %w", err)
	}
	st := GroupStatus{Group: group, N: g.N}
	d.memMu.Lock()
	st.Epoch, st.LastRotation = d.memInstalled[group], d.lastRotation[group]
	d.memMu.Unlock()
	d.mu.RLock()
	replicas := d.replicas[group]
	d.mu.RUnlock()
	for i, r := range replicas {
		if r.CatchUpTarget() != 0 {
			st.CatchingUp = append(st.CatchingUp, i)
		}
		if r.HaltedSeq() != 0 {
			st.Halted = append(st.Halted, i)
		}
	}
	return st, nil
}

// memDoneCh returns (creating if needed) the completion signal for one
// (group, epoch) install.
func (d *Deployment) memDoneCh(group string, epoch uint64) chan struct{} {
	key := fmt.Sprintf("%s:%d", group, epoch)
	d.memMu.Lock()
	defer d.memMu.Unlock()
	ch, ok := d.memDone[key]
	if !ok {
		ch = make(chan struct{})
		d.memDone[key] = ch
	}
	return ch
}

// onMembership is the voters' membership hook: it fires (on its own
// goroutine) at every member that commits a membership barrier, and the
// first arrival per (group, epoch) performs the deployment-wide install
// described in the file comment.
func (d *Deployment) onMembership(mc *MembershipChange, seq uint64, state clbft.Digest) {
	d.memMu.Lock()
	if d.memInstalled[mc.Group] >= mc.NewEpoch {
		d.memMu.Unlock()
		return
	}
	d.memInstalled[mc.Group] = mc.NewEpoch
	d.memMu.Unlock()

	d.mu.RLock()
	group := d.replicas[mc.Group]
	all := make([]*Replica, 0, len(d.replicas)*4)
	for _, g := range d.replicas {
		all = append(all, g...)
	}
	started := d.started
	d.mu.RUnlock()
	if len(group) == 0 {
		return
	}
	opts := d.options[baseService(mc.Group)]
	logf := func(format string, args ...any) {
		if opts.Logger != nil {
			opts.Logger.Printf("deployment[%s]: "+format, append([]any{mc.Group}, args...)...)
		}
	}
	logf("installing membership epoch %d (replacing slot %d) at seq %d", mc.NewEpoch, mc.Slot, seq)

	// 0. Wait (bounded) for every survivor to execute the barrier. The
	// hook fires at the *first* member that commits it — possibly only
	// the departing replica — but a survivor rebuilt before reaching the
	// install point restores below seq and must fetch the gap from its
	// peers; if no survivor retains replayable history through seq, the
	// whole rebuilt group waits on a fetch nobody can serve. Waiting
	// must also precede the key rotation below: survivors still verify
	// the barrier's in-flight commit messages under the old epoch's
	// keys.
	haltBy := time.Now().Add(membershipHaltWait)
	for i, r := range group {
		if i == mc.Slot {
			continue
		}
		for r.HaltedSeq() < seq && time.Now().Before(haltBy) {
			time.Sleep(500 * time.Microsecond)
		}
		if r.HaltedSeq() < seq {
			logf("survivor %s/%d did not reach barrier %d; rebuilding onto catch-up", mc.Group, i, seq)
		}
	}

	// 1. Key rotation everywhere but the departing incarnation, whose
	// keys must stop verifying: pairs involving the group's voters move
	// to the new epoch.
	principals := d.Registry.AllPrincipals()
	for _, r := range all {
		if r.svc.Name == mc.Group && r.index == mc.Slot {
			continue
		}
		r.rotateEpochKeys(d.master, mc.Group, mc.NewEpoch, principals)
	}

	// 2. Surviving members rebuild at the install barrier. One survivor
	// that actually reached the barrier donates its checkpoint position
	// and dedup state to seed the joiner.
	var donor *clbft.Bootstrap
	for i, r := range group {
		if i == mc.Slot {
			continue
		}
		bs, err := r.installMembership(mc, seq, state)
		if err != nil {
			logf("rebuilding %s/%d: %v", mc.Group, i, err)
			continue
		}
		if donor == nil || (donor.Seq < seq && bs.Seq == seq) {
			donor = bs
		}
	}

	// 3. The departing incarnation stops; the joining one boots from the
	// agreed install point and replays history from its peers.
	group[mc.Slot].Stop()
	nr, err := d.buildIncarnation(mc, seq, state, donor, opts, principals)
	if err != nil {
		logf("building %s/%d: %v", mc.Group, mc.Slot, err)
		return
	}
	newGroup := slices.Clone(group)
	newGroup[mc.Slot] = nr
	if started {
		nr.Start()
	}
	d.mu.Lock()
	d.replicas[mc.Group] = newGroup
	d.mu.Unlock()

	d.memMu.Lock()
	d.lastRotation[mc.Group] = time.Now()
	key := fmt.Sprintf("%s:%d", mc.Group, mc.NewEpoch)
	if ch, ok := d.memDone[key]; ok {
		close(ch)
	} else {
		ch = make(chan struct{})
		close(ch)
		d.memDone[key] = ch
	}
	d.memMu.Unlock()
	logf("membership epoch %d installed", mc.NewEpoch)
}

// buildIncarnation assembles the joining replica of a change: keys derived for the new epoch and a bootstrap aimed at the
// install point, with vote-gating until it has replayed there. With a
// donor snapshot the joiner adopts the group's latest stable checkpoint
// (plus pre-checkpoint dedup state) and fetches only (checkpoint,
// barrier] from its peers — peers only guarantee replayable history
// above their last stable checkpoint; without one it replays from zero.
func (d *Deployment) buildIncarnation(mc *MembershipChange, seq uint64, state clbft.Digest, donor *clbft.Bootstrap, opts ServiceOptions, principals []auth.NodeID) (*Replica, error) {
	g, err := d.Registry.Lookup(mc.Group)
	if err != nil {
		return nil, err
	}
	bs := clbft.JoinBootstrap(seq, state, mc.InitialView(g.N))
	if donor != nil && donor.StableSeq > 0 && donor.StableSeq <= seq {
		bs.Seq, bs.StateDigest = donor.StableSeq, donor.StableDigest
		bs.Executed = donor.Executed
	}
	// A joiner starts correct, whatever faults the group was built with.
	opts.Behaviors = nil
	r, err := d.newReplica(g.Name, mc.Slot, opts, principals, mc.NewEpoch, bs)
	if err != nil {
		return nil, err
	}
	r.rotateEpochKeys(d.master, mc.Group, mc.NewEpoch, principals)
	return r, nil
}

// baseService strips a concrete shard-group name ("store#2") back to
// its configured service name ("store").
func baseService(group string) string {
	if i := strings.IndexByte(group, '#'); i >= 0 {
		return group[:i]
	}
	return group
}
