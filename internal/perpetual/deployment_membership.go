package perpetual

// Deployment-side membership orchestration: the install machinery behind
// agreement-installed voter-group epochs (see membership.go for the
// protocol model) and the proactive-recovery operator surface built on
// it (ReplaceReplica / GrowGroup / ShrinkGroup / RotateAll).
//
// The flow: an operator method proposes an OpMembership through the
// current group's survivors; agreement orders it, the CLBFT barrier
// halts execution at its sequence number, and once that sequence
// commits at any member the voter's halt hook fires onMembership here.
// The first hook to arrive wins (per (group, epoch) dedup) and performs
// the install for the whole in-process deployment:
//
//  1. the registry's roster overlay flips to (epoch, newN) — the
//     deployment's authority for group size and epoch;
//  2. every replica's MAC keys for pairs involving the group's voters
//     are re-derived for the new epoch (auth.DeriveEpochKey) — the
//     departing incarnation is skipped, so its keys stop verifying;
//  3. every surviving member's CLBFT instance is stopped, exported at
//     the install barrier, and rebuilt under the new group size; a
//     member that had not itself committed the barrier yet restores its
//     own position and fetches the gap before voting;
//  4. the departing incarnation (replace/shrink) is stopped, and the
//     joining incarnation (replace/grow) is built from a JoinBootstrap
//     — it replays history from its peers up to the install point and
//     is vote-gated until caught up.
//
// Centralizing the install in the Deployment is an in-process
// simplification: a multi-host deployment would propagate the install
// point to laggards via an announce message carrying the barrier
// certificate (f+1 attestations) instead of rebuilding them directly.

import (
	"fmt"
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
	// N is the group size under that epoch; the roster is always slots
	// 0..N-1 (slot-based addressing).
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
	return d.changeMembership(group, func(epoch uint64, n int) *MembershipChange {
		return &MembershipChange{Group: group, NewEpoch: epoch + 1, Kind: MembershipReplace, Slot: slot, NewN: n}
	})
}

// GrowGroup agrees and installs a membership epoch adding one slot to a
// voter group (N -> N+1, f recomputed by the quorum arithmetic).
func (d *Deployment) GrowGroup(group string) error {
	return d.changeMembership(group, func(epoch uint64, n int) *MembershipChange {
		return &MembershipChange{Group: group, NewEpoch: epoch + 1, Kind: MembershipGrow, Slot: n, NewN: n + 1}
	})
}

// ShrinkGroup agrees and installs a membership epoch dropping a voter
// group's highest slot (N -> N-1).
func (d *Deployment) ShrinkGroup(group string) error {
	return d.changeMembership(group, func(epoch uint64, n int) *MembershipChange {
		return &MembershipChange{Group: group, NewEpoch: epoch + 1, Kind: MembershipShrink, Slot: n - 1, NewN: n - 1}
	})
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

// RotateAll proactively recovers a voter group: each slot in turn is
// replaced with a fresh incarnation and waited for until it has caught
// up, so the group never has more than one recovering member and never
// drops below quorum. One full pass bounds the age of every
// incarnation's state — the proactive-recovery loop of the operator
// runbook.
func (d *Deployment) RotateAll(group string) error {
	_, n := d.Registry.GroupMembership(group)
	if n == 0 {
		return fmt.Errorf("perpetual: rotate %s: unknown group", group)
	}
	for slot := 0; slot < n; slot++ {
		if err := d.ReplaceReplica(group, slot); err != nil {
			return fmt.Errorf("rotating %s/%d: %w", group, slot, err)
		}
		if err := d.WaitCaughtUp(group, slot, membershipInstallTimeout); err != nil {
			return fmt.Errorf("rotating %s/%d: %w", group, slot, err)
		}
	}
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
	epoch, n := d.Registry.GroupMembership(group)
	if n == 0 {
		return GroupStatus{}, fmt.Errorf("perpetual: membership status: unknown group %q", group)
	}
	st := GroupStatus{Group: group, Epoch: epoch, N: n}
	d.memMu.Lock()
	st.LastRotation = d.lastRotation[group]
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

// changeMembership validates, proposes, and awaits one membership
// change. The proposal goes through every surviving member's voter —
// proposals deduplicate by operation id, and the departing slot may be
// crashed, so it must never be the only proposer.
func (d *Deployment) changeMembership(group string, mk func(epoch uint64, n int) *MembershipChange) error {
	epoch, n := d.Registry.GroupMembership(group)
	if n == 0 {
		return fmt.Errorf("perpetual: membership change: unknown group %q", group)
	}
	mc := mk(epoch, n)
	if err := mc.Validate(group, epoch, n); err != nil {
		return fmt.Errorf("perpetual: membership change: %w", err)
	}
	d.mu.RLock()
	replicas := d.replicas[group]
	d.mu.RUnlock()
	if len(replicas) == 0 {
		return fmt.Errorf("perpetual: membership change: group %q not deployed", group)
	}
	done := d.memDoneCh(group, mc.NewEpoch)
	for i, r := range replicas {
		if i >= n || mc.Departs(i) {
			continue
		}
		r.voter.proposeMembership(mc)
	}
	select {
	case <-done:
		return nil
	case <-time.After(membershipInstallTimeout):
		return fmt.Errorf("perpetual: membership epoch %d for %s not installed within %v", mc.NewEpoch, group, membershipInstallTimeout)
	}
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
	logf("installing membership epoch %d (%s slot %d, n %d -> %d) at seq %d",
		mc.NewEpoch, mc.Kind, mc.Slot, len(group), mc.NewN, seq)

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
		if mc.Departs(i) {
			continue
		}
		for r.HaltedSeq() < seq && time.Now().Before(haltBy) {
			time.Sleep(500 * time.Microsecond)
		}
		if r.HaltedSeq() < seq {
			logf("survivor %s/%d did not reach barrier %d; rebuilding onto catch-up", mc.Group, i, seq)
		}
	}

	// 1. Roster authority flips first: Lookup/GroupMembership now answer
	// (epoch, newN), so everything rebuilt below sizes itself correctly.
	if err := d.Registry.CommitGroupMembership(mc.Group, mc.NewEpoch, mc.NewN); err != nil {
		logf("membership commit: %v", err)
		return
	}

	// 2. Key rotation everywhere but the departing incarnation, whose
	// keys must stop verifying. A grown slot's principals first become
	// known deployment-wide (epoch-0 base keys), then the rotation lifts
	// pairs involving the group's voters to the new epoch.
	principals := d.Registry.AllPrincipals()
	var joining []auth.NodeID
	if mc.Kind == MembershipGrow {
		joining = []auth.NodeID{auth.VoterID(mc.Group, mc.Slot), auth.DriverID(mc.Group, mc.Slot)}
	}
	for _, r := range all {
		if r.svc.Name == mc.Group && mc.Departs(r.index) {
			continue
		}
		if len(joining) > 0 {
			r.provisionPeers(d.master, joining)
		}
		r.rotateEpochKeys(d.master, mc.Group, mc.NewEpoch, mc.NewN, principals)
	}

	// 3. Surviving members rebuild at the install barrier under newN.
	// One survivor that actually reached the barrier donates its
	// checkpoint position and dedup state to seed the joiner.
	var donor *clbft.Bootstrap
	for i, r := range group {
		if mc.Departs(i) {
			continue
		}
		bs, err := r.installMembership(mc, seq, state, mc.NewN)
		if err != nil {
			logf("rebuilding %s/%d: %v", mc.Group, i, err)
			continue
		}
		if donor == nil || (donor.Seq < seq && bs.Seq == seq) {
			donor = bs
		}
	}

	// 4. The departing incarnation stops; the joining one boots from the
	// agreed install point and replays history from its peers.
	newGroup := make([]*Replica, mc.NewN)
	copy(newGroup, group)
	switch mc.Kind {
	case MembershipShrink:
		group[mc.Slot].Stop()
	case MembershipReplace, MembershipGrow:
		if mc.Kind == MembershipReplace {
			group[mc.Slot].Stop()
		}
		nr, err := d.buildIncarnation(mc, seq, state, donor, opts, principals)
		if err != nil {
			logf("building %s/%d: %v", mc.Group, mc.Slot, err)
			return
		}
		newGroup[mc.Slot] = nr
		if started {
			nr.Start()
		}
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

// buildIncarnation assembles the joining replica of a replace/grow
// change: keys derived for the new epoch and a bootstrap aimed at the
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
	bs := clbft.JoinBootstrap(seq, state, mc.InitialView())
	if donor != nil && donor.StableSeq > 0 && donor.StableSeq <= seq {
		bs.Seq, bs.StateDigest = donor.StableSeq, donor.StableDigest
		bs.Executed = donor.Executed
	}
	voterID := auth.VoterID(g.Name, mc.Slot)
	driverID := auth.DriverID(g.Name, mc.Slot)
	voterConn, err := d.newConn(voterID)
	if err != nil {
		return nil, fmt.Errorf("transport for %s: %w", voterID, err)
	}
	driverConn, err := d.newConn(driverID)
	if err != nil {
		_ = voterConn.Close()
		return nil, fmt.Errorf("transport for %s: %w", driverID, err)
	}
	cfg := ReplicaConfig{
		Service:            g.Name,
		Index:              mc.Slot,
		Registry:           d.Registry,
		VoterConn:          voterConn,
		DriverConn:         driverConn,
		VoterKeys:          auth.NewDerivedKeyStore(d.master, voterID, principals),
		DriverKeys:         auth.NewDerivedKeyStore(d.master, driverID, principals),
		CheckpointInterval: opts.CheckpointInterval,
		ViewChangeTimeout:  opts.ViewChangeTimeout,
		RetransmitInterval: opts.RetransmitInterval,
		ReadFallback:       opts.ReadFallback,
		MaxBatch:           opts.MaxBatch,
		CommitFlushDelay:   opts.CommitFlushDelay,
		MaxIntake:          opts.MaxIntake,
		MaxProposerQueue:   opts.MaxProposerQueue,
		RetryAfterHint:     opts.RetryAfterHint,
		MaxOutstanding:     opts.MaxOutstanding,
		Logger:             opts.Logger,
		Bootstrap:          bs,
		MembershipEpoch:    mc.NewEpoch,
		MembershipHook:     d.onMembership,
	}
	r, err := NewReplica(cfg)
	if err != nil {
		return nil, err
	}
	r.rotateEpochKeys(d.master, mc.Group, mc.NewEpoch, mc.NewN, principals)
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
