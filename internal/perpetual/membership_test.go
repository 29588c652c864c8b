package perpetual

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perpetualws/internal/auth"
)

// echoAt wires an echo executor on one replica's driver (a joining
// incarnation's driver starts without one).
func echoAt(r *Replica) {
	drv := r.Driver()
	go func() {
		for {
			req, err := drv.NextRequest()
			if err != nil {
				return
			}
			if err := drv.Reply(req, append([]byte("echo:"), req.Payload...)); err != nil {
				return
			}
		}
	}()
}

// closedLoopLoad drives continuous Call/WaitReply traffic from a driver
// until stop is closed, recording completed calls. Every issued call
// must complete — a lost request would hang WaitReply and trip the
// test's deadline — and the returned count lets callers assert the
// group made progress through a given window.
func closedLoopLoad(t *testing.T, drv *Driver, target string, stop chan struct{}, completed *atomic.Uint64) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for k := 0; ; k++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			id, err := issue(drv, Request{Target: target, Payload: []byte{byte(k), byte(k >> 8)}})
			if err != nil {
				done <- fmt.Errorf("call %d: %w", k, err)
				return
			}
			if _, err := drv.WaitReply(id); err != nil {
				done <- fmt.Errorf("reply %d: %w", k, err)
				return
			}
			completed.Add(1)
		}
	}()
	return done
}

// TestMembershipReplaceUnderLoad is the join-under-load acceptance
// test, on both transports: a replica of a live n=4 group is replaced
// mid-closed-loop, the fresh incarnation bootstraps from the latest
// stable checkpoint and catches up over the fetch protocol, and the
// group then commits through a subsequent view change with the joiner
// voting (the crashed ex-primary leaves only quorum = 3 correct
// replicas, so agreement needs the joiner's votes).
func TestMembershipReplaceUnderLoad(t *testing.T) {
	for _, kind := range []TransportKind{TransportMem, TransportTCP} {
		kind := kind
		t.Run(fmt.Sprintf("transport=%v", kind), func(t *testing.T) {
			dep := buildPairOver(t, kind, 1, 4, func(dep *Deployment) {
				opts := fastOpts()
				opts.CheckpointInterval = 8
				dep.Configure("t", opts)
			})
			echoApp(t, dep, "t")
			drv := dep.Driver("c", 0)

			stop := make(chan struct{})
			var completed atomic.Uint64
			done := closedLoopLoad(t, drv, "t", stop, &completed)

			// Let traffic build history past a checkpoint, then replace
			// slot 1 mid-flight.
			for completed.Load() < 20 {
				time.Sleep(5 * time.Millisecond)
			}
			const slot = 1
			if err := dep.ReplaceReplica("t", slot); err != nil {
				t.Fatalf("ReplaceReplica: %v", err)
			}
			nr := dep.Replicas("t")[slot]
			echoAt(nr)
			if nr.MembershipEpoch() != 1 {
				t.Fatalf("joiner epoch = %d, want 1", nr.MembershipEpoch())
			}
			if err := dep.WaitCaughtUp("t", slot, 30*time.Second); err != nil {
				t.Fatalf("WaitCaughtUp: %v", err)
			}
			for _, r := range dep.Replicas("t") {
				if got := r.MembershipEpoch(); got != 1 {
					t.Fatalf("t/%d epoch = %d, want 1", r.Index(), got)
				}
			}
			st, err := dep.MembershipStatus("t")
			if err != nil {
				t.Fatalf("MembershipStatus: %v", err)
			}
			if st.Epoch != 1 || st.N != 4 || st.LastRotation.IsZero() {
				t.Fatalf("status = %+v, want epoch 1, n 4, nonzero rotation time", st)
			}

			// Traffic must keep completing under the new epoch.
			base := completed.Load()
			for completed.Load() < base+20 {
				time.Sleep(5 * time.Millisecond)
			}

			// Crash the new epoch's primary: the group is down to exactly
			// quorum (3) correct replicas, so committing through the view
			// change requires the joined incarnation's votes.
			primary := int(dep.Replicas("t")[0].VoterView()) % 4
			if primary == slot {
				t.Fatalf("fresh joiner elected primary immediately")
			}
			if err := dep.KillReplica("t", primary); err != nil {
				t.Fatalf("KillReplica: %v", err)
			}
			base = completed.Load()
			deadline := time.Now().Add(30 * time.Second)
			for completed.Load() < base+10 {
				if time.Now().After(deadline) {
					t.Fatalf("no commits after killing primary %d (joiner not voting?)", primary)
				}
				time.Sleep(5 * time.Millisecond)
			}

			close(stop)
			if err := <-done; err != nil {
				t.Fatalf("load: %v", err)
			}
			// Zero duplicated replies: the load consumed each reply by id;
			// anything left in the event queue is a duplicate or stray.
			drv.mu.Lock()
			leftover := len(drv.events)
			drv.mu.Unlock()
			if leftover != 0 {
				t.Errorf("%d stray events in caller queue after load (duplicate replies?)", leftover)
			}
		})
	}
}

// TestOnlyBuiltGroupsTakeFaults reads the fault installed in every
// replica a deployment builds. The groups Build assembles take
// Options.Behaviors[i]; a membership joiner starts correct even where
// Behaviors has an entry for its index, and a faulty survivor keeps its
// fault.
func TestOnlyBuiltGroupsTakeFaults(t *testing.T) {
	faulty := func(r *Replica) bool { return r.voter.fault == (CorruptResultFault{}) }
	dep := buildPair(t, 1, 4, func(dep *Deployment) {
		opts := fastOpts()
		opts.Behaviors = map[int]Behavior{1: CorruptResultFault{}, 3: CorruptResultFault{}}
		dep.Configure("t", opts)
	})
	echoApp(t, dep, "t")
	for i, r := range dep.Replicas("t") {
		if want := i == 1 || i == 3; faulty(r) != want {
			t.Errorf("Build: replica %d faulty = %v, want %v", i, !want, want)
		}
	}

	if err := dep.ReplaceReplica("t", 3); err != nil {
		t.Fatalf("ReplaceReplica: %v", err)
	}
	group := dep.Replicas("t")
	if faulty(group[3]) {
		t.Error("ReplaceReplica: joiner in slot 3 is faulty")
	}
	if !faulty(group[1]) {
		t.Error("ReplaceReplica: survivor in slot 1 lost its fault")
	}
}

// TestMembershipByzantineTable covers the adversarial membership moves:
// each must be rejected deterministically without wedging the group.
func TestMembershipByzantineTable(t *testing.T) {
	dep := buildPair(t, 1, 4, nil)
	echoApp(t, dep, "t")
	drv := dep.Driver("c", 0)

	// Install epoch 1 so a "departed" incarnation exists to impersonate.
	if err := dep.ReplaceReplica("t", 0); err != nil {
		t.Fatalf("ReplaceReplica: %v", err)
	}
	echoAt(dep.Replicas("t")[0])
	if err := dep.WaitCaughtUp("t", 0, 30*time.Second); err != nil {
		t.Fatalf("WaitCaughtUp: %v", err)
	}

	t.Run("stale epoch replay", func(t *testing.T) {
		// A frame replayed from the departed epoch-0 incarnation: correct
		// voters drop it at the epoch gate before it reaches the protocol
		// state machines.
		v1 := dep.Replicas("t")[1].voter
		before := v1.staleEpochDrops.Load()
		stale := &Message{Kind: KindBFT, Epoch: 0, BFT: []byte("replayed")}
		v1.handleTransport(auth.VoterID("t", 0), stale.Encode())
		if got := v1.staleEpochDrops.Load(); got != before+1 {
			t.Errorf("stale-epoch frame not dropped (drops %d -> %d)", before, got)
		}
	})

	t.Run("non-quorum epoch install", func(t *testing.T) {
		// Changes that could not have passed quorum validation: every
		// correct voter's agreement validator refuses them, so a faulty
		// faction can never get one ordered.
		v1 := dep.Replicas("t")[1].voter
		bad := []*MembershipChange{
			{Group: "t", NewEpoch: 5, Slot: 0},  // skips epochs
			{Group: "t", NewEpoch: 1, Slot: 0},  // stale epoch
			{Group: "x", NewEpoch: 2, Slot: 0},  // wrong group
			{Group: "t", NewEpoch: 2, Slot: 9},  // no such slot
			{Group: "t", NewEpoch: 2, Slot: -1}, // no such slot
		}
		for _, mc := range bad {
			op := &Op{Kind: OpMembership, Payload: mc.Encode()}
			if v1.accepts(MembershipOpID(mc.Group, mc.NewEpoch), op.Encode()) {
				t.Errorf("validator accepted %+v", mc)
			}
		}
		// An op whose id does not bind the change it carries.
		good := &MembershipChange{Group: "t", NewEpoch: 2, Slot: 0}
		op := &Op{Kind: OpMembership, Payload: good.Encode()}
		if v1.accepts(MembershipOpID("t", 7), op.Encode()) {
			t.Error("validator accepted membership op under mismatched id")
		}
	})

	t.Run("forged roster in reply bundle", func(t *testing.T) {
		// A faulty responder forging the bundle's epoch: it is inside
		// every share's MAC, so tampering breaks the correct voters'
		// endorsements; and nothing in the bundle lowers the verifier's
		// thresholds, which come from its registry alone.
		master := []byte("m")
		target := ServiceInfo{Name: "t", N: 4}
		callerDriver := auth.DriverID("c", 0)
		all := append(target.VoterIDs(), callerDriver)
		ks := testKeyStores(t, master, all...)
		payload := []byte("r")
		reqID := "c:9"
		digest := ReplyDigest(reqID, payload)
		mkShare := func(i int, epoch uint64) Share {
			a, err := auth.NewAuthenticator(ks[auth.VoterID("t", i)],
				replyAuthMsg(reqID, digest, false, epoch, 0).Bytes(), []auth.NodeID{callerDriver})
			if err != nil {
				t.Fatalf("share: %v", err)
			}
			return Share{Replica: i, Auth: a}
		}
		good := &ReplyBundle{ReqID: reqID, Target: "t", Epoch: 3, Payload: payload,
			Shares: []Share{mkShare(0, 3), mkShare(2, 3)}}
		if err := VerifyBundle(ks[callerDriver], target, good); err != nil {
			t.Fatalf("valid attested bundle rejected: %v", err)
		}
		forgedEpoch := &ReplyBundle{ReqID: reqID, Target: "t", Epoch: 4, Payload: payload,
			Shares: good.Shares}
		if err := VerifyBundle(ks[callerDriver], target, forgedEpoch); err == nil {
			t.Error("bundle with forged epoch accepted")
		}
		// One valid share, a lone faulty voter's, is never enough.
		lone := &ReplyBundle{ReqID: reqID, Target: "t", Epoch: 3, Payload: payload,
			Shares: []Share{mkShare(0, 3)}}
		if err := VerifyBundle(ks[callerDriver], target, lone); err == nil {
			t.Error("bundle accepted on one valid share")
		}
	})

	t.Run("removed replica keeps voting", func(t *testing.T) {
		// The departed epoch-0 incarnation of slot 0 only ever held
		// epoch-0 keys; after the install every survivor verifies slot-0
		// traffic under the epoch-1 key, so its frames fail channel MACs.
		master := []byte("test-master")
		departed := auth.VoterID("t", 0)
		for i := 1; i < 4; i++ {
			r := dep.Replicas("t")[i]
			self := r.voterKeys.Self()
			got, err := r.voterKeys.Key(departed)
			if err != nil {
				t.Fatalf("t/%d key for departed: %v", i, err)
			}
			if bytes.Equal(got, auth.DeriveKey(master, self, departed)) {
				t.Errorf("t/%d still holds the epoch-0 key for slot 0", i)
			}
			if !bytes.Equal(got, auth.DeriveEpochKey(master, 1, self, departed)) {
				t.Errorf("t/%d key for slot 0 is not the epoch-1 key", i)
			}
		}
		// And the group stays live throughout all of the above abuse.
		id, err := issue(drv, Request{Target: "t", Payload: []byte("alive")})
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		if _, err := drv.WaitReply(id); err != nil {
			t.Fatalf("WaitReply: %v", err)
		}
	})
}

// TestMembershipChaosReplaceSoak is the crash/restart chaos soak in
// miniature: under continuous closed-loop load, every slot of the group
// is crash-killed and replaced in turn (never more than one down, so
// the group never falls below quorum), with zero lost or duplicated
// requests across all four rotations. The first kill waits for a stable
// checkpoint at a survivor, so the first joiner bootstraps from a
// donated checkpoint rather than from sequence zero.
func TestMembershipChaosReplaceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dep := buildPair(t, 1, 4, func(dep *Deployment) {
		opts := fastOpts()
		opts.CheckpointInterval = 8
		opts.RetransmitInterval = 150 * time.Millisecond
		dep.Configure("t", opts)
	})
	echoApp(t, dep, "t")
	drv := dep.Driver("c", 0)

	stop := make(chan struct{})
	var completed atomic.Uint64
	var loads []chan error
	for s := 0; s < 2; s++ {
		loads = append(loads, closedLoopLoad(t, drv, "t", stop, &completed))
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var rotErr error
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(30 * time.Second)
		for dep.Replicas("t")[1].StableCheckpointSeq() == 0 {
			if time.Now().After(deadline) {
				rotErr = fmt.Errorf("no stable checkpoint at t/1 before the first kill")
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		for slot := 0; slot < 4; slot++ {
			for start := completed.Load(); completed.Load() < start+10; {
				time.Sleep(5 * time.Millisecond)
			}
			if err := dep.KillReplica("t", slot); err != nil {
				rotErr = fmt.Errorf("kill %d: %w", slot, err)
				return
			}
			if err := dep.ReplaceReplica("t", slot); err != nil {
				rotErr = fmt.Errorf("replace %d: %w", slot, err)
				return
			}
			echoAt(dep.Replicas("t")[slot])
			if err := dep.WaitCaughtUp("t", slot, 30*time.Second); err != nil {
				rotErr = fmt.Errorf("catch-up %d: %w", slot, err)
				return
			}
		}
	}()
	wg.Wait()
	if rotErr != nil {
		t.Fatal(rotErr)
	}

	// Throughput after the final rotation proves the fully rotated group
	// (every incarnation fresh) still commits.
	for start := completed.Load(); completed.Load() < start+20; {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	for _, done := range loads {
		if err := <-done; err != nil {
			t.Fatalf("load: %v", err)
		}
	}
	if st, err := dep.MembershipStatus("t"); err != nil || st.Epoch != 4 {
		t.Errorf("final status = %+v (%v), want epoch 4 (one per rotated slot)", st, err)
	}
	drv.mu.Lock()
	leftover := len(drv.events)
	drv.mu.Unlock()
	if leftover != 0 {
		t.Errorf("%d stray events after soak (lost/duplicated requests)", leftover)
	}
}
