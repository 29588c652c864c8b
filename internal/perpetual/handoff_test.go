package perpetual

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"perpetualws/internal/auth"
)

// TestKeyMovesFraction tightens the loose movement bound of
// TestShardForConsistency into the rendezvous guarantee a reshard
// relies on: the moved fraction is (|new-old|)/max(new, old) in
// expectation, moves land only on joining shards (grow) or only leave
// removed shards (shrink), and keys never hop between surviving shards.
func TestKeyMovesFraction(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(11))
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = make([]byte, 16)
		rng.Read(keys[i])
	}
	for _, tc := range []struct{ old, new int }{
		{2, 4}, {4, 5}, {4, 8}, {8, 10}, {4, 2}, {8, 4},
	} {
		want := float64(tc.new-tc.old) / float64(tc.new)
		if tc.new < tc.old {
			want = float64(tc.old-tc.new) / float64(tc.old)
		}
		moved := 0
		for _, key := range keys {
			from, to, m := KeyMoves(key, tc.old, tc.new)
			if !m {
				if from != to {
					t.Fatalf("%d->%d: KeyMoves inconsistent for %x", tc.old, tc.new, key)
				}
				continue
			}
			moved++
			if tc.new > tc.old {
				if from >= tc.old || to < tc.old {
					t.Fatalf("%d->%d: grow moved key %x between existing shards (%d -> %d)", tc.old, tc.new, key, from, to)
				}
			} else {
				if from < tc.new || to >= tc.new {
					t.Fatalf("%d->%d: shrink moved key %x off a surviving shard (%d -> %d)", tc.old, tc.new, key, from, to)
				}
			}
		}
		frac := float64(moved) / float64(n)
		// Binomial with n=2000: 3 sigma is ~3%; allow 25% relative slack
		// plus 2% absolute so the bound is tight but not flaky.
		slack := 0.25*want + 0.02
		if frac < want-slack || frac > want+slack {
			t.Errorf("%d->%d: moved %.3f of keys, want %.3f +/- %.3f", tc.old, tc.new, frac, want, slack)
		}
	}
}

// handoffCertFixture builds the keystores and certificate factory the
// rejection tests share: a sharded service "svc" (2 -> 4 reshard, range
// 0 -> 2) whose source voters endorse handoff states toward the
// destination group.
type handoffCertFixture struct {
	reg    *Registry
	destKS *auth.KeyStore
	frame  func() *HandoffFrame
	cert   func(payload []byte, voters ...int) *ReplyBundle
}

func newHandoffCertFixture(t *testing.T) *handoffCertFixture {
	t.Helper()
	master := []byte("handoff-cert-master")
	reg := NewRegistry(
		ServiceInfo{Name: "svc", N: 4, Shards: 2},
		ServiceInfo{Name: "coord", N: 1},
	)
	reg.SetDeployedShards("svc", 4)
	principals := reg.AllPrincipals()
	dest, err := reg.Lookup("svc#2")
	if err != nil {
		t.Fatalf("Lookup(svc#2): %v", err)
	}
	destID := auth.DriverID(dest.Name, 0)
	fx := &handoffCertFixture{
		reg:    reg,
		destKS: auth.NewDerivedKeyStore(master, destID, principals),
	}
	fx.frame = func() *HandoffFrame {
		return &HandoffFrame{
			Phase: HandoffInstall, Service: "svc",
			OldShards: 2, NewShards: 4, OldEpoch: 0, NewEpoch: 1,
			Source: 0, Dest: 2,
		}
	}
	fx.cert = func(payload []byte, voters ...int) *ReplyBundle {
		const reqID = "coord:1"
		digest := ReplyDigest(reqID, payload)
		receivers := append(dest.VoterIDs(), dest.DriverIDs()...)
		shares := make([]Share, 0, len(voters))
		for _, v := range voters {
			ks := auth.NewDerivedKeyStore(master, auth.VoterID("svc#0", v), principals)
			a, err := auth.NewAuthenticator(ks, replyAuthMsg(reqID, digest, false, 0, 0, 0).Bytes(), receivers)
			if err != nil {
				t.Fatalf("authenticator: %v", err)
			}
			shares = append(shares, Share{Replica: v, Auth: a})
		}
		return &ReplyBundle{ReqID: reqID, Target: "svc#0", Payload: payload, Shares: shares}
	}
	return fx
}

func TestVerifyHandoffCertAcceptsValid(t *testing.T) {
	fx := newHandoffCertFixture(t)
	f := fx.frame()
	payload := EncodeHandoffState(f, 7, true, []byte("<state/>"))
	f.Cert = fx.cert(payload, 0, 1) // f_s+1 = 2 distinct source voters
	hs, err := VerifyHandoffCert(fx.destKS, fx.reg, f)
	if err != nil {
		t.Fatalf("valid cert rejected: %v", err)
	}
	if string(hs.State) != "<state/>" || hs.Seq != 7 {
		t.Errorf("certified state = %q seq %d, want <state/> seq 7", hs.State, hs.Seq)
	}
}

func TestVerifyHandoffCertRejections(t *testing.T) {
	fx := newHandoffCertFixture(t)
	goodPayload := EncodeHandoffState(fx.frame(), 7, true, []byte("<state/>"))
	for _, tc := range []struct {
		name string
		mut  func(f *HandoffFrame)
	}{
		{"wrong digest (tampered state)", func(f *HandoffFrame) {
			// Shares endorse the digest of the genuine payload; swapping
			// the certified bytes (a Byzantine coordinator substituting
			// forged state) must fail share verification.
			f.Cert = fx.cert(goodPayload, 0, 1)
			f.Cert.Payload = EncodeHandoffState(fx.frame(), 7, true, []byte("<forged/>"))
		}},
		{"wrong epoch (replayed cert)", func(f *HandoffFrame) {
			// A certificate harvested from epoch 0->1 presented for a
			// frame claiming epoch 1->2.
			f.OldEpoch, f.NewEpoch = 1, 2
			f.Cert = fx.cert(goodPayload, 0, 1)
		}},
		{"wrong range", func(f *HandoffFrame) {
			stale := fx.frame()
			stale.Dest = 3
			p := EncodeHandoffState(stale, 7, true, []byte("<state/>"))
			f.Cert = fx.cert(p, 0, 1)
		}},
		{"too few signers", func(f *HandoffFrame) {
			f.Cert = fx.cert(goodPayload, 0) // 1 share < f_s+1 = 2
		}},
		{"duplicate signer", func(f *HandoffFrame) {
			f.Cert = fx.cert(goodPayload, 1, 1) // 2 shares, 1 distinct voter
		}},
		{"wrong source group", func(f *HandoffFrame) {
			f.Cert = fx.cert(goodPayload, 0, 1)
			f.Cert.Target = "svc#1"
		}},
		{"refused export", func(f *HandoffFrame) {
			p := EncodeHandoffState(fx.frame(), 7, false, []byte("<fault/>"))
			f.Cert = fx.cert(p, 0, 1)
		}},
		{"no certificate", func(f *HandoffFrame) { f.Cert = nil }},
	} {
		f := fx.frame()
		tc.mut(f)
		if _, err := VerifyHandoffCert(fx.destKS, fx.reg, f); err == nil {
			t.Errorf("%s: certificate accepted", tc.name)
		}
	}
}

// kvHandoffApp runs a raw (non-SOAP) handoff-capable executor on one
// replica of a shard group: a per-key counter store speaking the
// protocol of this file directly, the perpetual-level analogue of the
// tpcw StoreApp's reshard support. Requests:
//
//	"inc:<key>" -> "ok:<count>:s<shard>"  (or "RETRY@<epoch>" if frozen)
//	"get:<key>" -> "val:<count>:s<shard>" (or "RETRY@<epoch>" if frozen)
//	"has:<key>" -> "has:true" / "has:false" (never frozen-gated: probes
//	               physical residence for the single-owner assertion)
func kvHandoffApp(t *testing.T, rep *Replica) {
	t.Helper()
	drv := rep.Driver()
	_, shard, ok := SplitShardGroupName(rep.Service().Name)
	if !ok {
		t.Fatalf("kvHandoffApp on non-shard group %q", rep.Service().Name)
	}
	vals := make(map[string]int)
	frozen := make(map[string]uint64)
	moving := func(f *HandoffFrame) []string {
		var keys []string
		for k := range vals {
			from, to, moved := KeyMoves([]byte(k), f.OldShards, f.NewShards)
			if moved && from == f.Source && to == f.Dest {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		return keys
	}
	go func() {
		for {
			req, err := drv.NextRequest()
			if err != nil {
				return
			}
			var reply []byte
			if f, isHandoff := DecodeHandoffFrameFrom(req); isHandoff {
				switch f.Phase {
				case HandoffExport:
					var sb strings.Builder
					for _, k := range moving(f) {
						fmt.Fprintf(&sb, "%s=%d\n", k, vals[k])
						frozen[k] = f.NewEpoch
					}
					reply = EncodeHandoffState(f, req.Seq, true, []byte(sb.String()))
				case HandoffInstall:
					hs, err := rep.VerifyHandoffCert(f)
					if err != nil {
						reply = EncodeHandoffState(f, req.Seq, false, []byte(err.Error()))
						break
					}
					for _, line := range strings.Split(strings.TrimSpace(string(hs.State)), "\n") {
						if line == "" {
							continue
						}
						k, v, _ := strings.Cut(line, "=")
						n, _ := strconv.Atoi(v)
						vals[k] = n
						delete(frozen, k)
					}
					reply = EncodeHandoffState(f, req.Seq, true, nil)
				case HandoffDrop:
					for _, k := range moving(f) {
						delete(vals, k)
					}
					reply = EncodeHandoffState(f, req.Seq, true, nil)
				case HandoffCancel:
					if f.Source == shard {
						for _, k := range moving(f) {
							delete(frozen, k)
						}
					}
					reply = EncodeHandoffState(f, req.Seq, true, nil)
				}
			} else {
				op, key, _ := strings.Cut(string(req.Payload), ":")
				if epoch, isFrozen := frozen[key]; isFrozen && op != "has" {
					reply = []byte(fmt.Sprintf("RETRY@%d", epoch))
				} else {
					switch op {
					case "inc":
						vals[key]++
						reply = []byte(fmt.Sprintf("ok:%d:s%d", vals[key], shard))
					case "get":
						reply = []byte(fmt.Sprintf("val:%d:s%d", vals[key], shard))
					case "has":
						_, present := vals[key]
						reply = []byte(fmt.Sprintf("has:%v", present))
					default:
						reply = []byte("err:unknown-op")
					}
				}
			}
			if err := drv.Reply(req, reply); err != nil {
				return
			}
		}
	}()
}

// kvCall issues one request with re-route retries and returns the final
// (non-RETRY) payload and how many RETRY-AT-EPOCH answers preceded it.
func kvCall(t *testing.T, drv *Driver, key, payload string) (string, int) {
	t.Helper()
	retries := 0
	for attempt := 0; attempt < 4000; attempt++ {
		id, err := issue(drv, Request{Target: "t", Key: []byte(key), Payload: []byte(payload), Timeout: 20 * time.Second})
		if err != nil {
			t.Fatalf("keyed Do(%s): %v", payload, err)
		}
		r, err := drv.WaitReply(id)
		if err != nil {
			t.Fatalf("WaitReply(%s): %v", payload, err)
		}
		if r.Aborted {
			t.Fatalf("request %s aborted: a client saw neither success nor RETRY-then-success", payload)
		}
		if strings.HasPrefix(string(r.Payload), "RETRY@") {
			retries++
			time.Sleep(5 * time.Millisecond)
			continue
		}
		return string(r.Payload), retries
	}
	t.Fatalf("request %s still re-routing after 4000 attempts", payload)
	return "", retries
}

// TestLiveReshardZeroLoss is the acceptance regression test for the
// tentpole: a 2 -> 4 reshard under concurrent client load completes
// with zero lost or duplicated requests — every client increment is
// answered with success or RETRY-AT-EPOCH followed by success, final
// counter values equal the per-key success counts, each key physically
// resides on exactly one group afterwards, and no key flip-flops
// between owners mid-migration.
func TestLiveReshardZeroLoss(t *testing.T) {
	dep := NewDeployment([]byte("reshard-master"),
		ServiceInfo{Name: "c", N: 1},
		ServiceInfo{Name: "t", N: 4, Shards: 2},
	)
	dep.Configure("c", fastOpts())
	dep.Configure("t", fastOpts())
	if err := dep.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	dep.Start()
	t.Cleanup(dep.Stop)
	for k := 0; k < 2; k++ {
		for _, rep := range dep.ShardReplicas("t", k) {
			kvHandoffApp(t, rep)
		}
	}
	drv := dep.Driver("c", 0)

	const (
		workers     = 4
		keysPerWkr  = 3
		incsPerKey  = 30
		reshardAt   = 8 // increments per key before the reshard kicks off
		newShards   = 4
		totalPerKey = incsPerKey
	)
	type keyStat struct {
		key       string
		successes int
		retries   int
		owners    []int // distinct serving shards in observation order
	}
	stats := make([][]*keyStat, workers)
	for w := range stats {
		stats[w] = make([]*keyStat, keysPerWkr)
		for i := range stats[w] {
			stats[w][i] = &keyStat{key: fmt.Sprintf("key-%d-%d", w, i)}
		}
	}

	reshardGo := make(chan struct{})
	reshardReturned := make(chan struct{})
	var reshardOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < incsPerKey; round++ {
				if round == reshardAt && w == 0 {
					reshardOnce.Do(func() { close(reshardGo) })
				}
				if round == incsPerKey-1 {
					// The last increment of every key lands after the flip,
					// however fast the writers are: a moved key must then
					// show its new owner in the history checked below.
					<-reshardReturned
				}
				for _, ks := range stats[w] {
					payload, retries := kvCall(t, drv, ks.key, "inc:"+ks.key)
					if !strings.HasPrefix(payload, "ok:") {
						t.Errorf("inc %s answered %q", ks.key, payload)
						return
					}
					ks.successes++
					ks.retries += retries
					shard, _ := strconv.Atoi(payload[strings.LastIndex(payload, ":s")+2:])
					if len(ks.owners) == 0 || ks.owners[len(ks.owners)-1] != shard {
						ks.owners = append(ks.owners, shard)
					}
				}
			}
		}()
	}

	// Mid-load: provision the joining groups, attach their executors,
	// and drive the migration from the (single-replica) coordinator.
	var res *ReshardResult
	reshardDone := make(chan error, 1)
	go func() {
		defer close(reshardReturned)
		<-reshardGo
		if err := dep.ProvisionShards("t", newShards); err != nil {
			reshardDone <- err
			return
		}
		for k := 2; k < newShards; k++ {
			for _, rep := range dep.ShardReplicas("t", k) {
				kvHandoffApp(t, rep)
			}
		}
		var err error
		res, err = drv.Reshard("t", newShards, 20*time.Second)
		reshardDone <- err
	}()

	wg.Wait()
	if err := <-reshardDone; err != nil {
		t.Fatalf("Reshard: %v", err)
	}
	if res.OldShards != 2 || res.NewShards != newShards || res.NewEpoch != 1 {
		t.Fatalf("ReshardResult = %+v", res)
	}
	if info, _ := dep.Registry.Lookup("t"); info.Shards != newShards || info.Epoch != 1 {
		t.Fatalf("registry after reshard = %+v", info)
	}

	movedKeys, totalRetries := 0, 0
	for w := range stats {
		for _, ks := range stats[w] {
			if ks.successes != totalPerKey {
				t.Errorf("key %s: %d successes, want %d", ks.key, ks.successes, totalPerKey)
			}
			totalRetries += ks.retries
			// Exactly-once: the final agreed counter must equal the
			// client's success count — nothing lost, nothing duplicated.
			payload, _ := kvCall(t, drv, ks.key, "get:"+ks.key)
			want := fmt.Sprintf("val:%d:s%d", totalPerKey, ShardFor([]byte(ks.key), newShards))
			if payload != want {
				t.Errorf("key %s: final state %q, want %q", ks.key, payload, want)
			}
			// Single ownership epoch-to-epoch: a key is served by its old
			// owner, then (if moved) its new owner — never a third group,
			// never the old owner again.
			oldOwner, newOwner, moved := KeyMoves([]byte(ks.key), 2, newShards)
			if moved {
				movedKeys++
			}
			switch {
			case len(ks.owners) == 1 && ks.owners[0] == oldOwner && !moved:
			case len(ks.owners) == 1 && ks.owners[0] == newOwner:
				// Every observed increment landed after the migration.
			case len(ks.owners) == 2 && moved && ks.owners[0] == oldOwner && ks.owners[1] == newOwner:
			default:
				t.Errorf("key %s: serving-owner history %v (old %d, new %d, moved %v)", ks.key, ks.owners, oldOwner, newOwner, moved)
			}
			// Physical single residence after the drop phase.
			present := 0
			ids, err := issueAll(drv, Request{Target: "t", Payload: []byte("has:" + ks.key), Timeout: 20 * time.Second, AllShards: true})
			if err != nil {
				t.Fatalf("AllShards Do: %v", err)
			}
			for _, id := range ids {
				r, err := drv.WaitReply(id)
				if err != nil || r.Aborted {
					t.Fatalf("has reply: %+v, %v", r, err)
				}
				if string(r.Payload) == "has:true" {
					present++
				}
			}
			if present != 1 {
				t.Errorf("key %s: resident on %d groups after reshard, want exactly 1", ks.key, present)
			}
		}
	}
	if movedKeys == 0 {
		t.Error("no key moved in a 2->4 reshard; the test exercised nothing")
	}
	t.Logf("reshard 2->%d: %d keys moved, %d client RETRY-AT-EPOCH re-routes", newShards, movedKeys, totalRetries)
}

// TestReshardShrinkDrains migrates 4 -> 2 shards: state on the retired
// groups drains onto the survivors, the retired wire names stop
// resolving once the deployment retires them, and values survive.
func TestReshardShrinkDrains(t *testing.T) {
	dep := NewDeployment([]byte("shrink-master"),
		ServiceInfo{Name: "c", N: 1},
		ServiceInfo{Name: "t", N: 4, Shards: 4},
	)
	dep.Configure("c", fastOpts())
	dep.Configure("t", fastOpts())
	if err := dep.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	dep.Start()
	t.Cleanup(dep.Stop)
	for k := 0; k < 4; k++ {
		for _, rep := range dep.ShardReplicas("t", k) {
			kvHandoffApp(t, rep)
		}
	}
	drv := dep.Driver("c", 0)
	keys := []string{"a", "bb", "ccc", "dddd", "eeeee", "ffffff", "g7", "h8"}
	for _, k := range keys {
		for i := 0; i < 3; i++ {
			if payload, _ := kvCall(t, drv, k, "inc:"+k); !strings.HasPrefix(payload, "ok:") {
				t.Fatalf("inc %s: %q", k, payload)
			}
		}
	}
	if err := dep.ProvisionShards("t", 2); err != nil {
		t.Fatalf("ProvisionShards: %v", err)
	}
	res, err := drv.Reshard("t", 2, 20*time.Second)
	if err != nil {
		t.Fatalf("Reshard: %v", err)
	}
	if res.NewShards != 2 || res.NewEpoch != 1 {
		t.Fatalf("ReshardResult = %+v", res)
	}
	dep.RetireShards("t", 2)
	if _, err := dep.Registry.Lookup("t#2"); err == nil {
		t.Error("retired shard group t#2 still resolves")
	}
	for _, k := range keys {
		payload, _ := kvCall(t, drv, k, "get:"+k)
		want := fmt.Sprintf("val:3:s%d", ShardFor([]byte(k), 2))
		if payload != want {
			t.Errorf("key %s after shrink: %q, want %q", k, payload, want)
		}
	}
}

// TestReshardRejectsUnprovisioned ensures Reshard refuses to run before
// the joining groups exist, instead of stranding frozen keys.
func TestReshardRejectsUnprovisioned(t *testing.T) {
	dep := buildSharded(t, 1, 4, 2, nil)
	drv := dep.Driver("c", 0)
	if _, err := drv.Reshard("t", 4, time.Second); err == nil {
		t.Fatal("Reshard succeeded without provisioned shard groups")
	}
	if _, err := drv.Reshard("t", 2, time.Second); err == nil {
		t.Fatal("Reshard to the current shard count succeeded")
	}
}
