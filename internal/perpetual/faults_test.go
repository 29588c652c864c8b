package perpetual

import (
	"testing"
	"time"
)

func TestDropFaultRecoversViaRetransmission(t *testing.T) {
	// A lossy target replica (50% outbound loss) must not prevent the
	// call from completing: retransmission and the remaining replicas
	// cover for it.
	dep := buildPair(t, 1, 4, func(dep *Deployment) {
		opts := fastOpts()
		opts.RetransmitInterval = 150 * time.Millisecond
		opts.Behaviors = map[int]Behavior{2: DropFault{P: 0.5, Seed: 99}}
		dep.Configure("t", opts)
	})
	echoApp(t, dep, "t")
	for i := 0; i < 3; i++ {
		reqID := callAll(t, dep, "c", "t", []byte{byte(i)}, 0)
		r := awaitAll(t, dep, "c", reqID)
		if r.Aborted {
			t.Fatalf("call %d aborted", i)
		}
	}
}

func TestStaleResultFaultTolerated(t *testing.T) {
	// One replica answers every request with an empty (stale) result;
	// the caller still receives the correct majority reply.
	dep := buildPair(t, 1, 4, func(dep *Deployment) {
		opts := fastOpts()
		opts.Behaviors = map[int]Behavior{3: StaleResultFault{}}
		dep.Configure("t", opts)
	})
	echoApp(t, dep, "t")
	reqID := callAll(t, dep, "c", "t", []byte("fresh"), 0)
	r := awaitAll(t, dep, "c", reqID)
	if r.Aborted || string(r.Payload) != "echo:fresh" {
		t.Errorf("reply = %+v", r)
	}
}

func TestSilentCallerReplicaDoesNotBlockOthers(t *testing.T) {
	// A silent replica of the CALLING service: the remaining 3 of 4
	// must still complete calls (fc+1 = 2 matching request copies
	// suffice at the target, and calling-group agreement tolerates one
	// mute member).
	dep := buildPair(t, 4, 4, func(dep *Deployment) {
		opts := fastOpts()
		opts.Behaviors = map[int]Behavior{3: SilentFault{}}
		dep.Configure("c", opts)
	})
	echoApp(t, dep, "t")
	// The silent replica's driver still issues the call (determinism),
	// but its messages go nowhere.
	var reqID string
	for i, drv := range dep.Drivers("c") {
		id, err := issue(drv, Request{Target: "t", Payload: []byte("sc")})
		if err != nil {
			t.Fatalf("Do from %d: %v", i, err)
		}
		if reqID == "" {
			reqID = id
		}
	}
	// Await on the three correct replicas only.
	for _, i := range []int{0, 1, 2} {
		r, err := dep.Driver("c", i).WaitReply(reqID)
		if err != nil {
			t.Fatalf("WaitReply at %d: %v", i, err)
		}
		if r.Aborted || string(r.Payload) != "echo:sc" {
			t.Errorf("replica %d reply = %+v", i, r)
		}
	}
}

func TestCorruptResponderCannotForgeBundle(t *testing.T) {
	// The responder rotates per request; with a corrupt-result replica
	// sometimes acting as responder, callers must never accept a reply
	// that lacks f+1 genuine endorsements. Issue several requests so
	// the rotation passes through the faulty replica.
	dep := buildPair(t, 1, 4, func(dep *Deployment) {
		opts := fastOpts()
		opts.Behaviors = map[int]Behavior{1: CorruptResultFault{}}
		dep.Configure("t", opts)
	})
	echoApp(t, dep, "t")
	for i := 0; i < 6; i++ {
		reqID := callAll(t, dep, "c", "t", []byte{'x', byte(i)}, 0)
		r := awaitAll(t, dep, "c", reqID)
		want := "echo:x" + string([]byte{byte(i)})
		if r.Aborted || string(r.Payload) != want {
			t.Fatalf("call %d: reply %q, want %q", i, r.Payload, want)
		}
	}
}
