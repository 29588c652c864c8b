package tpcw

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"perpetualws/internal/auth"
	"perpetualws/internal/core"
	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

// replyLog records, per PGE replica, the reply body each replica's
// executor sent for each store request (keyed by the request's
// MessageID).
type replyLog struct {
	mu      sync.Mutex
	replies []map[string][]byte
}

func newReplyLog(n int) *replyLog {
	l := &replyLog{replies: make([]map[string][]byte, n)}
	for i := range l.replies {
		l.replies[i] = make(map[string][]byte)
	}
	return l
}

// wrap puts a recording MessageHandler in front of app.
func (l *replyLog) wrap(app core.Application) core.Application {
	return core.ApplicationFunc(func(ctx *core.AppContext) {
		ctx.MessageHandler = &recordingHandler{MessageHandler: ctx.MessageHandler, log: l, replica: ctx.ReplicaIndex}
		app.Run(ctx)
	})
}

func (l *replyLog) count(replica int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.replies[replica])
}

// awaitAll waits until every replica has replied to want requests.
func (l *replyLog) awaitAll(t *testing.T, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for i := range l.replies {
		for l.count(i) < want {
			if time.Now().After(deadline) {
				t.Fatalf("pge replica %d replied to %d of %d requests (stalled)", i, l.count(i), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

type recordingHandler struct {
	core.MessageHandler
	log     *replyLog
	replica int
}

func (h *recordingHandler) SendReply(reply, request *wsengine.MessageContext) error {
	h.log.mu.Lock()
	h.log.replies[h.replica][request.Envelope.Header.MessageID] = bytes.Clone(reply.Envelope.Body)
	h.log.mu.Unlock()
	return h.MessageHandler.SendReply(reply, request)
}

// requestMsgsSent counts the request frames a replica's driver sent:
// one per first attempt, the whole target group per retransmission.
func requestMsgsSent(r *perpetual.Replica) uint64 {
	return r.TransportStats().Class(uint8(perpetual.KindRequest)).SentMsgs
}

// TestReplyFastPathEarlyBundle is the early-bundle race regression: PGE
// replica 3's inbound links from its own group are delayed, so it
// learns each store request after the others, and the bank's certified
// bundle for its SendReceive reaches its driver before its executor
// issues the call. The driver must park that bundle and hand it to the
// call at issue time. A lost bundle stalls replica 3 (retransmission is
// a minute away, and nothing else would answer it), so the test
// requires every replica to answer all 200 sequential authorizations
// with no retransmission at all. The narrower race, a bundle landing
// between an id's reservation and its registration, is pinned by the
// perpetual package's TestReplyFastPathBundleRacesIssue.
func TestReplyFastPathEarlyBundle(t *testing.T) {
	const calls = 200
	const lagging = 3
	pgeOpts := fastOpts()
	pgeOpts.RetransmitInterval = time.Minute
	log := newReplyLog(4)
	cluster, err := core.NewCluster([]byte("early"),
		core.ServiceDef{Name: "store", N: 1, Options: fastOpts()},
		core.ServiceDef{Name: "pge", N: 4, App: log.wrap(PGESyncApp("bank")), Options: pgeOpts},
		core.ServiceDef{Name: "bank", N: 4, App: BankApp(), Options: fastOpts()},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cluster.Start()
	t.Cleanup(cluster.Stop)
	lag := auth.VoterID("pge", lagging)
	cluster.Deployment().Network.SetLatency(func(from, to auth.NodeID) time.Duration {
		if to == lag && from.Service == "pge" {
			return 3 * time.Millisecond
		}
		return 0
	})

	gw := &GatewayClient{Handler: cluster.Handler("store", 0), Service: "pge"}
	for i := 0; i < calls; i++ {
		card, amount := fmt.Sprintf("4111-%04d", i), int64(100+i)
		approved, txn, err := gw.Authorize(card, amount)
		if err != nil {
			t.Fatalf("authorize %d: %v", i, err)
		}
		if wantOK, wantTxn := BankDecision(card, amount); approved != wantOK || txn != wantTxn {
			t.Fatalf("authorize %d = %v %q, want %v %q", i, approved, txn, wantOK, wantTxn)
		}
	}
	log.awaitAll(t, calls, 20*time.Second)

	for i, r := range cluster.Deployment().Replicas("pge") {
		if sent := requestMsgsSent(r); sent > calls {
			t.Errorf("pge replica %d sent %d request frames for %d calls: something retransmitted", i, sent, calls)
		}
	}
	// The scenario must actually happen: calls answered by a parked
	// bundle are never sent, so the lagging replica sends fewer frames.
	if sent := requestMsgsSent(cluster.Deployment().Replicas("pge")[lagging]); sent >= calls {
		t.Errorf("lagging replica sent %d request frames for %d calls: no bundle arrived before its call", sent, calls)
	}
}

// TestReplyFastPathByzantineBank runs f = 1 Byzantine bank replicas
// under both calling styles: the synchronous PGE (SendReceive: reply
// fast path) and the asynchronous PGE (Send/ReceiveReply: agreed reply
// path). Callee determinism plus f_t+1 certification must give every
// correct PGE replica the same bytes on either path: each of the four
// replicas relays exactly the bank's correct decision, so no corrupted
// or stale (uncertified) bundle was ever delivered.
func TestReplyFastPathByzantineBank(t *testing.T) {
	const calls = 12
	faults := map[string]perpetual.Behavior{
		"corrupt": perpetual.CorruptResultFault{},
		"stale":   perpetual.StaleResultFault{},
	}
	apps := map[string]func(string) core.Application{
		"sync":  PGESyncApp,
		"async": PGEAsyncApp,
	}
	for fname, fault := range faults {
		for aname, app := range apps {
			t.Run(fname+"/"+aname, func(t *testing.T) {
				log := newReplyLog(4)
				cluster, err := core.NewCluster([]byte("byz"),
					core.ServiceDef{Name: "store", N: 1, Options: fastOpts()},
					core.ServiceDef{Name: "pge", N: 4, App: log.wrap(app("bank")), Options: fastOpts()},
					core.ServiceDef{Name: "bank", N: 4, App: BankApp(), Options: faultyOpts(map[int]perpetual.Behavior{1: fault})},
				)
				if err != nil {
					t.Fatalf("NewCluster: %v", err)
				}
				cluster.Start()
				t.Cleanup(cluster.Stop)

				h := cluster.Handler("store", 0)
				want := make(map[string][]byte, calls)
				for i := 0; i < calls; i++ {
					card, amount := fmt.Sprintf("4111-%04d", i), int64(500+i)
					req := wsengine.NewMessageContext()
					req.Options.To = soap.ServiceURI("pge")
					req.Options.Action = ActionAuthorize
					req.Envelope.Body = EncodeAuthorize(card, amount)
					if _, err := h.SendReceive(req); err != nil {
						t.Fatalf("authorize %d: %v", i, err)
					}
					approved, txn := BankDecision(card, amount)
					want[req.Envelope.Header.MessageID] = EncodeAuthorization(approved, txn)
				}
				log.awaitAll(t, calls, 20*time.Second)
				// The faulty replica may trail the quorum that answered.
				byz := cluster.Deployment().Replicas("bank")[1]
				for deadline := time.Now().Add(5 * time.Second); byz.FaultFirings() == 0 && time.Now().Before(deadline); {
					time.Sleep(5 * time.Millisecond)
				}
				if byz.FaultFirings() == 0 {
					t.Errorf("the %T on bank replica 1 never fired", fault)
				}
				for i := 0; i < 4; i++ {
					log.mu.Lock()
					for id, body := range want {
						if got := log.replies[i][id]; !bytes.Equal(got, body) {
							t.Errorf("pge replica %d relayed %q for %s, want %q", i, got, id, body)
						}
					}
					log.mu.Unlock()
				}
			})
		}
	}
}
