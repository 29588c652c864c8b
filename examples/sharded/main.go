// Sharded: deploy one logical key-value service as four independent
// Byzantine fault-tolerant voter groups (4 shards × 4 replicas, each
// shard tolerating one arbitrary fault) and route requests to shards by
// key — the horizontal-scaling configuration that lifts the single
// agreement-instance throughput cap. A broadcast op fans out to every
// shard through the driver API.
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"perpetualws/internal/core"
	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

// kvApp is a deterministic replicated key-value store. Each shard's
// replicas hold only the keys routed to that shard, so the four groups
// together form one horizontally partitioned service. Puts arriving as
// cross-shard transaction PREPAREs are staged and only applied when the
// coordinator's agreed COMMIT arrives, so multi-key writes spanning
// shards are atomic.
var kvApp = core.ApplicationFunc(func(ctx *core.AppContext) {
	store := make(map[string]string)
	staged := make(map[string][][2]string) // txn id -> prepared puts
	for {
		req, err := ctx.ReceiveRequest()
		if err != nil {
			return
		}
		reply := wsengine.NewMessageContext()
		body := string(req.Envelope.Body)
		_, genuineOutcome := req.Property(core.PropTxnOutcome)
		if txnID, commit, ok := core.DecodeTxnOutcome(req.Envelope.Body); ok && genuineOutcome {
			if commit {
				for _, kv := range staged[txnID] {
					store[kv[0]] = kv[1]
				}
			}
			delete(staged, txnID)
			reply.Envelope.Body = []byte(fmt.Sprintf("<ack shard=%q/>", ctx.ServiceName))
			if err := ctx.SendReply(reply, req); err != nil {
				return
			}
			continue
		}
		switch {
		case strings.HasPrefix(body, "put:"):
			kv := strings.SplitN(strings.TrimPrefix(body, "put:"), "=", 2)
			if txnID, inTxn := req.Property(core.PropTxnID); inTxn {
				staged[txnID.(string)] = append(staged[txnID.(string)], [2]string{kv[0], kv[1]})
				reply.Envelope.Body = []byte(fmt.Sprintf("<staged shard=%q/>", ctx.ServiceName))
				break
			}
			store[kv[0]] = kv[1]
			reply.Envelope.Body = []byte(fmt.Sprintf("<ok shard=%q/>", ctx.ServiceName))
		case strings.HasPrefix(body, "get:"):
			reply.Envelope.Body = []byte(fmt.Sprintf("<value shard=%q>%s</value>",
				ctx.ServiceName, store[strings.TrimPrefix(body, "get:")]))
		case body == "count":
			reply.Envelope.Body = []byte(fmt.Sprintf("<count shard=%q>%d</count>", ctx.ServiceName, len(store)))
		default:
			reply.Envelope.Body = []byte("<error/>")
		}
		if err := ctx.SendReply(reply, req); err != nil {
			return
		}
	}
})

func main() {
	const shards = 4
	cluster, err := core.NewCluster([]byte("sharded-demo"),
		core.ServiceDef{Name: "client", N: 1, Options: tuning()},
		core.ServiceDef{Name: "kv", N: 4, Shards: shards, App: kvApp, Options: tuning()},
	)
	if err != nil {
		log.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	h := cluster.Handler("client", 0)
	call := func(key, body string) string {
		req := wsengine.NewMessageContext()
		req.Options.To = soap.ServiceURI("kv")
		req.Options.Action = "urn:kv:op"
		req.Options.RoutingKey = key
		req.Envelope.Body = []byte(body)
		reply, err := h.SendReceive(req)
		if err != nil {
			log.Fatal(err)
		}
		return string(reply.Envelope.Body)
	}

	// Keyed writes land on the shard the key hashes to; reads with the
	// same key are served by the same group, so the value is found.
	fmt.Println("== keyed puts (16 keys over 4 shards × 4 replicas) ==")
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("user-%d", i)
		call(key, fmt.Sprintf("put:%s=v%d", key, i))
	}
	for _, key := range []string{"user-3", "user-7", "user-11"} {
		fmt.Printf("get %s on shard %d -> %s\n",
			key, perpetual.ShardFor([]byte(key), shards), call(key, "get:"+key))
	}

	// Broadcast-style ops fan out one independent request per shard,
	// each agreed by its own voter group. Shard groups are first-class
	// addressable services ("kv#0".."kv#3"), so the fan-out is plain
	// per-shard addressing; raw executors use Driver.Do with AllShards
	// for the same thing.
	fmt.Println("== broadcast count across all shards ==")
	total := 0
	for k := 0; k < shards; k++ {
		req := wsengine.NewMessageContext()
		req.Options.To = soap.ServiceURI(perpetual.ShardGroupName("kv", k))
		req.Options.Action = "urn:kv:op"
		req.Envelope.Body = []byte("count")
		reply, err := h.SendReceive(req)
		if err != nil {
			log.Fatal(err)
		}
		body := string(reply.Envelope.Body)
		inner := strings.TrimSuffix(body[strings.Index(body, ">")+1:], "</count>")
		n, err := strconv.Atoi(inner)
		if err != nil {
			log.Fatalf("unexpected count reply %q: %v", body, err)
		}
		fmt.Printf("shard %d holds %2d keys: %s\n", k, n, body)
		total += n
	}
	fmt.Printf("total keys across shards: %d\n", total)

	// Cross-shard atomic transaction: two keys on two different voter
	// groups are written together or not at all. The client service's
	// own voter group acts as the replicated 2PC coordinator: each
	// shard's vote is a BFT-agreed reply and the commit decision is
	// agreed in the client group's CLBFT log.
	fmt.Println("== atomic cross-shard put (2PC over voter groups) ==")
	ts := h.(core.TxnSender)
	// Pick two of the demo keys living on different voter groups.
	a, b := "user-0", "user-1"
	for i := 1; i < 16; i++ {
		b = fmt.Sprintf("user-%d", i)
		if perpetual.ShardFor([]byte(b), shards) != perpetual.ShardFor([]byte(a), shards) {
			break
		}
	}
	res, err := ts.SendTxn("kv", []string{a, b},
		[][]byte{[]byte("put:" + a + "=paid"), []byte("put:" + b + "=paid")}, 5000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("txn %s committed=%v across shards %d and %d\n",
		res.TxnID, res.Committed,
		perpetual.ShardFor([]byte(a), shards), perpetual.ShardFor([]byte(b), shards))
	for _, key := range []string{a, b} {
		fmt.Printf("get %s -> %s\n", key, call(key, "get:"+key))
	}
}

func tuning() perpetual.ServiceOptions {
	return perpetual.ServiceOptions{
		ViewChangeTimeout:  time.Second,
		RetransmitInterval: time.Second,
	}
}
