// Sharded: deploy one logical key-value service as four independent
// Byzantine fault-tolerant voter groups (4 shards × 4 replicas, each
// shard tolerating one arbitrary fault) and route requests to shards by
// key — the horizontal-scaling configuration that lifts the single
// agreement-instance throughput cap. A broadcast op fans out to every
// shard through the driver API. It exits non-zero if a get after a put
// returns the wrong value or comes from the wrong shard, or if the
// fan-out misses a shard.
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
// together form one horizontally partitioned service.
var kvApp = core.ApplicationFunc(func(ctx *core.AppContext) {
	store := make(map[string]string)
	for {
		req, err := ctx.ReceiveRequest()
		if err != nil {
			return
		}
		reply := wsengine.NewMessageContext()
		body := string(req.Envelope.Body)
		switch {
		case strings.HasPrefix(body, "put:"):
			kv := strings.SplitN(strings.TrimPrefix(body, "put:"), "=", 2)
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
		req.Options.TimeoutMillis = callTimeoutMillis
		req.Envelope.Body = []byte(body)
		reply, err := h.SendReceive(req)
		if err != nil {
			log.Fatal(err)
		}
		return string(reply.Envelope.Body)
	}

	// Keyed writes land on the shard the key hashes to; reads with the
	// same key are served by the same group, so the value is found.
	const keys = 16
	fmt.Printf("== keyed puts (%d keys over %d shards × 4 replicas) ==\n", keys, shards)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("user-%d", i)
		call(key, fmt.Sprintf("put:%s=v%d", key, i))
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("user-%d", i)
		shard := perpetual.ShardFor([]byte(key), shards)
		got := call(key, "get:"+key)
		want := fmt.Sprintf("<value shard=%q>v%d</value>", perpetual.ShardGroupName("kv", shard), i)
		if got != want {
			log.Fatalf("get %s = %s, want %s", key, got, want)
		}
		if i%4 == 3 {
			fmt.Printf("get %s on shard %d -> %s\n", key, shard, got)
		}
	}

	// Broadcast-style ops fan out one independent request per shard,
	// each agreed by its own voter group. Shard groups are first-class
	// addressable services ("kv#0".."kv#3"), so the fan-out is plain
	// per-shard addressing; raw executors use Driver.Do with AllShards
	// for the same thing. Every shard must answer for itself, and the
	// counts must add up to the keys put.
	fmt.Println("== broadcast count across all shards ==")
	total := 0
	for k := 0; k < shards; k++ {
		group := perpetual.ShardGroupName("kv", k)
		req := wsengine.NewMessageContext()
		req.Options.To = soap.ServiceURI(group)
		req.Options.Action = "urn:kv:op"
		req.Options.TimeoutMillis = callTimeoutMillis
		req.Envelope.Body = []byte("count")
		reply, err := h.SendReceive(req)
		if err != nil {
			log.Fatal(err)
		}
		body := string(reply.Envelope.Body)
		prefix := fmt.Sprintf("<count shard=%q>", group)
		if !strings.HasPrefix(body, prefix) {
			log.Fatalf("shard %d answered %q, want a count from %s", k, body, group)
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(body, prefix), "</count>"))
		if err != nil {
			log.Fatalf("unexpected count reply %q: %v", body, err)
		}
		fmt.Printf("shard %d holds %2d keys: %s\n", k, n, body)
		total += n
	}
	fmt.Printf("total keys across shards: %d\n", total)
	if total != keys {
		log.Fatalf("the fan-out counted %d keys, want %d", total, keys)
	}
}

// callTimeoutMillis bounds each call, so a shard that never answers
// fails the check with an aborted reply instead of hanging the example.
const callTimeoutMillis = 10000

func tuning() perpetual.ServiceOptions {
	return perpetual.ServiceOptions{
		ViewChangeTimeout:  time.Second,
		RetransmitInterval: time.Second,
	}
}
