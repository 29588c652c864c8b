package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"perpetualws/internal/core"
	"perpetualws/internal/perpetual"
	"perpetualws/internal/transport"
)

// Every read of a counter the program (or the Go runtime, or the
// kernel) keeps is in this file, so that when the repo's four stats
// structs merge into one registry the benchmark needs a one-file
// correction.

// counters is one point-in-time reading of everything the per-layer
// metrics are deltas of.
type counters struct {
	at  time.Time
	cpu time.Duration

	transport transport.StatsSnapshot
	net       transport.TCPStatsSnapshot

	// Summed over every replica of the workload's replicated groups.
	seqs, tentative, piggyback, rollbacks, views uint64

	reads perpetual.ReadStats // the client's driver
	sheds uint64              // client-edge sheds + every voter-side refusal

	allocObjects, allocBytes uint64
	gcCPU, mutexWait         float64 // seconds
}

// processCPU is user+system CPU time of this process: the whole
// in-process deployment plus the load generator.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func goroutines() int { return runtime.NumGoroutine() }

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/sync/mutex/wait/total:seconds"},
}

func readCounters(c *core.Cluster, w *workload) counters {
	k := counters{
		at:        time.Now(),
		cpu:       processCPU(),
		transport: c.TransportStats(),
		net:       c.NetStats(),
	}
	dep := c.Deployment()
	for _, svc := range w.replicated {
		for _, r := range dep.Replicas(svc) {
			k.seqs += r.AgreedSeq()
			k.tentative += r.TentativeExecs()
			k.piggyback += r.PiggybackedCommits()
			k.rollbacks += r.Rollbacks()
			k.views += r.VoterView()
		}
		o := dep.OverloadStats(svc)
		k.sheds += o.ShedIntake + o.ShedProposer + o.ShedReads + o.ExpiredDrops + o.SuppressedReplies
	}
	client := dep.Driver("client", 0)
	k.reads = client.ReadStats()
	k.sheds += client.LocalSheds() + k.reads.Shed

	metrics.Read(runtimeSamples)
	k.allocObjects = runtimeSamples[0].Value.Uint64()
	k.allocBytes = runtimeSamples[1].Value.Uint64()
	k.gcCPU = runtimeSamples[2].Value.Float64()
	k.mutexWait = runtimeSamples[3].Value.Float64()
	return k
}

// classMsgs sums sent messages over the given perpetual message kinds.
func classMsgs(s transport.StatsSnapshot, kinds ...perpetual.Kind) uint64 {
	var n uint64
	for _, k := range kinds {
		n += s.Class(uint8(k)).SentMsgs
	}
	return n
}

// counterMetrics turns the saturate phase's counter deltas into the
// per-layer counter metrics, per correct reply.
func counterMetrics(m map[string]float64, before, after counters, replies int64) {
	per := func(d uint64) float64 {
		if replies <= 0 {
			return 0
		}
		return float64(d) / float64(replies)
	}
	share := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	t0, t1 := before.transport, after.transport
	m["transport.msgs_per_req"] = per(t1.SentMsgs - t0.SentMsgs)
	m["transport.kb_per_req"] = per(t1.SentBytes-t0.SentBytes) / 1024
	m["transport.request_msgs_per_req"] = per(classMsgs(t1, perpetual.KindRequest, perpetual.KindReadRequest) -
		classMsgs(t0, perpetual.KindRequest, perpetual.KindReadRequest))
	m["transport.bft_msgs_per_req"] = per(classMsgs(t1, perpetual.KindBFT) - classMsgs(t0, perpetual.KindBFT))
	replyKinds := []perpetual.Kind{perpetual.KindReplyShare, perpetual.KindReplyBundle, perpetual.KindResultForward, perpetual.KindReadReply}
	m["transport.reply_msgs_per_req"] = per(classMsgs(t1, replyKinds...) - classMsgs(t0, replyKinds...))
	m["transport.rejected_msgs"] = float64(t1.RejectedMsgs - t0.RejectedMsgs)

	n0, n1 := before.net, after.net
	m["transport.tcp_frames_per_req"] = per(n1.FramesOut - n0.FramesOut)
	m["transport.tcp_frames_per_flush"] = share(n1.FramesOut-n0.FramesOut, n1.Flushes-n0.Flushes)
	m["transport.tcp_queue_drops"] = float64(n1.QueueDrops - n0.QueueDrops)
	m["transport.tcp_redials"] = float64(n1.Redials - n0.Redials)

	// Each replica of a group walks the same sequence numbers, so the
	// per-replica sums divide by the group size to count agreements once.
	seqs := after.seqs - before.seqs
	m["clbft.agreements_per_req"] = per(seqs) / groupSize
	m["clbft.tentative_share"] = share(after.tentative-before.tentative, seqs)
	m["clbft.piggyback_share"] = share(after.piggyback-before.piggyback, seqs)
	m["clbft.rollbacks"] = float64(after.rollbacks - before.rollbacks)
	// Views start at 0, so the end reading is the number of view changes
	// since the deployment started, warm-up included.
	m["clbft.view_changes"] = float64(after.views)

	attempts := after.reads.Attempts - before.reads.Attempts
	m["perpetual.read_certified_share"] = share(after.reads.Certified-before.reads.Certified, attempts)
	m["perpetual.read_fallbacks"] = float64(after.reads.Fallbacks - before.reads.Fallbacks)
	m["perpetual.sheds"] = float64(after.sheds) // must be 0, so since start-up like the views

	cpu := (after.cpu - before.cpu).Seconds()
	m["runtime.allocs_per_req"] = per(after.allocObjects - before.allocObjects)
	m["runtime.alloc_kb_per_req"] = per(after.allocBytes-before.allocBytes) / 1024
	if cpu > 0 {
		m["runtime.gc_cpu_pct"] = (after.gcCPU - before.gcCPU) / cpu * 100
	}
	if replies > 0 {
		m["runtime.mutex_wait_us_per_req"] = (after.mutexWait - before.mutexWait) * 1e6 / float64(replies)
	}
}
