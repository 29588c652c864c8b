package main

// metricDef is one named metric of the benchmark's contract. The lists
// below are the single source of BENCHMARK.json's metric sections
// (`-contract` prints that file; a test checks the two agree).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are what a user of the deployment sees. The issue's fifth
// metric, failed_frac, is carried by the result's attempted/failed
// counts instead: it is 0 on every healthy run, and the contract's
// bounds are shares of the parent's median, which for 0 says nothing.
//
// Every bound is the contract's maximum. The issue asked for 10 %, 8 %
// and 10 % on the timed metrics; this shared sandbox does not hold them:
// with nothing else running in the VM, the same commit's medians moved
// by 15-35 % within the hour (neighbours on the host), and a bound
// tighter than the machine's own drift rejects changes at random. See
// "Steadiness" in README.md for the spreads measured.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s", higher, 0.25},
	{"cpu_us_per_req", "us", lower, 0.25},
	{"latency_p50_ms", "ms", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// perLayer metrics are named <module>.<what>; a workload that does not
// exercise one reports 0.
var perLayer = []metricDef{
	// client: the generator's own view.
	{"client.latency_p99_ms", "ms", lower, 0},
	{"client.sched_late_max_ms", "ms", lower, 0},
	{"client.sat_latency_p50_ms", "ms", lower, 0},
	{"client.throughput_iqr_pct", "%", lower, 0},
	{"client.cpu_util_cores", "cores", higher, 0},
	{"client.paced_cpu_us_per_req", "us", lower, 0},
	{"client.commit_latency_p50_ms", "ms", lower, 0},
	// runtime
	{"runtime.allocs_per_req", "count", lower, 0},
	{"runtime.alloc_kb_per_req", "KB", lower, 0},
	{"runtime.gc_cpu_pct", "%", lower, 0},
	{"runtime.mutex_wait_us_per_req", "us", lower, 0},
	{"runtime.peak_rss_mb", "MB", lower, 0},
	{"runtime.goroutines_end", "count", lower, 0},
	// transport
	{"transport.msgs_per_req", "count", lower, 0},
	{"transport.kb_per_req", "KB", lower, 0},
	{"transport.request_msgs_per_req", "count", lower, 0},
	{"transport.bft_msgs_per_req", "count", lower, 0},
	{"transport.reply_msgs_per_req", "count", lower, 0},
	{"transport.rejected_msgs", "count", lower, 0},
	{"transport.tcp_frames_per_req", "count", lower, 0},
	{"transport.tcp_frames_per_flush", "count", higher, 0},
	{"transport.tcp_queue_drops", "count", lower, 0},
	{"transport.tcp_redials", "count", lower, 0},
	{"transport.adapter_send_ns", "ns", lower, 0},
	{"transport.adapter_multicast3_ns", "ns", lower, 0},
	{"transport.memnet_hop_ns", "ns", lower, 0},
	{"transport.tcp_hop_ns", "ns", lower, 0},
	// clbft
	{"clbft.agreements_per_req", "count", lower, 0},
	{"clbft.tentative_share", "frac", higher, 0},
	{"clbft.piggyback_share", "frac", higher, 0},
	{"clbft.rollbacks", "count", lower, 0},
	{"clbft.view_changes", "count", lower, 0},
	{"clbft.cpu_us_per_op", "us", lower, 0},
	{"clbft.msg_encode_ns", "ns", lower, 0},
	{"clbft.msg_decode_ns", "ns", lower, 0},
	// perpetual
	{"perpetual.cpu_us_per_req", "us", lower, 0},
	{"perpetual.throughput_rps", "req/s", higher, 0},
	{"perpetual.read_certified_share", "frac", higher, 0},
	{"perpetual.read_fallbacks", "count", lower, 0},
	{"perpetual.sheds", "count", lower, 0},
	{"perpetual.msg_encode_ns", "ns", lower, 0},
	{"perpetual.msg_decode_ns", "ns", lower, 0},
	// core
	{"core.overhead_us_per_req", "us", lower, 0},
	// wire
	{"wire.encode_ns", "ns", lower, 0},
	{"wire.decode_ns", "ns", lower, 0},
	// auth
	{"auth.mac_ns", "ns", lower, 0},
	{"auth.verify_ns", "ns", lower, 0},
	{"auth.authenticator_build8_ns", "ns", lower, 0},
	{"auth.authenticator_verify_ns", "ns", lower, 0},
	// soap / wsengine
	{"soap.marshal_ns", "ns", lower, 0},
	{"soap.parse_ns", "ns", lower, 0},
	{"soap.envelope_bytes", "B", lower, 0},
	{"wsengine.sendout_ns", "ns", lower, 0},
	{"wsengine.receivein_ns", "ns", lower, 0},
	// tpcw
	{"tpcw.execute_ns", "ns", lower, 0},
	{"tpcw.page_codec_ns", "ns", lower, 0},
	{"tpcw.authorize_codec_ns", "ns", lower, 0},
	// span: the traced pass, p50 per request.
	{"span.send_us", "us", lower, 0},
	{"span.agree_us", "us", lower, 0},
	{"span.execute_us", "us", lower, 0},
	{"span.inner_call_us", "us", lower, 0},
	{"span.reply_us", "us", lower, 0},
	{"span.certify_us", "us", lower, 0},
	{"span.sum_vs_latency_pct", "%", higher, 0},
	{"trace.overhead_pct", "%", lower, 0},
}
