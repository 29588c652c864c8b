// Package perpetualws is the root of the Perpetual-WS reproduction: a
// Go implementation of "Byzantine Fault-Tolerant Web Services for n-Tier
// and Service Oriented Architectures" (Pallemulle & Goldman,
// WUCSE-2007-53 / ICDCS 2008).
//
// The implementation lives under internal/ (see DESIGN.md for the
// module inventory); runnable entry points are cmd/perpetualctl (which
// regenerates the paper's evaluation figures: `perpetualctl properties`,
// `fig6` … `fig9` and `all`), cmd/replica (a TCP replica host), and the
// programs under examples/. The repo's performance instrument is the
// separate benchmark/ module (`go run -C benchmark .`), whose workloads
// and metrics BENCHMARK.json declares.
//
// Beyond the paper, services shard across independent voter groups
// (rendezvous-hash key routing; the shard count is fixed at deployment,
// see examples/sharded), and a voter group can replace a member's
// incarnation through agreed epochs (proactive recovery; a group's size
// is fixed at deployment). The TCP transport is a
// production-grade asynchronous per-link pipeline (bounded per-peer
// queues with link-local drops, background dial/redial, pooled frame
// buffers, encode-once multicast on the wire) and a first-class
// deployment mode: Figure 7 runs over loopback TCP
// (`perpetualctl fig7 -transport tcp`), and examples/tcpcluster drives a
// real multi-process voter group over sockets.
//
// Requests travel a two-tier path: operations declared read-only (the
// browse pages of the TPC-W store) are multicast by the driver to the
// owning shard's replicas, executed speculatively against last-stable
// state, and accepted on f_t+1 matching digest endorsements with
// per-session leases guaranteeing read-your-writes and monotonic
// reads — no agreement rounds. Commits, and any read that fails to
// certify (Byzantine divergence, short quorum, lagging replicas), run
// through full agreement deterministically (see DESIGN.md, "Two-tier
// read path"; the benchmark's browse_mix workload measures it). CI
// vets, builds and tests the module under the race detector and the
// benchmark/ module, runs the protocol suites (cancellation, read and
// reply fast paths, membership, overload) under
// -race, prints the tier-1 coverage of internal/ with every uncovered
// function, enforces the TCP frames-per-request ceiling, smoke-runs
// `perpetualctl fig7` and `fig9`, runs a fault/soak job, and pins
// staticcheck/govulncheck steps.
package perpetualws
