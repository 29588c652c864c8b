// Package clbft implements the Castro-Liskov practical Byzantine
// fault-tolerance algorithm (CLBFT, from "Practical Byzantine Fault
// Tolerance", OSDI 1999) as used by Perpetual-WS voter groups.
//
// A group of n = 3f+1 replicas orders opaque operations so that every
// correct replica delivers the same operations in the same sequence, as
// long as at most f replicas are faulty. The implementation provides:
//
//   - the normal-case three-phase protocol (pre-prepare, prepare,
//     commit) with piggybacked request bodies;
//   - tentative execution: a replica delivers an operation as soon as
//     it is prepared (and everything below it has committed), marking
//     the delivery Tentative; the commit certificate later confirms it,
//     and a view change that fails to re-propose the same digest rolls
//     the execution back through the WithRollback handler;
//   - one vote message: a prepare or a commit is a Vote of (phase,
//     view, seq, digest), named by its authenticated sender, and votes
//     travel together in a MsgVotes message that ReceiveEncoded decodes
//     by value, so a vote allocates nothing on its way to the log;
//   - commit piggybacking: commit votes ride the next outbound
//     pre-prepare or prepare instead of going out on their own, with a
//     short-delay flush heartbeat of commits alone as the idle
//     backstop — under load the commit round costs no extra wire frames;
//   - periodic checkpoints with quorum-certified garbage collection of
//     the message log;
//   - view changes with new-view certificates, so a faulty primary is
//     replaced and prepared operations survive into the new view;
//   - sequence-number watermarks bounding log growth;
//   - membership barriers and bootstraps: a WithBarrier predicate halts
//     execution at an agreed membership operation's sequence number,
//     WithHaltHook fires once that sequence commits, and the embedder
//     rebuilds each member from an ExportBootstrap snapshot (position,
//     digest chain value, retained history, dedup state, re-buffered
//     pending requests) under the new epoch; a joining replica
//     starts from a JoinBootstrap and replays the gap from a donated
//     stable checkpoint to the barrier over the fetch protocol,
//     vote-gated until caught up.
//
// Operations are identified by an opaque OpID chosen by the proposer.
// OpIDs deduplicate re-proposals (any replica may re-submit an operation
// while it is unsure whether the primary ordered it). Deduplication
// state is garbage-collected together with the log; layers above (the
// Perpetual core) must tolerate redelivery of operations whose OpIDs
// have been collected, which they do by tracking per-request state.
//
// The replica is a single-goroutine event loop. Messages, submissions
// and timer fires enter through one inbox, which the loop drains a batch
// per wake, and handle, the one entry to the protocol state, takes them
// one at a time. Time arrives on the event: a handler reads no clock,
// and arms a timer by setting its due time. Outbound messages leave
// through a Transport supplied by the embedder, which also authenticates
// them (Perpetual-WS uses pairwise MACs in the ChannelAdapter); clbft
// trusts the replica index the transport attributes to each message.
package clbft
