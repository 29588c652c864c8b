// Package perpetual implements the Perpetual algorithm (Pallemulle,
// Thorvaldsson, Goldman, WUCSE-2007-50) as used by Perpetual-WS: it
// enables two replicated deterministic services to interact using
// synchronous or asynchronous message exchange while preserving the
// safety and liveness of every correct service, even when a peer service
// is compromised (more than f faulty replicas).
//
// Each replica of a service is split into a voter and a driver, which
// form two distinct replica groups (the voter and driver of a given
// replica are co-located on one host). Voters of a service run CLBFT
// agreement on (a) external requests sent to the service and (b) replies
// to requests the service issued, plus internal operations (agreed
// utility values and deterministic aborts). Drivers host the executor —
// the application's single long-running deterministic thread — and talk
// to the network on the request/reply fast path.
//
// A request flows through the nine stages of the paper's Figure 1:
//
//  1. calling drivers send the request to the target voter primary
//  2. the target primary gathers f_c+1 matching copies and runs CLBFT
//  3. target voters hand the agreed request to co-located drivers
//  4. target drivers execute and return the result to their voters
//  5. target voters send reply shares to the responder voter
//  6. the responder bundles f_t+1 matching shares (with MAC
//     authenticators) and sends the bundle to every calling driver
//  7. calling drivers verify the bundle and forward it to their voter
//     primary
//  8. calling voters run CLBFT on the result
//  9. calling voters enqueue the agreed result for their executors
//
// Fault handling: calling drivers retransmit unanswered requests to all
// target voters with a rotated responder choice, so a faulty primary or
// responder at the target cannot block a correct caller; target voters
// serve repeat requests from a bounded reply cache. Requests with a
// timeout are aborted deterministically: local timers merely propose an
// abort operation through the caller's own voter group, and the CLBFT
// delivery order decides — identically on every replica — whether the
// abort or the reply wins.
//
// Reply authenticity: every target voter authenticates its reply digest
// with MAC entries for all calling drivers and voters. A calling driver
// accepts a bundle only with f_t+1 authenticators from distinct target
// voters each carrying a valid entry for itself — at least one of those
// voters is correct, so the payload is the target's unique correct
// reply. Calling voters re-verify the same certificate before agreeing
// (via the CLBFT operation validator), so fewer than f_c+1 faulty
// calling replicas cannot inject a fabricated reply.
//
// Call surface: Driver.Do(ctx, Request) is the single entry point for
// every request flavor — keyed agreement calls, session-tier reads,
// shard fan-outs — with cancellation and deadlines carried by a
// context.Context. How a call settles — a session-tier read included,
// through its widening and its fallback to agreement — is one pure
// decision function, step (call.go), that the driver executes. A
// canceled call is settled, not abandoned: it is aborted (locally on the
// reply and read fast paths, group-wide otherwise) and its outcome never
// surfaces as an orphan event.
//
// Execution parallelism: independent voter groups share no locks on the
// per-frame path, so at GOMAXPROCS>1 shard groups run as parallel
// agreement pipelines. The registry is a map built once and never
// written; the key store publishes copy-on-write snapshots. Routing,
// delivery, and MAC signing read both lock-free;
// transport counters are striped across padded cache lines; multicast
// MAC signing fans out across cores. See DESIGN.md "Execution
// parallelism (PR 9)" for the lock inventory.
//
// Overload control: every stage of the request path is bounded, and
// every refusal is deterministic. A ctx deadline is stamped into the
// request envelope; voters drop expired work pre-admission and
// suppress its reply share pre-reply. Intake is
// bounded (MaxIntake, shedding eldest-first so the freshest request —
// the one with deadline left — is the one admitted), the CLBFT
// proposer queue is bounded (MaxProposerQueue), and session-tier
// reads shed before agreement does (at half the intake bound). A
// refusal is a busy frame carrying a RETRY-AFTER hint; a driver
// settles a call as overloaded only on busys from f_t+1 distinct
// voters, so a lying minority cannot abort a call the correct
// majority is serving. OverloadError is the typed client-side result,
// RetryPolicy the budgeted/backoff/limited retry wrapper, and
// Options.MaxOutstanding the client-edge window that refuses excess
// load for the cost of a map lookup before any frame is built —
// the piece that prevents congestion collapse on saturated hosts.
// Client frames ride a dedicated voter lane so request floods cannot
// head-of-line block agreement traffic. See DESIGN.md "Overload
// control & graceful degradation (PR 10)".
//
// Membership epochs: a voter group replaces the incarnation behind one
// of its slots (see MembershipChange) by agreeing an OpMembership
// operation through the current epoch's quorum; its size is fixed at
// deployment. The operation's sequence number becomes the install
// point — execution halts there, the deployment rotates every pairwise
// MAC key touching the group's voters to the new epoch, survivors
// rebuild their CLBFT instances, and the joining incarnation bootstraps
// from a donated stable checkpoint and replays up to the install point
// before voting. Messages are stamped with the sender's installed
// epoch; same-group agreement traffic with a stale stamp is dropped,
// fencing departed incarnations deterministically. Reply bundles carry
// their Epoch inside the MAC'd reply message. Deployment.ReplaceReplica
// exposes this as the proactive-recovery step. The donated checkpoint
// (clbft.Replica.ExportBootstrap) is the package's one state transfer: a
// sharded service's shard count is fixed at deployment, and no state
// moves between shard groups.
package perpetual
