package perpetual

// Online shard rebalancing with BFT state handoff. PR 1 sharded
// services across independent CLBFT voter groups with rendezvous-hash
// routing but left the shard count frozen at deployment time; this file
// adds live resharding: Driver.Reshard migrates the keys a shard-count
// change moves between groups while the service keeps serving traffic.
//
// The protocol follows the state-migration shape of Dearle et al.'s
// BFT-services-on-Chord work: state moves between replica *groups*,
// never between individual replicas, and every transfer carries a
// group-level certificate so a Byzantine source group (up to f faulty
// members) cannot feed the joining group forged state. Three phases per
// moving key range (source shard s, destination shard d, epoch
// E -> E+1):
//
//  1. EXPORT — the coordinator sends a HandoffExport frame to the
//     source group as an ordinary agreed request. At its deterministic
//     position in the source's agreement order, every correct source
//     replica exports the application state of the keys moving s -> d
//     and *freezes* them (subsequent requests for a frozen key are
//     answered with a deterministic RETRY-AT-EPOCH fault instead of
//     being served). The agreed reply — a HandoffState wrapper binding
//     (service, old/new shard counts, old/new epoch, s, d, agreement
//     sequence, state bytes) — is endorsed by f_s+1 source voters whose
//     authenticators additionally address the destination group (see
//     voter.handleLocalResult), making the reply bundle a
//     destination-verifiable handoff certificate over the state digest.
//  2. INSTALL — the coordinator sends the certificate to the
//     destination group in a HandoffInstall frame, again as an agreed
//     request: installation happens at one deterministic point in the
//     destination's agreement order, before the destination serves any
//     read for the moved keys (routing still points at the source).
//     Every correct destination replica re-verifies the certificate
//     (VerifyHandoffCert) before importing.
//  3. FLIP + DROP — with all ranges installed, the coordinator commits
//     the epoch flip in the routing table (Registry.CommitEpoch; one
//     atomic swap of (Shards, Epoch)), then tells each source group to
//     drop its frozen moved state. In-flight requests routed under the
//     old epoch keep hitting the source and keep receiving
//     RETRY-AT-EPOCH, so clients re-resolve and land on the new owner:
//     a request is served by its old owner (before the freeze) or its
//     new owner (after the flip), never both.
//
// A failed export or install cancels the reshard (HandoffCancel
// unfreezes the sources and discards installed-but-unflipped state);
// the epoch never flips, so the routing table stays consistent.
//
// Trust model: the handoff certificate protects the *state* — a faulty
// source group minority cannot forge it (f_s+1 shares needed), a faulty
// coordinator cannot alter it (any tamper breaks the endorsed digest),
// and a stale certificate cannot be replayed into a later epoch (the
// wrapper binds the epoch pair and nodes track the max epoch seen).
// Initiating a reshard is an administrative action: any service that
// can reach the groups can start one, exactly as any client of a shard
// can send it load; deployments restrict reachability, not this layer.

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"perpetualws/internal/auth"
	"perpetualws/internal/wire"
)

// HandoffPhase discriminates the state-handoff messages a shard group
// receives during a reshard.
type HandoffPhase uint8

// Handoff phases.
const (
	// HandoffExport asks the source group to export and freeze the state
	// of the keys moving (Source -> Dest) under the epoch flip.
	HandoffExport HandoffPhase = iota + 1
	// HandoffInstall delivers the certified exported state to the
	// destination group for import-before-serving.
	HandoffInstall
	// HandoffDrop tells the source group the epoch has flipped: moved
	// state may be discarded (frozen keys keep answering RETRY-AT-EPOCH).
	HandoffDrop
	// HandoffCancel aborts an in-progress reshard: sources unfreeze and
	// keep their state, destinations discard anything installed for it.
	HandoffCancel
)

// String names the phase.
func (p HandoffPhase) String() string {
	switch p {
	case HandoffExport:
		return "export"
	case HandoffInstall:
		return "install"
	case HandoffDrop:
		return "drop"
	case HandoffCancel:
		return "cancel"
	default:
		return fmt.Sprintf("handoff-phase(%d)", uint8(p))
	}
}

// Frame and state magics: the leading NUL guarantees no collision with
// XML/SOAP application payloads.
var (
	handoffFrameMagic = []byte{0x00, 'p', 'h', 'n', 'd'}
	handoffStateMagic = []byte{0x00, 'p', 'h', 's', 't'}
)

// HandoffFrame is the payload of a state-handoff protocol request. All
// phases carry the full reshard identity (service, shard counts, epoch
// pair, moving range); Install additionally carries the certificate.
type HandoffFrame struct {
	Phase   HandoffPhase
	Service string // base (parent) service name
	// OldShards/NewShards and OldEpoch/NewEpoch identify the reshard:
	// the routing table flips from (OldShards, OldEpoch) to (NewShards,
	// NewEpoch = OldEpoch+1).
	OldShards, NewShards int
	OldEpoch, NewEpoch   uint64
	// Source and Dest are the shard indices of the moving key range:
	// keys with ShardFor(key, OldShards) == Source and ShardFor(key,
	// NewShards) == Dest.
	Source, Dest int
	// Cert is the handoff certificate (Install only): the source group's
	// f_s+1-endorsed agreed reply to the Export, whose payload is the
	// HandoffState being installed.
	Cert *ReplyBundle
}

// EncodeHandoffFrame serializes a handoff protocol frame.
func EncodeHandoffFrame(f *HandoffFrame) []byte {
	n := len(handoffFrameMagic) + 64 + len(f.Service)
	if f.Cert != nil {
		n += bundleSize(f.Cert)
	}
	w := wire.NewWriter(n)
	for _, b := range handoffFrameMagic {
		w.PutUint8(b)
	}
	w.PutUint8(uint8(f.Phase))
	w.PutString(f.Service)
	w.PutUvarint(uint64(f.OldShards))
	w.PutUvarint(uint64(f.NewShards))
	w.PutUint64(f.OldEpoch)
	w.PutUint64(f.NewEpoch)
	w.PutUvarint(uint64(f.Source))
	w.PutUvarint(uint64(f.Dest))
	w.PutBool(f.Cert != nil)
	if f.Cert != nil {
		encodeBundle(w, f.Cert)
	}
	return w.Bytes()
}

// DecodeHandoffFrame parses a handoff protocol frame. The second return
// is false for any non-frame payload (ordinary application bytes).
func DecodeHandoffFrame(buf []byte) (*HandoffFrame, bool) {
	if len(buf) < len(handoffFrameMagic) || !bytes.Equal(buf[:len(handoffFrameMagic)], handoffFrameMagic) {
		return nil, false
	}
	r := wire.NewReader(buf[len(handoffFrameMagic):])
	f := &HandoffFrame{
		Phase:     HandoffPhase(r.Uint8()),
		Service:   r.String(),
		OldShards: int(r.Uvarint()),
		NewShards: int(r.Uvarint()),
		OldEpoch:  r.Uint64(),
		NewEpoch:  r.Uint64(),
		Source:    int(r.Uvarint()),
		Dest:      int(r.Uvarint()),
	}
	if r.Bool() {
		f.Cert = decodeBundle(r, false)
	}
	if r.Done() != nil || f.Service == "" {
		return nil, false
	}
	if f.OldShards < 2 || f.NewShards < 2 || f.Source < 0 || f.Dest < 0 ||
		f.NewEpoch != f.OldEpoch+1 {
		return nil, false
	}
	switch f.Phase {
	case HandoffExport, HandoffInstall, HandoffDrop, HandoffCancel:
		return f, true
	default:
		return nil, false
	}
}

// DecodeHandoffFrameFrom decodes a handoff frame from an agreed
// incoming request. Executors must use this form on incoming requests:
// the frame's identity fields are structurally validated, and the
// request's transport-authenticated caller is what deployments restrict
// reshard authority on (the frame itself needs no authenticator — for
// Install, the certificate carries the proof that matters).
func DecodeHandoffFrameFrom(req IncomingRequest) (*HandoffFrame, bool) {
	return DecodeHandoffFrame(req.Payload)
}

// HandoffState is the wire wrapper of a source group's reply to a
// handoff request. For an Export it carries the exported application
// state; echoing the full reshard identity into the (f_s+1-endorsed)
// reply is what turns the reply bundle into a certificate for exactly
// this handoff — a state blob replayed from another range, epoch, or
// service fails the destination's verification. Replies to
// Install/Drop/Cancel reuse the wrapper as a commit/refuse
// acknowledgement with empty state.
type HandoffState struct {
	Service              string
	OldShards, NewShards int
	OldEpoch, NewEpoch   uint64
	Source, Dest         int
	// Seq is the agreement sequence the export was ordered at in the
	// source group's log (IncomingRequest.Seq): the checkpoint position
	// the exported state corresponds to. Identical on every correct
	// source replica.
	Seq uint64
	// Commit reports whether the group performed the phase; a refusal
	// (application fault) carries Commit == false and the fault bytes in
	// State.
	Commit bool
	// State is the exported application state (opaque bytes; at the
	// Perpetual-WS layer, a marshaled SOAP envelope).
	State []byte
}

// EncodeHandoffState wraps a phase reply for the answered frame. seq is
// the agreed request's sequence (IncomingRequest.Seq), commit reports
// whether the phase was performed, and state carries the exported
// application state (exports) or the acknowledgement/fault body.
func EncodeHandoffState(f *HandoffFrame, seq uint64, commit bool, state []byte) []byte {
	w := wire.NewWriter(len(handoffStateMagic) + 72 + len(f.Service) + len(state))
	for _, b := range handoffStateMagic {
		w.PutUint8(b)
	}
	w.PutString(f.Service)
	w.PutUvarint(uint64(f.OldShards))
	w.PutUvarint(uint64(f.NewShards))
	w.PutUint64(f.OldEpoch)
	w.PutUint64(f.NewEpoch)
	w.PutUvarint(uint64(f.Source))
	w.PutUvarint(uint64(f.Dest))
	w.PutUint64(seq)
	w.PutBool(commit)
	w.PutBytes(state)
	return w.Bytes()
}

// DecodeHandoffState parses a handoff reply wrapper. The second return
// is false for any non-wrapper payload.
func DecodeHandoffState(buf []byte) (*HandoffState, bool) {
	if len(buf) < len(handoffStateMagic) || !bytes.Equal(buf[:len(handoffStateMagic)], handoffStateMagic) {
		return nil, false
	}
	r := wire.NewReader(buf[len(handoffStateMagic):])
	hs := &HandoffState{
		Service:   r.String(),
		OldShards: int(r.Uvarint()),
		NewShards: int(r.Uvarint()),
		OldEpoch:  r.Uint64(),
		NewEpoch:  r.Uint64(),
		Source:    int(r.Uvarint()),
		Dest:      int(r.Uvarint()),
		Seq:       r.Uint64(),
		Commit:    r.Bool(),
		State:     r.BytesCopy(),
	}
	if r.Done() != nil || hs.Service == "" {
		return nil, false
	}
	return hs, true
}

// MatchesFrame reports whether the wrapper echoes the frame's reshard
// identity exactly.
func (hs *HandoffState) MatchesFrame(f *HandoffFrame) bool {
	return hs.Service == f.Service &&
		hs.OldShards == f.OldShards && hs.NewShards == f.NewShards &&
		hs.OldEpoch == f.OldEpoch && hs.NewEpoch == f.NewEpoch &&
		hs.Source == f.Source && hs.Dest == f.Dest
}

// VerifyHandoffCert verifies an Install frame's handoff certificate
// against the verifier's key store and returns the certified
// HandoffState. The certificate is valid when:
//
//   - it is a reply bundle of the claimed source group carrying f_s+1
//     shares from distinct source voters, each MAC-verifiable by this
//     principal, endorsing the digest of the carried payload
//     (VerifyBundle — so at least one correct source replica vouches
//     for the state bytes: wrong-digest or tampered state fails here);
//   - the payload decodes as a committed HandoffState; and
//   - the wrapper echoes the frame's reshard identity exactly (a
//     certificate harvested from another range, shard-count pair, or
//     epoch — "wrong epoch" replays included — fails here).
//
// Verification is per-receiver (MAC certificates): every correct
// destination replica of a non-faulty source group reaches the same
// verdict; shares minted by faulty source voters can verify at some
// receivers only, which stalls rather than splits the handoff — the
// same liveness-not-safety caveat the reply path carries.
func VerifyHandoffCert(ks *auth.KeyStore, reg *Registry, f *HandoffFrame) (*HandoffState, error) {
	if f == nil || f.Phase != HandoffInstall {
		return nil, fmt.Errorf("perpetual: handoff cert on non-install frame")
	}
	if f.Cert == nil {
		return nil, fmt.Errorf("perpetual: install frame carries no certificate")
	}
	srcName := ShardGroupName(f.Service, f.Source)
	if f.Cert.Target != srcName {
		return nil, fmt.Errorf("perpetual: handoff cert from %q, want source group %q", f.Cert.Target, srcName)
	}
	sinfo, err := reg.Lookup(srcName)
	if err != nil {
		return nil, fmt.Errorf("perpetual: handoff cert source: %w", err)
	}
	if err := VerifyBundle(ks, sinfo, f.Cert); err != nil {
		return nil, fmt.Errorf("perpetual: handoff cert rejected: %w", err)
	}
	hs, ok := DecodeHandoffState(f.Cert.Payload)
	if !ok {
		return nil, fmt.Errorf("perpetual: handoff cert payload is not a handoff state")
	}
	if !hs.Commit {
		return nil, fmt.Errorf("perpetual: handoff cert certifies a refused export")
	}
	if !hs.MatchesFrame(f) {
		return nil, fmt.Errorf("perpetual: handoff cert bound to (%s %d->%d shards, epoch %d->%d, range %d->%d), frame wants (%s %d->%d, epoch %d->%d, range %d->%d)",
			hs.Service, hs.OldShards, hs.NewShards, hs.OldEpoch, hs.NewEpoch, hs.Source, hs.Dest,
			f.Service, f.OldShards, f.NewShards, f.OldEpoch, f.NewEpoch, f.Source, f.Dest)
	}
	return hs, nil
}

// ReshardResult summarizes a completed reshard.
type ReshardResult struct {
	Service              string
	OldShards, NewShards int
	// NewEpoch is the routing epoch the flip committed.
	NewEpoch uint64
	// Ranges is the number of (source, dest) key ranges migrated.
	Ranges int
}

// reshardRange is one (source, dest) pair keys can move across.
type reshardRange struct{ source, dest int }

// reshardRanges enumerates the key ranges a shard-count change can move.
// Rendezvous hashing bounds them: growing moves keys only onto the new
// shards; shrinking moves keys only off the removed shards.
func reshardRanges(oldShards, newShards int) []reshardRange {
	var out []reshardRange
	if newShards > oldShards {
		for s := 0; s < oldShards; s++ {
			for d := oldShards; d < newShards; d++ {
				out = append(out, reshardRange{s, d})
			}
		}
	} else {
		for s := newShards; s < oldShards; s++ {
			for d := 0; d < newShards; d++ {
				out = append(out, reshardRange{s, d})
			}
		}
	}
	return out
}

// Reshard live-migrates a sharded service from its current shard count
// to newShards: per moving key range it drives the export / install
// phases described at the top of this file, then flips the routing
// epoch atomically and drops the moved state at the sources. The new
// shard groups must already be deployed and addressable
// (Deployment.ProvisionShards / Cluster.Reshard handle that); the
// service keeps serving throughout, with requests for in-migration keys
// answered by deterministic RETRY-AT-EPOCH faults until the flip.
//
// Reshard must be invoked from the calling service's deterministic
// executor on every replica: each replica drives the same protocol, the
// per-phase requests accumulate the usual f_c+1 matching copies, and the
// epoch flip is idempotent across replicas. A non-zero
// timeout bounds each phase per request; zero waits forever.
func (d *Driver) Reshard(service string, newShards int, timeout time.Duration) (*ReshardResult, error) {
	info, err := d.registry.Lookup(service)
	if err != nil {
		return nil, err
	}
	oldShards := info.ShardCount()
	if !info.IsSharded() || newShards < 2 {
		return nil, fmt.Errorf("perpetual: reshard needs a sharded service on both sides (have %d -> %d shards); 1<->n changes the base group's addressing", oldShards, newShards)
	}
	if newShards == oldShards {
		return nil, fmt.Errorf("perpetual: %s already has %d shards", service, oldShards)
	}
	maxShards := max(oldShards, newShards)
	for k := 0; k < maxShards; k++ {
		if _, err := d.registry.Lookup(ShardGroupName(service, k)); err != nil {
			return nil, fmt.Errorf("perpetual: reshard %s: shard group %d not deployed (ProvisionShards first): %w", service, k, err)
		}
	}
	oldEpoch, newEpoch := info.Epoch, info.Epoch+1
	ranges := reshardRanges(oldShards, newShards)
	frame := func(phase HandoffPhase, rg reshardRange) *HandoffFrame {
		return &HandoffFrame{
			Phase: phase, Service: service,
			OldShards: oldShards, NewShards: newShards,
			OldEpoch: oldEpoch, NewEpoch: newEpoch,
			Source: rg.source, Dest: rg.dest,
		}
	}

	// Phase 1: export + freeze every moving range at its source group.
	// The agreed reply (with its endorsement shares retained by the
	// protocol-reply path) is the handoff certificate; the exported
	// state travels inside it.
	certs := make([]*ReplyBundle, len(ranges))
	for i, rg := range ranges {
		_, cert, err := d.handoffCall(info.Shard(rg.source), frame(HandoffExport, rg), timeout)
		if err == nil && cert == nil {
			err = fmt.Errorf("perpetual: export reply carries no certificate shares")
		}
		if err != nil {
			d.cancelHandoff(info, frame, ranges[:i], nil, timeout)
			return nil, fmt.Errorf("perpetual: reshard %s export %d->%d: %w", service, rg.source, rg.dest, err)
		}
		certs[i] = cert
	}

	// Phase 2: install every certified range at its destination group,
	// via the destination's own agreement, before any read is routed
	// there.
	for i, rg := range ranges {
		inst := frame(HandoffInstall, rg)
		inst.Cert = certs[i]
		if _, _, err := d.handoffCall(info.Shard(rg.dest), inst, timeout); err != nil {
			d.cancelHandoff(info, frame, ranges, ranges[:i], timeout)
			return nil, fmt.Errorf("perpetual: reshard %s install %d->%d: %w", service, rg.source, rg.dest, err)
		}
	}

	// Phase 3: flip the routing table atomically. From here on, fresh
	// routes use the new shard count; stale in-flight requests keep
	// receiving RETRY-AT-EPOCH from the frozen sources.
	if err := d.registry.CommitEpoch(service, newShards, newEpoch); err != nil {
		d.cancelHandoff(info, frame, ranges, ranges, timeout)
		return nil, fmt.Errorf("perpetual: reshard %s flip: %w", service, err)
	}

	// Phase 4: drop the moved state at the sources. A failing drop leg
	// does not un-flip — the migration is complete; the source merely
	// retains dead state until it processes the (retransmitted) drop.
	// The transitional namespace is NOT retired here: drained groups
	// must stay addressable so stragglers routed under the old epoch
	// keep receiving RETRY-AT-EPOCH (and their reply bundles keep
	// verifying) until the operator retires them
	// (Deployment.RetireShards) after a drain window.
	var dropErr error
	for _, rg := range ranges {
		if _, _, err := d.handoffCall(info.Shard(rg.source), frame(HandoffDrop, rg), timeout); err != nil && dropErr == nil {
			dropErr = fmt.Errorf("perpetual: reshard %s drop at %d: %w", service, rg.source, err)
		}
	}
	return &ReshardResult{
		Service: service, OldShards: oldShards, NewShards: newShards,
		NewEpoch: newEpoch, Ranges: len(ranges),
	}, dropErr
}

// handoffCall issues one handoff frame to a shard group as a
// protocol-internal request and decodes the agreed acknowledgement. It
// returns the decoded wrapper and, for exports, the agreed reply bundle
// (the handoff certificate).
func (d *Driver) handoffCall(group ServiceInfo, f *HandoffFrame, timeout time.Duration) (*HandoffState, *ReplyBundle, error) {
	id, sink, err := d.issueLeg(group, EncodeHandoffFrame(f), timeout)
	if err != nil {
		return nil, nil, err
	}
	tr, err := d.await(context.Background(), id, sink)
	if err != nil {
		return nil, nil, err
	}
	if tr.reply.Aborted {
		return nil, nil, fmt.Errorf("perpetual: handoff %s to %s aborted (timeout)", f.Phase, group.Name)
	}
	hs, ok := DecodeHandoffState(tr.reply.Payload)
	if !ok {
		return nil, nil, fmt.Errorf("perpetual: handoff %s to %s answered without a handoff wrapper", f.Phase, group.Name)
	}
	if !hs.Commit {
		return nil, nil, fmt.Errorf("perpetual: handoff %s refused by %s", f.Phase, group.Name)
	}
	if !hs.MatchesFrame(f) {
		return nil, nil, fmt.Errorf("perpetual: handoff %s to %s acknowledged a different reshard", f.Phase, group.Name)
	}
	return hs, tr.cert, nil
}

// cancelHandoff aborts an in-progress reshard: every source that
// exported (frozen keys, exported ranges) unfreezes, every destination
// that installed discards. Cancellation is best-effort fire-and-wait
// per leg; the epoch never flipped, so routing is untouched either way.
func (d *Driver) cancelHandoff(info ServiceInfo, frame func(HandoffPhase, reshardRange) *HandoffFrame, exported, installed []reshardRange, timeout time.Duration) {
	for _, rg := range exported {
		if _, _, err := d.handoffCall(info.Shard(rg.source), frame(HandoffCancel, rg), timeout); err != nil {
			d.logf("reshard cancel at source %d: %v", rg.source, err)
		}
	}
	for _, rg := range installed {
		if _, _, err := d.handoffCall(info.Shard(rg.dest), frame(HandoffCancel, rg), timeout); err != nil {
			d.logf("reshard cancel at dest %d: %v", rg.dest, err)
		}
	}
}
