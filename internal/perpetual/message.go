package perpetual

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"perpetualws/internal/auth"
	"perpetualws/internal/wire"
)

// Kind discriminates Perpetual transport messages.
type Kind uint8

// Transport message kinds.
const (
	// KindRequest carries an external request from a calling driver to a
	// target voter (stage 1, and retransmissions to the whole group).
	KindRequest Kind = iota + 1
	// KindBFT wraps a CLBFT message between voters of one group.
	KindBFT
	// KindReplyShare carries one target voter's endorsement of a reply
	// to the responder voter (stage 5).
	KindReplyShare
	// KindReplyBundle carries the responder's assembled reply bundle to
	// a calling driver (stage 6).
	KindReplyBundle
	// KindResultForward carries a verified reply bundle from a calling
	// driver to its voter group's primary (stage 7).
	KindResultForward
	// KindPayloadFetch is the responder's pull of a reply payload it
	// lacks: reply shares carry only digests (stage 5 is digest-only),
	// and the responder normally bundles its own locally-executed
	// payload; when its local execution diverged from the f_t+1-endorsed
	// digest (a faulty or stale responder), it fetches the winning
	// payload from a voter that endorsed it.
	KindPayloadFetch
	// KindReadRequest is a session-tier read multicast from a calling
	// driver directly to every voter of the owning shard, bypassing
	// agreement (the two-tier read fast path). Reads carry no
	// authenticator: the pairwise channel MAC already proves the sending
	// driver's identity, and a read cannot change replicated state.
	KindReadRequest
	// KindReadReply is one voter's speculative answer to a read request,
	// sent directly back to the asking driver: a digest endorsement
	// stamped with the agreement sequence the executed state reflects.
	// Only the read's designated responder attaches the payload; the
	// client accepts once f_t+1 distinct voters endorse one digest.
	KindReadReply
	// KindBusy is a voter's overload signal back to the asking driver: the
	// request (or read) was refused at admission — intake bound hit,
	// proposer queue full, or deadline already expired on arrival — and
	// carries a retry-after hint. One busy frame proves nothing (a
	// Byzantine voter can cry overload forever); the driver settles a call
	// as shed only once f_t+1 distinct voters of the target group refuse
	// the same request.
	KindBusy
)

// String returns the protocol name of the kind.
func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindBFT:
		return "bft"
	case KindReplyShare:
		return "reply-share"
	case KindReplyBundle:
		return "reply-bundle"
	case KindResultForward:
		return "result-forward"
	case KindPayloadFetch:
		return "payload-fetch"
	case KindReadRequest:
		return "read-request"
	case KindReadReply:
		return "read-reply"
	case KindBusy:
		return "busy"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// RequestMsg is an external request as sent by calling drivers
// (stage 1) — the wire message behind the Request struct callers pass
// to Driver.Do. Retransmissions carry an incremented Attempt, which
// rotates the responder choice at the target.
type RequestMsg struct {
	ReqID     string // globally unique: "<caller>:<n>"
	Caller    string // calling service name
	Target    string // target service name
	Responder int    // target voter index chosen as responder
	Attempt   int    // retransmission counter
	// Expiry is the caller's deadline as absolute unix milliseconds
	// (0 = none), stamped from Do's ctx. Voters drop expired work before
	// admission and suppress replies whose caller can no longer be
	// waiting — but never skip
	// *agreed* execution on a local clock, which would diverge replicated
	// state. Excluded from Digest like Attempt: a retransmission carrying
	// a refreshed stamp still counts toward the same request.
	Expiry  uint64
	Payload []byte
	// Auth endorses the request digest with MAC entries for every
	// target voter, so each voter (and the agreement validator) can
	// check that this driver really issued this request — a faulty
	// target primary cannot fabricate requests "from" the caller.
	Auth auth.Authenticator
}

// Digest identifies the request content for f_c+1 matching at the
// target primary. Attempt and Responder are excluded: retransmissions
// count toward the same request.
func (r *RequestMsg) Digest() [sha256.Size]byte {
	w := wire.GetWriter(64 + len(r.ReqID) + len(r.Caller) + len(r.Target) + len(r.Payload))
	w.PutString(r.ReqID)
	w.PutString(r.Caller)
	w.PutString(r.Target)
	w.PutBytes(r.Payload)
	d := sha256.Sum256(w.Bytes())
	w.Free()
	return d
}

// ReplyDigest binds a reply payload to its request. Both reply shares
// and agreed reply operations use it.
func ReplyDigest(reqID string, payload []byte) [sha256.Size]byte {
	w := wire.GetWriter(32 + len(reqID) + len(payload))
	w.PutString(reqID)
	w.PutBytes(payload)
	d := sha256.Sum256(w.Bytes())
	w.Free()
	return d
}

// replyAuthMsg is the byte string a target voter MACs to endorse a reply
// digest (the authenticator covers this, not the raw payload, so shares
// can omit the payload body). The tentative flag is part of the MAC'd
// content: a share minted over a tentative (prepared but not yet
// committed) execution cannot be laundered into a stable endorsement by
// flipping the wire flag — the MAC would no longer verify. The group's
// membership epoch is MAC'd for the same reason: a bundle advertises the
// epoch it was minted under (ReplyBundle.Epoch), and since every correct
// voter only ever endorses under the epoch it actually runs, a responder
// cannot forge one without breaking every correct share in the bundle.
// The position the request executed at (clbft.Delivery.Pos) is MAC'd
// likewise, so a verified bundle's Pos is one a correct voter executed
// the request at.
//
// The string is built in a pooled writer the caller frees once the
// authenticator over it is computed or checked.
func replyAuthMsg(reqID string, digest [sha256.Size]byte, tentative bool, epoch uint64, pos uint64) *wire.Writer {
	w := wire.GetWriter(len(reqID) + len(digest) + 32)
	w.PutString("perpetual-reply")
	w.PutString(reqID)
	w.PutBytes(digest[:])
	if tentative {
		w.PutUint8(1)
	} else {
		w.PutUint8(0)
	}
	w.PutUint64(epoch)
	w.PutUint64(pos)
	return w
}

// requestAuthMsg is the byte string a calling driver MACs to endorse a
// request digest toward the target voters, in a pooled writer the
// caller frees.
func requestAuthMsg(reqID string, digest [sha256.Size]byte) *wire.Writer {
	w := wire.GetWriter(len(reqID) + len(digest) + 24)
	w.PutString("perpetual-request")
	w.PutString(reqID)
	w.PutBytes(digest[:])
	return w
}

// Share is one target voter's endorsement of a reply digest: the voter's
// index within the target group and its authenticator (MAC entries for
// every calling driver and voter). Tentative marks an endorsement minted
// while the ordering agreement for the executed request was still
// prepared-but-uncommitted at the voter (Castro-Liskov tentative
// execution); the flag is covered by the MAC (see replyAuthMsg), and
// VerifyBundle demands a larger quorum when only tentative shares back a
// reply. Request shares (requestAuthMsg) never set it.
type Share struct {
	Replica   int
	Tentative bool
	Auth      auth.Authenticator
}

// ReplyShare is the stage-5 message from a target voter to the
// responder: the voter's endorsement of a reply digest. Shares are
// digest-only on the wire — the responder executed the same agreed
// request and bundles its own payload — which keeps per-request reply
// traffic O(|reply|) instead of O(n·|reply|). Payload is non-empty only
// on answers to a PayloadFetch (the divergent-responder fallback).
type ReplyShare struct {
	ReqID   string
	Caller  string
	Digest  [sha256.Size]byte
	Share   Share
	Payload []byte // empty except on payload-fetch answers
}

// PayloadFetch asks a voter that endorsed Digest for the matching reply
// payload of ReqID (see KindPayloadFetch). The answer is a ReplyShare
// carrying the payload.
type PayloadFetch struct {
	ReqID  string
	Digest [sha256.Size]byte
}

// ReadRequest is a session-tier read shipped around agreement: the
// calling driver multicasts it to every voter of the owning shard, which
// execute it speculatively against last-executed state. MinSeq is the
// session's lease, an agreement position (clbft.Delivery.Pos): a replica
// whose state does not reflect it must answer Behind instead of serving
// a stale view.
type ReadRequest struct {
	ReqID     string // reserved from the driver's ordinary id space
	Caller    string // calling service name
	Target    string // target (shard group) service name
	Responder int    // target voter index whose reply carries the payload
	MinSeq    uint64 // the highest position the session wrote at or read
	Payload   []byte
}

// ReadReply is one voter's speculative read answer, returned directly
// to the asking driver. Replica echoes the sender index (cross-checked
// against the channel-authenticated transport identity); Seq stamps the
// agreement position the executed state reflects; Behind refuses the
// read (consistency gate failed, no read executor, or execution error).
// Payload is attached only by the designated responder — the other
// voters endorse with Digest alone, mirroring the digest-only reply
// shares of the agreed path.
type ReadReply struct {
	ReqID   string
	Replica int
	Seq     uint64
	Behind  bool
	Digest  [sha256.Size]byte
	Payload []byte // responder only; must hash to Digest
}

// BusyReply is a voter's deterministic overload refusal of one request
// (see KindBusy): the refusing voter's index, a retry-after hint in
// milliseconds, and whether the refusal was a shed (admission bound) or
// an expiry drop (the request's deadline had already passed on
// arrival). Read reports whether the refused request was a fast-path
// read — read refusals steer the driver straight to the agreement
// fallback instead of counting toward a shed quorum.
type BusyReply struct {
	ReqID            string
	Replica          int
	RetryAfterMillis uint64
	Expired          bool
	Read             bool
}

// ReplyBundle is the stage-6 message from the responder to every calling
// driver: the reply payload plus the shares endorsing its digest —
// either f_t+1 stable shares or a full agreement quorum of (possibly
// tentative) shares; VerifyBundle enforces the tiers.
type ReplyBundle struct {
	ReqID   string
	Target  string
	Payload []byte
	Shares  []Share
	// Primary is the responder's advisory hint of the target group's
	// current CLBFT primary index. Callers unicast first request attempts
	// to it instead of a fixed index, saving the hop through a non-primary
	// voter. The hint is deliberately outside the verified share content:
	// a wrong hint costs one retransmission fan-out, never safety.
	Primary int
	// Epoch is the target group's membership epoch at minting time.
	// Unlike Primary it is covered by every share's MAC (replyAuthMsg):
	// a forged Epoch breaks every correct voter's share and the bundle
	// fails verification.
	Epoch uint64
	// Pos is the agreement position the request executed at, MAC'd by
	// every share like Epoch: a write that settles from the bundle raises
	// its session's read lease to it.
	Pos uint64
}

// Message is the tagged union moved by the ChannelAdapter between
// Perpetual principals.
type Message struct {
	Kind Kind
	// Epoch is the sender's membership epoch for the voter group the
	// message concerns. Voters stamp every outbound message and drop
	// intra-group traffic (KindBFT, KindReplyShare, KindPayloadFetch)
	// whose stamp disagrees with their installed epoch, so stale-epoch
	// frames from a departed or not-yet-rotated replica are rejected
	// deterministically rather than failing somewhere inside the
	// protocol state machines. Driver-originated kinds are accepted at
	// any epoch: a caller with a stale view of the roster must still be
	// able to reach the group and learn the new epoch from its reply.
	Epoch         uint64
	Request       *RequestMsg
	BFT           []byte // encoded clbft.Message
	ReplyShare    *ReplyShare
	ReplyBundle   *ReplyBundle
	ResultForward *ReplyBundle // same shape as a bundle
	PayloadFetch  *PayloadFetch
	ReadRequest   *ReadRequest
	ReadReply     *ReadReply
	Busy          *BusyReply
}

// Encode serializes the message.
func (m *Message) Encode() []byte {
	w := wire.NewWriter(m.SizeHint())
	m.EncodeTo(w)
	return w.Bytes()
}

// EncodeTo serializes the message into w. Hot paths pass a pooled
// writer whose bytes are consumed (copied into a transport frame)
// before the writer is freed, so steady-state encoding allocates
// nothing.
func (m *Message) EncodeTo(w *wire.Writer) {
	w.PutUint8(uint8(m.Kind))
	w.PutUvarint(m.Epoch)
	switch m.Kind {
	case KindRequest:
		encodeRequest(w, m.Request)
	case KindBFT:
		w.PutBytes(m.BFT)
	case KindReplyShare:
		rs := m.ReplyShare
		w.PutString(rs.ReqID)
		w.PutString(rs.Caller)
		w.PutBytes(rs.Digest[:])
		encodeShare(w, &rs.Share)
		w.PutBytes(rs.Payload)
	case KindReplyBundle:
		encodeBundle(w, m.ReplyBundle)
	case KindResultForward:
		encodeBundle(w, m.ResultForward)
	case KindPayloadFetch:
		w.PutString(m.PayloadFetch.ReqID)
		w.PutBytes(m.PayloadFetch.Digest[:])
	case KindReadRequest:
		rr := m.ReadRequest
		w.PutString(rr.ReqID)
		w.PutString(rr.Caller)
		w.PutString(rr.Target)
		w.PutUvarint(uint64(rr.Responder))
		w.PutUint64(rr.MinSeq)
		w.PutBytes(rr.Payload)
	case KindReadReply:
		rp := m.ReadReply
		w.PutString(rp.ReqID)
		w.PutUvarint(uint64(rp.Replica))
		w.PutUint64(rp.Seq)
		if rp.Behind {
			w.PutUint8(1)
		} else {
			w.PutUint8(0)
		}
		w.PutBytes(rp.Digest[:])
		w.PutBytes(rp.Payload)
	case KindBusy:
		bz := m.Busy
		w.PutString(bz.ReqID)
		w.PutUvarint(uint64(bz.Replica))
		w.PutUvarint(bz.RetryAfterMillis)
		flags := uint8(0)
		if bz.Expired {
			flags |= 1
		}
		if bz.Read {
			flags |= 2
		}
		w.PutUint8(flags)
	}
}

// SizeHint estimates the encoded size from the actual message content,
// so writers are allocated (or grown) once instead of doubling through
// appends.
func (m *Message) SizeHint() int {
	const base = 16
	switch m.Kind {
	case KindRequest:
		r := m.Request
		return base + len(r.ReqID) + len(r.Caller) + len(r.Target) + len(r.Payload) + authSize(&r.Auth)
	case KindBFT:
		return base + len(m.BFT)
	case KindReplyShare:
		rs := m.ReplyShare
		return base + len(rs.ReqID) + len(rs.Caller) + sha256.Size + shareSize(&rs.Share) + len(rs.Payload)
	case KindReplyBundle:
		return base + bundleSize(m.ReplyBundle)
	case KindResultForward:
		return base + bundleSize(m.ResultForward)
	case KindPayloadFetch:
		return base + len(m.PayloadFetch.ReqID) + sha256.Size
	case KindReadRequest:
		rr := m.ReadRequest
		return base + len(rr.ReqID) + len(rr.Caller) + len(rr.Target) + len(rr.Payload) + 16
	case KindReadReply:
		rp := m.ReadReply
		return base + len(rp.ReqID) + sha256.Size + len(rp.Payload) + 16
	case KindBusy:
		return base + len(m.Busy.ReqID) + 16
	default:
		return 64
	}
}

func authSize(a *auth.Authenticator) int { return len(a.Sender.Service) + 16 + len(a.Vector) }

func shareSize(s *Share) int { return 4 + authSize(&s.Auth) }

func bundleSize(b *ReplyBundle) int {
	n := len(b.ReqID) + len(b.Target) + len(b.Payload) + 24
	for i := range b.Shares {
		n += shareSize(&b.Shares[i])
	}
	return n
}

// Service names are interned: every request, share, bundle and agreed
// operation names its caller or target, and a deployment has a handful
// of services. The table is copy-on-write and bounded like
// auth.InternNodeID's cache: a peer spraying fabricated names pins at
// most nameInternLimit names of at most nameInternMaxLen bytes, and any
// other name is copied per decode.
const (
	nameInternLimit  = 1024
	nameInternMaxLen = 128
)

var (
	namesMu sync.Mutex // serializes writers
	names   atomic.Pointer[map[string]string]
)

// internName returns b as a string, without allocating for a name seen
// before.
func internName(b []byte) string {
	if m := names.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok { // compiler avoids the conversion alloc
			return s
		}
	}
	s := string(b)
	if len(s) == 0 || len(s) > nameInternMaxLen {
		return s
	}
	namesMu.Lock()
	defer namesMu.Unlock()
	cur := names.Load()
	if cur != nil && len(*cur) >= nameInternLimit {
		return s
	}
	next := make(map[string]string, 16)
	if cur != nil {
		for k, v := range *cur {
			next[k] = v
		}
	}
	next[s] = s
	names.Store(&next)
	return s
}

// DecodeMessage parses a transport message. Everything the result keeps
// is copied out of buf — transport frames are pooled and reused once the
// handler returns — except the body of a KindBFT message, which aliases
// it: the voter decodes and discards that body inside the handler.
func DecodeMessage(buf []byte) (*Message, error) { return decodeMessage(buf, false) }

// decodeMessage is DecodeMessage, with the authenticator vectors of
// requests, shares and bundles aliasing buf when aliasVectors is set:
// for a handler that is done with them before it returns, as the
// driver's is (see Driver.handleTransport).
func decodeMessage(buf []byte, aliasVectors bool) (*Message, error) {
	r := wire.NewReader(buf)
	m := &Message{Kind: Kind(r.Uint8()), Epoch: r.Uvarint()}
	switch m.Kind {
	case KindRequest:
		m.Request = decodeRequest(r, aliasVectors)
	case KindBFT:
		// Aliases the input: the wrapped CLBFT message is decoded (with
		// its own copies of retained fields) and discarded within the
		// transport handler, so the copy would be pure garbage.
		m.BFT = r.Bytes()
	case KindReplyShare:
		rs := &ReplyShare{ReqID: r.String(), Caller: internName(r.Bytes())}
		copy(rs.Digest[:], r.Bytes())
		rs.Share = decodeShare(r, aliasVectors)
		rs.Payload = r.BytesCopy()
		m.ReplyShare = rs
	case KindReplyBundle:
		m.ReplyBundle = decodeBundle(r, aliasVectors)
	case KindResultForward:
		m.ResultForward = decodeBundle(r, aliasVectors)
	case KindPayloadFetch:
		pf := &PayloadFetch{ReqID: r.String()}
		copy(pf.Digest[:], r.Bytes())
		m.PayloadFetch = pf
	case KindReadRequest:
		m.ReadRequest = &ReadRequest{
			ReqID:     r.String(),
			Caller:    internName(r.Bytes()),
			Target:    internName(r.Bytes()),
			Responder: int(r.Uvarint()),
			MinSeq:    r.Uint64(),
			Payload:   r.BytesCopy(),
		}
	case KindReadReply:
		rp := &ReadReply{
			ReqID:   r.String(),
			Replica: int(r.Uvarint()),
			Seq:     r.Uint64(),
			Behind:  r.Uint8() == 1,
		}
		copy(rp.Digest[:], r.Bytes())
		rp.Payload = r.BytesCopy()
		m.ReadReply = rp
	case KindBusy:
		bz := &BusyReply{
			ReqID:            r.String(),
			Replica:          int(r.Uvarint()),
			RetryAfterMillis: r.Uvarint(),
		}
		flags := r.Uint8()
		bz.Expired = flags&1 != 0
		bz.Read = flags&2 != 0
		m.Busy = bz
	default:
		return nil, fmt.Errorf("perpetual: unknown message kind %d", uint8(m.Kind))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("perpetual: decoding %s: %w", m.Kind, err)
	}
	return m, nil
}

func encodeRequest(w *wire.Writer, req *RequestMsg) {
	w.PutString(req.ReqID)
	w.PutString(req.Caller)
	w.PutString(req.Target)
	w.PutUvarint(uint64(req.Responder))
	w.PutUvarint(uint64(req.Attempt))
	w.PutUvarint(req.Expiry)
	w.PutBytes(req.Payload)
	encodeAuthenticator(w, &req.Auth)
}

func decodeRequest(r *wire.Reader, aliasVector bool) *RequestMsg {
	req := &RequestMsg{
		ReqID:     r.String(),
		Caller:    internName(r.Bytes()),
		Target:    internName(r.Bytes()),
		Responder: int(r.Uvarint()),
		Attempt:   int(r.Uvarint()),
		Expiry:    r.Uvarint(),
		Payload:   r.BytesCopy(),
	}
	req.Auth = decodeAuthenticator(r, aliasVector)
	return req
}

func encodeAuthenticator(w *wire.Writer, a *auth.Authenticator) {
	var id [64]byte // the sender id is rendered here, not into a string
	w.PutBytes(a.Sender.AppendTo(id[:0]))
	if len(a.Vector) == 0 {
		w.PutUvarint(0) // the empty vector
		return
	}
	w.PutRaw(a.Vector)
}

// decodeAuthenticator reads an authenticator, its vector validated by
// auth.VectorLen but its entries left unparsed. The vector aliases the
// reader's buffer when alias is set, and is otherwise its one allocation,
// a copy. A vector with no entries decodes as nil, the empty vector's
// one form. A sender that does not parse decodes as the zero NodeID,
// which no share or request check accepts.
func decodeAuthenticator(r *wire.Reader, alias bool) auth.Authenticator {
	var a auth.Authenticator
	if sender, err := auth.InternNodeID(r.Bytes()); err == nil {
		a.Sender = sender
	}
	n, err := auth.VectorLen(r.Peek())
	if err != nil {
		r.Fail(err)
		return a
	}
	if vec := r.Raw(n); len(vec) > 1 {
		a.Vector = vec
		if !alias {
			a.Vector = bytes.Clone(vec)
		}
	}
	return a
}

func encodeShare(w *wire.Writer, s *Share) {
	w.PutUvarint(uint64(s.Replica))
	if s.Tentative {
		w.PutUint8(1)
	} else {
		w.PutUint8(0)
	}
	encodeAuthenticator(w, &s.Auth)
}

func decodeShare(r *wire.Reader, aliasVector bool) Share {
	return Share{Replica: int(r.Uvarint()), Tentative: r.Uint8() == 1, Auth: decodeAuthenticator(r, aliasVector)}
}

func encodeBundle(w *wire.Writer, b *ReplyBundle) {
	w.PutString(b.ReqID)
	w.PutString(b.Target)
	w.PutUvarint(uint64(b.Primary))
	w.PutUvarint(b.Epoch)
	w.PutUvarint(b.Pos)
	w.PutBytes(b.Payload)
	w.PutUvarint(uint64(len(b.Shares)))
	for i := range b.Shares {
		encodeShare(w, &b.Shares[i])
	}
}

// decodeBundle reads a bundle; its payload is a copy, and its share
// vectors alias the reader's buffer when aliasVectors is set.
func decodeBundle(r *wire.Reader, aliasVectors bool) *ReplyBundle {
	b := &ReplyBundle{ReqID: r.String(), Target: internName(r.Bytes()), Primary: int(r.Uvarint()),
		Epoch: r.Uvarint(), Pos: r.Uvarint(), Payload: r.BytesCopy()}
	n := int(r.Uvarint())
	if n > r.Remaining() {
		return b
	}
	if n > 0 {
		b.Shares = make([]Share, 0, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		b.Shares = append(b.Shares, decodeShare(r, aliasVectors))
	}
	return b
}

// detached returns a copy of b that keeps nothing of the frame b was
// decoded from with aliased vectors: its share vectors are copied.
func (b *ReplyBundle) detached() *ReplyBundle {
	c := *b
	c.Shares = slices.Clone(b.Shares)
	for i := range c.Shares {
		c.Shares[i].Auth.Vector = bytes.Clone(c.Shares[i].Auth.Vector)
	}
	return &c
}

// VerifyBundle checks a reply bundle against the verifier's key store.
// Shares from distinct target voter indices must authenticate with a
// valid MAC entry for the verifier and endorse the digest of the carried
// payload; the bundle certifies when either tier holds:
//
//   - f_t+1 stable shares: at least one correct voter executed the
//     reply on committed agreement state, so the result is final; or
//   - a full agreement quorum (2f_t+1 canonically) of shares, stable or
//     tentative: at least f_t+1 correct voters tentatively executed the
//     request on a prepared certificate, which every new-view
//     certificate preserves, so the tentative result is guaranteed to
//     commit unchanged (the Castro-Liskov tentative-reply rule).
//
// Fewer matching endorsements — in particular f_t+1 shares that are only
// tentative — never certify: a view change could still reassign the
// sequence numbers those executions ran at.
//
// The bundle's claimed Epoch is folded into the MAC'd content
// (replyAuthMsg), so correct shares only verify against the epoch they
// were really minted under. Thresholds come from the verifier's
// registry alone: nothing in the bundle can lower them.
func VerifyBundle(ks *auth.KeyStore, target ServiceInfo, b *ReplyBundle) error {
	if b == nil {
		return fmt.Errorf("perpetual: nil bundle")
	}
	needStable := target.F() + 1
	needAny := target.Quorum()
	digest := ReplyDigest(b.ReqID, b.Payload)
	// The MAC'd message of each tier (stable, tentative), hashed the first
	// time a share of that tier reaches its MAC check.
	var tierDigest [2][sha256.Size]byte
	var hashed [2]bool
	var seen [8]int // replica indices with a valid share; spills to the heap past 8
	valid := seen[:0]
	stable := 0
	for i := range b.Shares {
		s := &b.Shares[i]
		if s.Replica < 0 || s.Replica >= target.N {
			continue
		}
		if slices.Contains(valid, s.Replica) {
			continue
		}
		want := auth.VoterID(target.Name, s.Replica)
		if s.Auth.Sender != want {
			continue // share must be authenticated by the claimed voter
		}
		tier := 0
		if s.Tentative {
			tier = 1
		}
		if !hashed[tier] {
			msg := replyAuthMsg(b.ReqID, digest, s.Tentative, b.Epoch, b.Pos)
			tierDigest[tier], hashed[tier] = sha256.Sum256(msg.Bytes()), true
			msg.Free()
		}
		if err := s.Auth.VerifyDigestFor(ks, tierDigest[tier]); err != nil {
			continue
		}
		valid = append(valid, s.Replica)
		if !s.Tentative {
			stable++
		}
		if stable >= needStable || len(valid) >= needAny {
			return nil
		}
	}
	return fmt.Errorf("perpetual: bundle for %s has %d valid shares (%d stable), need %d stable or %d total",
		b.ReqID, len(valid), stable, needStable, needAny)
}
