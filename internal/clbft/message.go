package clbft

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"perpetualws/internal/wire"
)

// Digest is a SHA-256 digest identifying a request or a state snapshot.
type Digest [sha256.Size]byte

// IsZero reports whether d is the all-zero digest (the digest of the
// null request used to fill sequence gaps after a view change).
func (d Digest) IsZero() bool { return d == Digest{} }

// String renders a short hex prefix for logs.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:4]) }

// MsgType discriminates protocol messages.
type MsgType uint8

// Protocol message types.
const (
	MsgRequest MsgType = iota + 1
	MsgPrePrepare
	MsgVotes
	MsgCheckpoint
	MsgViewChange
	MsgNewView
	MsgFetch
	MsgFetchReply
)

// msgTypeNames are the protocol names of the message types.
var msgTypeNames = [...]string{MsgRequest: "request", MsgPrePrepare: "pre-prepare", MsgVotes: "votes",
	MsgCheckpoint: "checkpoint", MsgViewChange: "view-change", MsgNewView: "new-view",
	MsgFetch: "fetch", MsgFetchReply: "fetch-reply"}

// String returns the protocol name of the message type.
func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// Request is an operation submitted for ordering. OpID deduplicates
// re-proposals; Op is the opaque operation body delivered to the
// application.
type Request struct {
	OpID string
	Op   []byte
}

// Digest returns the request's identity digest, covering the length of
// OpID (8 bytes, little-endian), OpID and Op. It is the one full pass
// over a request's bytes: replicas compute it once per request they
// accept and carry the result on the log entry.
func (r *Request) Digest() Digest {
	w := wire.GetWriter(8 + len(r.OpID) + len(r.Op))
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(r.OpID)))
	w.PutRaw(n[:])
	w.PutRawString(r.OpID)
	w.PutRaw(r.Op)
	d := Digest(sha256.Sum256(w.Bytes()))
	w.Free()
	return d
}

// IsNull reports whether the request is the null (no-op) request.
func (r *Request) IsNull() bool { return r.OpID == "" && len(r.Op) == 0 }

// NullRequest is the no-op request the new primary uses to fill sequence
// gaps during a view change.
func NullRequest() *Request { return &Request{} }

// PrePrepare assigns sequence number Seq to the request with the given
// digest in View. The request body is piggybacked, and in tentative
// mode so are the sender's queued commit votes for earlier sequence
// numbers (Piggy).
type PrePrepare struct {
	View    uint64
	Seq     uint64
	Digest  Digest
	Request Request
	Piggy   []Vote
}

// Phase names the round a vote belongs to.
type Phase uint8

// Vote phases.
const (
	PhasePrepare Phase = iota + 1 // a backup agrees to the (view, seq, digest) binding
	PhaseCommit                   // the sender has prepared (view, seq, digest)
)

// Vote is one prepare or commit. It names no replica: channels are
// pairwise authenticated, so a vote is the sender's, and a replica can
// vote only for itself.
type Vote struct {
	Phase  Phase
	View   uint64
	Seq    uint64
	Digest Digest
}

// Checkpoint advertises the sender's state digest after executing all
// operations up to and including Seq.
type Checkpoint struct {
	Seq     uint64
	State   Digest
	Replica int
}

// PreparedEntry is a view-change claim: the sender holds a prepared
// certificate for Request at (View, Seq). The request body is carried so
// the new primary can re-propose it even if it never saw the original.
type PreparedEntry struct {
	View    uint64
	Seq     uint64
	Digest  Digest
	Request Request
}

// ViewChange votes to move to view NewView. LastStable is the sender's
// last stable checkpoint; Prepared lists requests prepared above it.
type ViewChange struct {
	NewView    uint64
	LastStable uint64
	StateD     Digest
	Prepared   []PreparedEntry
	Replica    int
}

// NewView is the new primary's certificate for view View: the quorum of
// view-change messages it assembled and the pre-prepares that re-propose
// every prepared request (and null requests for gaps).
type NewView struct {
	View        uint64
	ViewChanges []ViewChange
	PrePrepares []PrePrepare
}

// Message is the tagged union transported between replicas. A votes
// message (MsgVotes) carries the sender's prepares and commits in
// Votes: a backup's prepare with the commits it had queued, the commit
// flush heartbeat's queued commits alone, or, without tentative
// execution, one commit.
type Message struct {
	Type       MsgType
	Request    *Request
	PrePrepare *PrePrepare
	Votes      []Vote
	Checkpoint *Checkpoint
	ViewChange *ViewChange
	NewView    *NewView
	Fetch      *Fetch
	FetchReply *FetchReply
}

// Encode serializes the message with the wire codec.
func (m *Message) Encode() []byte {
	w := wire.NewWriter(128)
	m.EncodeTo(w)
	return w.Bytes()
}

// EncodeTo serializes the message into w (hot paths pass a pooled
// writer so broadcast encoding allocates nothing in steady state).
func (m *Message) EncodeTo(w *wire.Writer) {
	w.PutUint8(uint8(m.Type))
	switch m.Type {
	case MsgRequest:
		encodeRequest(w, m.Request)
	case MsgPrePrepare:
		encodePrePrepare(w, m.PrePrepare)
	case MsgVotes:
		putList(w, m.Votes, encodeVote)
	case MsgCheckpoint:
		w.PutUint64(m.Checkpoint.Seq)
		w.PutBytes(m.Checkpoint.State[:])
		w.PutUvarint(uint64(m.Checkpoint.Replica))
	case MsgViewChange:
		encodeViewChange(w, m.ViewChange)
	case MsgNewView:
		w.PutUint64(m.NewView.View)
		putList(w, m.NewView.ViewChanges, encodeViewChange)
		putList(w, m.NewView.PrePrepares, encodePrePrepare)
	case MsgFetch:
		w.PutUint64(m.Fetch.From)
		w.PutUint64(m.Fetch.To)
		w.PutUvarint(uint64(m.Fetch.Replica))
	case MsgFetchReply:
		w.PutUint64(m.FetchReply.From)
		w.PutUint64(m.FetchReply.To)
		putList(w, m.FetchReply.Ops, func(w *wire.Writer, op *FetchedOp) {
			w.PutUint64(op.Seq)
			encodeRequest(w, &op.Request)
		})
	}
}

// DecodeMessage parses a message, copying all variable-length fields so
// the result does not alias buf.
func DecodeMessage(buf []byte) (*Message, error) {
	r := wire.NewReader(buf)
	m := &Message{Type: MsgType(r.Uint8())}
	switch m.Type {
	case MsgRequest:
		req := decodeRequest(r)
		m.Request = &req
	case MsgPrePrepare:
		pp := decodePrePrepare(r)
		m.PrePrepare = &pp
	case MsgVotes:
		m.Votes = readVotes(r, nil)
	case MsgCheckpoint:
		c := &Checkpoint{Seq: r.Uint64()}
		copy(c.State[:], r.Bytes())
		c.Replica = int(r.Uvarint())
		m.Checkpoint = c
	case MsgViewChange:
		vc := decodeViewChange(r)
		m.ViewChange = &vc
	case MsgNewView:
		nv := &NewView{View: r.Uint64()}
		nv.ViewChanges = newList[ViewChange](r)
		for i := range nv.ViewChanges {
			nv.ViewChanges[i] = decodeViewChange(r)
		}
		nv.PrePrepares = newList[PrePrepare](r)
		for i := range nv.PrePrepares {
			nv.PrePrepares[i] = decodePrePrepare(r)
		}
		m.NewView = nv
	case MsgFetch:
		m.Fetch = &Fetch{From: r.Uint64(), To: r.Uint64(), Replica: int(r.Uvarint())}
	case MsgFetchReply:
		fr := &FetchReply{From: r.Uint64(), To: r.Uint64()}
		fr.Ops = newList[FetchedOp](r)
		for i := range fr.Ops {
			fr.Ops[i] = FetchedOp{Seq: r.Uint64(), Request: decodeRequest(r)}
		}
		m.FetchReply = fr
	default:
		return nil, fmt.Errorf("clbft: unknown message type %d", uint8(m.Type))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("clbft: decoding %s: %w", m.Type, err)
	}
	return m, nil
}

// decodeVotes parses a votes frame by value, appending its votes to dst:
// ReceiveEncoded's decoder. It accepts exactly the votes frames
// DecodeMessage accepts, through the same loop.
func decodeVotes(frame []byte, dst []Vote) ([]Vote, bool) {
	r := wire.NewReader(frame)
	if MsgType(r.Uint8()) != MsgVotes {
		return dst, false
	}
	dst = readVotes(r, dst)
	return dst, r.Done() == nil
}

// putList writes xs with a length prefix, each element by put.
func putList[T any](w *wire.Writer, xs []T, put func(*wire.Writer, *T)) {
	w.PutUvarint(uint64(len(xs)))
	for i := range xs {
		put(w, &xs[i])
	}
}

// listLen reads a list's length prefix. A count larger than the
// remaining input fails r and reads as 0, so a hostile prefix cannot
// trigger a huge allocation.
func listLen(r *wire.Reader) int {
	n := r.Uvarint()
	if n > uint64(r.Remaining()) {
		r.Fail(wire.ErrTooLarge)
		return 0
	}
	return int(n)
}

// newList reads a list's length prefix and returns that many zero
// elements for the caller to decode into, or nil for none.
func newList[T any](r *wire.Reader) []T {
	if n := listLen(r); n > 0 {
		return make([]T, n)
	}
	return nil
}

// readVotes appends a vote list to dst by value. It is the one vote
// loop: DecodeMessage passes nil, and decodeVotes its caller's buffer.
func readVotes(r *wire.Reader, dst []Vote) []Vote {
	n := listLen(r)
	dst = slices.Grow(dst, n)
	for range n {
		dst = append(dst, decodeVote(r))
	}
	return dst
}

func encodeRequest(w *wire.Writer, req *Request) {
	w.PutString(req.OpID)
	w.PutBytes(req.Op)
}

// decodeRequest copies Op out of the frame: it is the one copy of an
// operation a replica makes, and everything downstream (batch entries,
// the validator's parsed value, the delivery) aliases it.
func decodeRequest(r *wire.Reader) Request {
	return Request{OpID: r.String(), Op: r.BytesCopy()}
}

func encodePrePrepare(w *wire.Writer, pp *PrePrepare) {
	w.PutUint64(pp.View)
	w.PutUint64(pp.Seq)
	w.PutBytes(pp.Digest[:])
	encodeRequest(w, &pp.Request)
	putList(w, pp.Piggy, encodeVote)
}

func decodePrePrepare(r *wire.Reader) PrePrepare {
	pp := PrePrepare{View: r.Uint64(), Seq: r.Uint64()}
	copy(pp.Digest[:], r.Bytes())
	pp.Request = decodeRequest(r)
	pp.Piggy = readVotes(r, nil)
	return pp
}

func encodeVote(w *wire.Writer, v *Vote) {
	w.PutUint8(uint8(v.Phase))
	w.PutUint64(v.View)
	w.PutUint64(v.Seq)
	w.PutBytes(v.Digest[:])
}

// errPhase rejects a vote of no known phase.
var errPhase = errors.New("clbft: vote of unknown phase")

func decodeVote(r *wire.Reader) Vote {
	v := Vote{Phase: Phase(r.Uint8()), View: r.Uint64(), Seq: r.Uint64()}
	copy(v.Digest[:], r.Bytes())
	if v.Phase != PhasePrepare && v.Phase != PhaseCommit {
		r.Fail(errPhase)
	}
	return v
}

func encodeViewChange(w *wire.Writer, vc *ViewChange) {
	w.PutUint64(vc.NewView)
	w.PutUint64(vc.LastStable)
	w.PutBytes(vc.StateD[:])
	putList(w, vc.Prepared, func(w *wire.Writer, p *PreparedEntry) {
		w.PutUint64(p.View)
		w.PutUint64(p.Seq)
		w.PutBytes(p.Digest[:])
		encodeRequest(w, &p.Request)
	})
	w.PutUvarint(uint64(vc.Replica))
}

func decodeViewChange(r *wire.Reader) ViewChange {
	vc := ViewChange{NewView: r.Uint64(), LastStable: r.Uint64()}
	copy(vc.StateD[:], r.Bytes())
	vc.Prepared = newList[PreparedEntry](r)
	for i := range vc.Prepared {
		p := &vc.Prepared[i]
		p.View, p.Seq = r.Uint64(), r.Uint64()
		copy(p.Digest[:], r.Bytes())
		p.Request = decodeRequest(r)
	}
	vc.Replica = int(r.Uvarint())
	return vc
}
