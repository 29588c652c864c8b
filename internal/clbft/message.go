package clbft

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

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
	MsgPrepare
	MsgCommit
	MsgCheckpoint
	MsgViewChange
	MsgNewView
	MsgFetch
	MsgFetchReply
	MsgCommitBatch
)

// String returns the protocol name of the message type.
func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "request"
	case MsgPrePrepare:
		return "pre-prepare"
	case MsgPrepare:
		return "prepare"
	case MsgCommit:
		return "commit"
	case MsgCheckpoint:
		return "checkpoint"
	case MsgViewChange:
		return "view-change"
	case MsgNewView:
		return "new-view"
	case MsgFetch:
		return "fetch"
	case MsgFetchReply:
		return "fetch-reply"
	case MsgCommitBatch:
		return "commit-batch"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
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
	Piggy   []Commit
}

// Prepare is a backup's agreement to the (view, seq, digest) binding.
// In tentative mode Piggy carries the sender's queued commit votes for
// earlier sequence numbers.
type Prepare struct {
	View    uint64
	Seq     uint64
	Digest  Digest
	Replica int
	Piggy   []Commit
}

// Commit asserts that the sender has prepared (view, seq, digest).
type Commit struct {
	View    uint64
	Seq     uint64
	Digest  Digest
	Replica int
}

// CommitBatch is the tentative-mode heartbeat: the sender's queued
// commit votes, flushed standalone when no pre-prepare or prepare came
// along to carry them within the commit flush delay. Every carried
// vote must name the batch's (authenticated) sender.
type CommitBatch struct {
	Replica int
	Commits []Commit
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

// Message is the tagged union transported between replicas.
type Message struct {
	Type        MsgType
	Request     *Request
	PrePrepare  *PrePrepare
	Prepare     *Prepare
	Commit      *Commit
	Checkpoint  *Checkpoint
	ViewChange  *ViewChange
	NewView     *NewView
	Fetch       *Fetch
	FetchReply  *FetchReply
	CommitBatch *CommitBatch
}

// String summarizes the message for logs.
func (m *Message) String() string {
	switch m.Type {
	case MsgRequest:
		return fmt.Sprintf("request(op=%s)", m.Request.OpID)
	case MsgPrePrepare:
		return fmt.Sprintf("pre-prepare(v=%d n=%d d=%s)", m.PrePrepare.View, m.PrePrepare.Seq, m.PrePrepare.Digest)
	case MsgPrepare:
		return fmt.Sprintf("prepare(v=%d n=%d r=%d)", m.Prepare.View, m.Prepare.Seq, m.Prepare.Replica)
	case MsgCommit:
		return fmt.Sprintf("commit(v=%d n=%d r=%d)", m.Commit.View, m.Commit.Seq, m.Commit.Replica)
	case MsgCheckpoint:
		return fmt.Sprintf("checkpoint(n=%d r=%d)", m.Checkpoint.Seq, m.Checkpoint.Replica)
	case MsgViewChange:
		return fmt.Sprintf("view-change(v=%d r=%d)", m.ViewChange.NewView, m.ViewChange.Replica)
	case MsgNewView:
		return fmt.Sprintf("new-view(v=%d)", m.NewView.View)
	case MsgFetch:
		return fmt.Sprintf("fetch(%d..%d r=%d)", m.Fetch.From, m.Fetch.To, m.Fetch.Replica)
	case MsgFetchReply:
		return fmt.Sprintf("fetch-reply(%d..%d %d ops)", m.FetchReply.From, m.FetchReply.To, len(m.FetchReply.Ops))
	case MsgCommitBatch:
		return fmt.Sprintf("commit-batch(r=%d %d commits)", m.CommitBatch.Replica, len(m.CommitBatch.Commits))
	default:
		return m.Type.String()
	}
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
	case MsgPrepare:
		encodeTriple(w, m.Prepare.View, m.Prepare.Seq, m.Prepare.Digest, m.Prepare.Replica)
		encodePiggy(w, m.Prepare.Piggy)
	case MsgCommit:
		encodeTriple(w, m.Commit.View, m.Commit.Seq, m.Commit.Digest, m.Commit.Replica)
	case MsgCheckpoint:
		w.PutUint64(m.Checkpoint.Seq)
		w.PutBytes(m.Checkpoint.State[:])
		w.PutUvarint(uint64(m.Checkpoint.Replica))
	case MsgViewChange:
		encodeViewChange(w, m.ViewChange)
	case MsgNewView:
		nv := m.NewView
		w.PutUint64(nv.View)
		w.PutUvarint(uint64(len(nv.ViewChanges)))
		for i := range nv.ViewChanges {
			encodeViewChange(w, &nv.ViewChanges[i])
		}
		w.PutUvarint(uint64(len(nv.PrePrepares)))
		for i := range nv.PrePrepares {
			encodePrePrepare(w, &nv.PrePrepares[i])
		}
	case MsgFetch:
		w.PutUint64(m.Fetch.From)
		w.PutUint64(m.Fetch.To)
		w.PutUvarint(uint64(m.Fetch.Replica))
	case MsgFetchReply:
		fr := m.FetchReply
		w.PutUint64(fr.From)
		w.PutUint64(fr.To)
		w.PutUvarint(uint64(len(fr.Ops)))
		for i := range fr.Ops {
			w.PutUint64(fr.Ops[i].Seq)
			encodeRequest(w, &fr.Ops[i].Request)
		}
	case MsgCommitBatch:
		w.PutUvarint(uint64(m.CommitBatch.Replica))
		encodePiggy(w, m.CommitBatch.Commits)
	}
}

// DecodeMessage parses a message, copying all variable-length fields so
// the result does not alias buf.
func DecodeMessage(buf []byte) (*Message, error) {
	r := wire.NewReader(buf)
	m := &Message{Type: MsgType(r.Uint8())}
	switch m.Type {
	case MsgRequest:
		m.Request = decodeRequest(r)
	case MsgPrePrepare:
		m.PrePrepare = decodePrePrepare(r)
	case MsgPrepare:
		v, n, d, rep := decodeTriple(r)
		m.Prepare = &Prepare{View: v, Seq: n, Digest: d, Replica: rep}
		m.Prepare.Piggy = decodePiggy(r)
	case MsgCommit:
		v, n, d, rep := decodeTriple(r)
		m.Commit = &Commit{View: v, Seq: n, Digest: d, Replica: rep}
	case MsgCheckpoint:
		c := &Checkpoint{Seq: r.Uint64()}
		copy(c.State[:], r.Bytes())
		c.Replica = int(r.Uvarint())
		m.Checkpoint = c
	case MsgViewChange:
		m.ViewChange = decodeViewChange(r)
	case MsgNewView:
		nv := &NewView{View: r.Uint64()}
		nvc := int(r.Uvarint())
		if nvc > maxSliceLen(r) {
			return nil, fmt.Errorf("clbft: new-view with %d view-changes exceeds input", nvc)
		}
		if nvc > 0 {
			nv.ViewChanges = make([]ViewChange, 0, nvc)
		}
		for i := 0; i < nvc && r.Err() == nil; i++ {
			vc := decodeViewChange(r)
			if vc != nil {
				nv.ViewChanges = append(nv.ViewChanges, *vc)
			}
		}
		npp := int(r.Uvarint())
		if npp > maxSliceLen(r) {
			return nil, fmt.Errorf("clbft: new-view with %d pre-prepares exceeds input", npp)
		}
		if npp > 0 {
			nv.PrePrepares = make([]PrePrepare, 0, npp)
		}
		for i := 0; i < npp && r.Err() == nil; i++ {
			pp := decodePrePrepare(r)
			if pp != nil {
				nv.PrePrepares = append(nv.PrePrepares, *pp)
			}
		}
		m.NewView = nv
	case MsgFetch:
		m.Fetch = &Fetch{From: r.Uint64(), To: r.Uint64(), Replica: int(r.Uvarint())}
	case MsgFetchReply:
		fr := &FetchReply{From: r.Uint64(), To: r.Uint64()}
		nops := int(r.Uvarint())
		if nops > maxSliceLen(r) {
			return nil, fmt.Errorf("clbft: fetch-reply with %d ops exceeds input", nops)
		}
		if nops > 0 {
			fr.Ops = make([]FetchedOp, 0, nops)
		}
		for i := 0; i < nops && r.Err() == nil; i++ {
			op := FetchedOp{Seq: r.Uint64()}
			op.Request = *decodeRequest(r)
			fr.Ops = append(fr.Ops, op)
		}
		m.FetchReply = fr
	case MsgCommitBatch:
		cb := &CommitBatch{Replica: int(r.Uvarint())}
		cb.Commits = decodePiggy(r)
		m.CommitBatch = cb
	default:
		return nil, fmt.Errorf("clbft: unknown message type %d", uint8(m.Type))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("clbft: decoding %s: %w", m.Type, err)
	}
	return m, nil
}

// maxSliceLen bounds decoded slice lengths by the remaining input, so a
// hostile length prefix cannot trigger a huge allocation.
func maxSliceLen(r *wire.Reader) int { return r.Remaining() }

func encodeRequest(w *wire.Writer, req *Request) {
	w.PutString(req.OpID)
	w.PutBytes(req.Op)
}

// decodeRequest copies Op out of the frame: it is the one copy of an
// operation a replica makes, and everything downstream (batch entries,
// the validator's parsed value, the delivery) aliases it.
func decodeRequest(r *wire.Reader) *Request {
	return &Request{OpID: r.String(), Op: r.BytesCopy()}
}

func encodePrePrepare(w *wire.Writer, pp *PrePrepare) {
	w.PutUint64(pp.View)
	w.PutUint64(pp.Seq)
	w.PutBytes(pp.Digest[:])
	encodeRequest(w, &pp.Request)
	encodePiggy(w, pp.Piggy)
}

func decodePrePrepare(r *wire.Reader) *PrePrepare {
	pp := &PrePrepare{View: r.Uint64(), Seq: r.Uint64()}
	copy(pp.Digest[:], r.Bytes())
	req := decodeRequest(r)
	pp.Request = *req
	pp.Piggy = decodePiggy(r)
	return pp
}

func encodePiggy(w *wire.Writer, piggy []Commit) {
	w.PutUvarint(uint64(len(piggy)))
	for i := range piggy {
		encodeTriple(w, piggy[i].View, piggy[i].Seq, piggy[i].Digest, piggy[i].Replica)
	}
}

func decodePiggy(r *wire.Reader) []Commit {
	n := int(r.Uvarint())
	if n == 0 || n > maxSliceLen(r) {
		return nil // empty, or hostile length (sticky error rejects via Done)
	}
	piggy := make([]Commit, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		v, s, d, rep := decodeTriple(r)
		piggy = append(piggy, Commit{View: v, Seq: s, Digest: d, Replica: rep})
	}
	return piggy
}

func encodeTriple(w *wire.Writer, view, seq uint64, d Digest, replica int) {
	w.PutUint64(view)
	w.PutUint64(seq)
	w.PutBytes(d[:])
	w.PutUvarint(uint64(replica))
}

func decodeTriple(r *wire.Reader) (view, seq uint64, d Digest, replica int) {
	view = r.Uint64()
	seq = r.Uint64()
	copy(d[:], r.Bytes())
	replica = int(r.Uvarint())
	return
}

func encodeViewChange(w *wire.Writer, vc *ViewChange) {
	w.PutUint64(vc.NewView)
	w.PutUint64(vc.LastStable)
	w.PutBytes(vc.StateD[:])
	w.PutUvarint(uint64(len(vc.Prepared)))
	for i := range vc.Prepared {
		p := &vc.Prepared[i]
		w.PutUint64(p.View)
		w.PutUint64(p.Seq)
		w.PutBytes(p.Digest[:])
		encodeRequest(w, &p.Request)
	}
	w.PutUvarint(uint64(vc.Replica))
}

func decodeViewChange(r *wire.Reader) *ViewChange {
	vc := &ViewChange{NewView: r.Uint64(), LastStable: r.Uint64()}
	copy(vc.StateD[:], r.Bytes())
	n := int(r.Uvarint())
	if n > maxSliceLen(r) {
		return vc // sticky error will reject via Done
	}
	if n > 0 {
		vc.Prepared = make([]PreparedEntry, 0, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		p := PreparedEntry{View: r.Uint64(), Seq: r.Uint64()}
		copy(p.Digest[:], r.Bytes())
		p.Request = *decodeRequest(r)
		vc.Prepared = append(vc.Prepared, p)
	}
	vc.Replica = int(r.Uvarint())
	return vc
}
