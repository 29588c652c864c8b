package perpetual

import (
	"fmt"

	"perpetualws/internal/wire"
)

// OpKind discriminates the operations a voter group agrees on.
type OpKind uint8

// Agreement operation kinds.
const (
	// OpRequest orders an external request for execution by the drivers
	// (target side, stage 2).
	OpRequest OpKind = iota + 1
	// OpReply orders a verified reply bundle for consumption by the
	// executors (calling side, stage 8).
	OpReply
	// OpAbort orders a deterministic abort of an outstanding request.
	OpAbort
	// OpUtil orders an agreed utility value (clock reading / seed).
	OpUtil
	// OpMembership orders a membership change of the agreeing group
	// itself (see membership.go): the operation's own sequence number
	// becomes the epoch's install point. The agreement validator rejects
	// changes that do not advance the group's current epoch by exactly
	// one, so a non-quorum faction can never install an epoch — the
	// change must clear the *current* group's quorum like any other
	// operation.
	OpMembership
)

// String returns the name of the op kind.
func (k OpKind) String() string {
	switch k {
	case OpRequest:
		return "op-request"
	case OpReply:
		return "op-reply"
	case OpAbort:
		return "op-abort"
	case OpUtil:
		return "op-util"
	case OpMembership:
		return "op-membership"
	default:
		return fmt.Sprintf("opkind(%d)", uint8(k))
	}
}

// Op is one agreed operation.
type Op struct {
	Kind OpKind

	// OpRequest fields.
	ReqID     string
	Caller    string
	Responder int
	Payload   []byte

	// OpReply reuses ReqID and Payload; Shares carries the f_t+1
	// endorsements so every voter can re-verify the bundle. Epoch and Pos
	// echo the bundle's MAC-covered fields — without them the validator
	// could not recompute the share MACs.
	Shares []Share
	Target string
	Epoch  uint64
	Pos    uint64

	// OpUtil fields.
	K     uint64
	Value int64
}

// OpIDs deduplicate proposals within the voter group's CLBFT instance.

// RequestOpID returns the agreement OpID for an external request.
func RequestOpID(reqID string) string { return "req:" + reqID }

// ReplyOpID returns the agreement OpID for a reply.
func ReplyOpID(reqID string) string { return "rep:" + reqID }

// AbortOpID returns the agreement OpID for an abort.
func AbortOpID(reqID string) string { return "abt:" + reqID }

// UtilOpID returns the agreement OpID for utility slot k.
func UtilOpID(k uint64) string { return fmt.Sprintf("utl:%d", k) }

// MembershipOpPrefix marks membership-change operations; the CLBFT
// barrier predicate halts execution at ops whose ID carries it.
const MembershipOpPrefix = "mem:"

// MembershipOpID returns the agreement OpID for a membership change:
// one per (group, epoch), so competing proposals for the same epoch
// deduplicate and the loser is rejected by the epoch-advance check.
func MembershipOpID(group string, newEpoch uint64) string {
	return fmt.Sprintf("%s%s:%d", MembershipOpPrefix, group, newEpoch)
}

// sizeHint estimates the encoded size from the operation's content, so
// Encode allocates its buffer once.
func (o *Op) sizeHint() int {
	n := 32 + len(o.ReqID) + len(o.Caller) + len(o.Target) + len(o.Payload)
	for i := range o.Shares {
		n += shareSize(&o.Shares[i])
	}
	return n
}

// Encode serializes the operation for submission to CLBFT.
func (o *Op) Encode() []byte {
	w := wire.NewWriter(o.sizeHint())
	w.PutUint8(uint8(o.Kind))
	switch o.Kind {
	case OpRequest:
		w.PutString(o.ReqID)
		w.PutString(o.Caller)
		w.PutUvarint(uint64(o.Responder))
		w.PutBytes(o.Payload)
		w.PutUvarint(uint64(len(o.Shares)))
		for i := range o.Shares {
			encodeShare(w, &o.Shares[i])
		}
	case OpReply:
		w.PutString(o.ReqID)
		w.PutString(o.Target)
		w.PutUvarint(o.Epoch)
		w.PutUvarint(o.Pos)
		w.PutBytes(o.Payload)
		w.PutUvarint(uint64(len(o.Shares)))
		for i := range o.Shares {
			encodeShare(w, &o.Shares[i])
		}
	case OpAbort:
		w.PutString(o.ReqID)
	case OpUtil:
		w.PutUint64(o.K)
		w.PutInt64(o.Value)
	case OpMembership:
		w.PutBytes(o.Payload) // encoded MembershipChange
	}
	return w.Bytes()
}

// aliasBytes reads a length-prefixed byte slice without copying it;
// like BytesCopy, empty values decode as nil.
func aliasBytes(r *wire.Reader) []byte {
	if b := r.Bytes(); len(b) > 0 {
		return b
	}
	return nil
}

// DecodeOp parses an agreed operation. The result aliases buf: Payload
// and the authenticator vector of every share point into it, so the
// caller must own buf and leave it unmodified for as long as the Op is
// referenced. Agreed operations qualify — clbft hands the validator and
// the delivery callback buffers it copied off the wire and never reuses.
// Everything else — strings, share lists — is a copy.
func DecodeOp(buf []byte) (*Op, error) {
	r := wire.NewReader(buf)
	o := &Op{Kind: OpKind(r.Uint8())}
	switch o.Kind {
	case OpRequest:
		o.ReqID = r.String()
		o.Caller = internName(r.Bytes())
		o.Responder = int(r.Uvarint())
		o.Payload = aliasBytes(r)
		n := int(r.Uvarint())
		if n > r.Remaining() {
			return nil, fmt.Errorf("perpetual: request op with %d shares exceeds input", n)
		}
		if n > 0 {
			o.Shares = make([]Share, 0, n)
		}
		for i := 0; i < n && r.Err() == nil; i++ {
			o.Shares = append(o.Shares, decodeShare(r, true))
		}
	case OpReply:
		o.ReqID = r.String()
		o.Target = internName(r.Bytes())
		o.Epoch = r.Uvarint()
		o.Pos = r.Uvarint()
		o.Payload = aliasBytes(r)
		n := int(r.Uvarint())
		if n > r.Remaining() {
			return nil, fmt.Errorf("perpetual: reply op with %d shares exceeds input", n)
		}
		if n > 0 {
			o.Shares = make([]Share, 0, n)
		}
		for i := 0; i < n && r.Err() == nil; i++ {
			o.Shares = append(o.Shares, decodeShare(r, true))
		}
	case OpAbort:
		o.ReqID = r.String()
	case OpUtil:
		o.K = r.Uint64()
		o.Value = r.Int64()
	case OpMembership:
		o.Payload = aliasBytes(r)
	default:
		return nil, fmt.Errorf("perpetual: unknown op kind %d", uint8(o.Kind))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("perpetual: decoding %s: %w", o.Kind, err)
	}
	return o, nil
}
