package clbft

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"perpetualws/internal/wire"
)

// Request batching: when Config.MaxBatch > 1, a primary with several
// buffered operations wraps them into a single batch request ordered
// under one sequence number, amortizing the quadratic agreement traffic
// across the batch. The batch is transparent above this package: each
// inner operation is delivered (and deduplicated) individually.

// maxBatchOps bounds a batch's length whatever Config.MaxBatch is: an
// operation's index in its batch is the low 16 bits of its position
// (Delivery.Pos).
const maxBatchOps = 1<<16 - 1

// Position is the position of the i-th operation agreed at seq.
func Position(seq uint64, i int) uint64 { return seq<<16 | uint64(i) }

// SeqOf is the agreement sequence of position pos.
func SeqOf(pos uint64) uint64 { return pos >> 16 }

// batchPrefix marks batch OpIDs. Application OpIDs never collide with it
// because batch OpIDs embed a content hash computed here.
const batchPrefix = "\x00batch:"

// batchIDLen is the length of a batch OpID: the prefix and the first
// eight bytes of the body's SHA-256 in hex.
const batchIDLen = len(batchPrefix) + 16

// isBatch reports whether a request is a batch wrapper.
func isBatch(r *Request) bool {
	return len(r.OpID) > len(batchPrefix) && r.OpID[:len(batchPrefix)] == batchPrefix
}

// batchID renders the OpID of the batch with the given body.
func batchID(body []byte) [batchIDLen]byte {
	var id [batchIDLen]byte
	copy(id[:], batchPrefix)
	sum := sha256.Sum256(body)
	hex.Encode(id[len(batchPrefix):], sum[:8])
	return id
}

// agreedOp is one operation a request carries — the request itself, or
// one entry of its batch, whose Op then aliases the batch body — with
// the value the validator parsed out of it.
type agreedOp struct {
	Request
	parsed any
}

// encodeBatch wraps inner requests into one batch request.
func encodeBatch(inner []*Request) *Request {
	size := 4
	for _, r := range inner {
		size += len(r.OpID) + len(r.Op) + 6
	}
	w := wire.NewWriter(size)
	w.PutUvarint(uint64(len(inner)))
	for _, r := range inner {
		w.PutString(r.OpID)
		w.PutBytes(r.Op)
	}
	op := w.Bytes()
	id := batchID(op)
	return &Request{OpID: string(id[:]), Op: op}
}

// decodeBatch unwraps a batch request. It rejects malformed bodies and
// OpIDs that do not match the content hash, so a Byzantine primary
// cannot smuggle two different batches under one deduplication key. The
// entries' Ops alias r.Op, which the caller must own and never modify.
func decodeBatch(r *Request) ([]agreedOp, error) {
	if !isBatch(r) {
		return nil, fmt.Errorf("clbft: not a batch request")
	}
	if id := batchID(r.Op); r.OpID != string(id[:]) {
		return nil, fmt.Errorf("clbft: batch OpID does not match content")
	}
	rd := wire.NewReader(r.Op)
	n := int(rd.Uvarint())
	if n <= 0 || n > maxBatchOps || n > rd.Remaining()+1 {
		return nil, fmt.Errorf("clbft: batch with %d entries", n)
	}
	out := make([]agreedOp, 0, n)
	for i := 0; i < n && rd.Err() == nil; i++ {
		out = append(out, agreedOp{Request: Request{OpID: rd.String(), Op: rd.Bytes()}})
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("clbft: batch body: %w", err)
	}
	for i := range out {
		if out[i].IsNull() || isBatch(&out[i].Request) {
			return nil, fmt.Errorf("clbft: batch entry %d is null or nested", i)
		}
	}
	return out, nil
}

// carriedOps lists the operations a request carries: itself, or its
// batch content. It is for requests this replica does not get to
// refuse (history certified by a checkpoint quorum, its own rolled-back
// executions); pre-prepares go through accept, which rejects a batch
// that does not decode.
func carriedOps(req *Request) []agreedOp {
	if isBatch(req) {
		if inner, err := decodeBatch(req); err == nil {
			return inner
		}
	}
	return []agreedOp{{Request: *req}}
}
