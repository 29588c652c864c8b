package clbft

import "bytes"

// check runs the application validator over one operation, returning
// the value it parsed.
func (r *Replica) check(opID string, op []byte) (parsed any, ok bool) {
	if r.validate == nil {
		return nil, true
	}
	return r.validate(opID, op)
}

// vouch validates req for the pending buffer. The verdict stays with the
// buffered copy, stamped with the epoch read before it was reached, so a
// change of epoch during validation retires it too.
func (r *Replica) vouch(req *Request) (*pendingReq, bool) {
	epoch := r.verdictEpoch()
	parsed, ok := r.check(req.OpID, req.Op)
	if !ok {
		return nil, false
	}
	return &pendingReq{req: req, parsed: parsed, validated: true, epoch: epoch}, true
}

// accept decides whether to take a pre-prepared request into the log
// and, if so, returns the operations it carries, each validated. It is
// where a replica touches an agreed operation: the digest is computed
// and checked against the primary's claim once, a batch is decoded
// once, and every operation passes the validator once — here, or when
// it entered this replica's pending buffer, if the pre-prepare carries
// the very bytes that were buffered and the verdict epoch has not moved
// since. A buffered copy with other bytes vouches for nothing; the
// buffer dies with the replica instance, so no verdict outlives this
// group's membership epoch; and the verdict epoch retires verdicts when
// the validator's keys change under a living instance (another group's
// membership change rotates them).
func (r *Replica) accept(req *Request, claimed Digest) (digest Digest, ops []agreedOp, ok bool) {
	if req.IsNull() {
		return Digest{}, nil, claimed.IsZero()
	}
	if digest = req.Digest(); digest != claimed {
		return digest, nil, false // digest does not match piggybacked request
	}
	if isBatch(req) {
		var err error
		if ops, err = decodeBatch(req); err != nil {
			return digest, nil, false
		}
		if r.cfg.MaxBatch > 1 && len(ops) > r.cfg.MaxBatch {
			return digest, nil, false
		}
	} else {
		ops = []agreedOp{{Request: *req}}
	}
	epoch := r.verdictEpoch()
	for i := range ops {
		op := &ops[i]
		if p, buffered := r.pending[op.OpID]; buffered && p.validated && p.epoch == epoch && bytes.Equal(p.req.Op, op.Op) {
			op.parsed = p.parsed
		} else if op.parsed, ok = r.check(op.OpID, op.Op); !ok {
			return digest, nil, false // operation rejected by the application validator
		}
	}
	return digest, ops, true
}
