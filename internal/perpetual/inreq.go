package perpetual

import (
	"crypto/sha256"
	"sync/atomic"
)

// Bounds of the voter's request table and of its delivered-outcome
// dedup (see voter.delivered).
const (
	reqTableSize       = 8192
	deliveredCacheSize = 16384
)

// inReq is one request id's life at the callee voter: the copies
// collected for agreement, the agreed position, the minted reply kept
// for retransmissions and, at the responder, the reply shares. A request
// copy, an agreed delivery or a reply share that beats the delivery
// creates it. Guarded by voter.mu.
type inReq struct {
	id         string
	caller     string
	prev, next *inReq
	on         *reqList // the table list r sits on, nil while unfiled
	collecting bool

	// Vote collection (stage 2).
	drivers  []driverVote // by caller replica index
	proposed bool
	expiry   uint64 // the latest copy's deadline stamp, 0 = none

	// Agreement and execution (stages 3-4).
	executing bool   // agreed, and no reply minted since
	seq       uint64 // agreement sequence that ordered the request
	responder int    // the voter this replica's share goes to

	// The minted reply (stage 5).
	minted bool
	reply  replyRecord

	// Reply shares, collected at the responder (stage 6).
	slots   []shareSlot // by voter index
	sent    bool        // the bundle went out
	fetched bool        // payload-fetch fired for the winning digest
}

// driverVote is one calling driver's current copy of a request; req is
// nil until the driver has voted.
type driverVote struct {
	req    *RequestMsg
	digest [sha256.Size]byte
}

// replyRecord is this voter's executed reply. The share's tier and the
// epoch it was minted at let a retransmission re-mint it stable once the
// commit horizon passes the request, or under a new epoch's roster (see
// handleExternalRequest).
type replyRecord struct {
	digest  [sha256.Size]byte
	payload []byte
	share   Share
	epoch   uint64
}

// shareSlot is one target voter's latest share, and the latest payload
// it sent that hashes to the digest it came with (payloads come from the
// responder's own execution, or from payload-fetch answers).
type shareSlot struct {
	have          bool
	share         Share
	digest        [sha256.Size]byte // the digest the share endorses
	bound         bool              // payload hashes to payloadDigest
	payload       []byte
	payloadDigest [sha256.Size]byte
}

// count counts distinct drivers whose current copy has digest.
func (r *inReq) count(digest [sha256.Size]byte) int {
	n := 0
	for i := range r.drivers {
		if d := &r.drivers[i]; d.req != nil && d.digest == digest {
			n++
		}
	}
	return n
}

// shares lists the authenticators of the drivers whose current copy has
// digest, one per driver, in driver index order.
func (r *inReq) shares(digest [sha256.Size]byte) []Share {
	out := make([]Share, 0, len(r.drivers))
	for i := range r.drivers {
		if d := &r.drivers[i]; d.req != nil && d.digest == digest {
			out = append(out, Share{Replica: i, Auth: d.req.Auth})
		}
	}
	return out
}

// certified finds a certifiable digest: f_t+1 stable endorsements, or
// a full agreement quorum of endorsements in any tier (the two
// acceptance tiers of VerifyBundle — under tentative execution the
// common case is every voter endorsing tentatively, which certifies at
// quorum without waiting for commits; short tentative sets wait for the
// retransmission-driven stable upgrade). Ties go to the lowest voter
// index.
func (r *inReq) certified(info ServiceInfo) ([sha256.Size]byte, bool) {
	for i := range r.slots {
		s := &r.slots[i]
		if !s.have {
			continue
		}
		count, stable := 0, 0
		for j := range r.slots {
			if o := &r.slots[j]; o.have && o.digest == s.digest {
				count++
				if !o.share.Tentative {
					stable++
				}
			}
		}
		if stable >= info.F()+1 || count >= info.Quorum() {
			return s.digest, true
		}
	}
	return [sha256.Size]byte{}, false
}

// payloadFor returns a payload some voter sent bound to digest.
func (r *inReq) payloadFor(digest [sha256.Size]byte) ([]byte, bool) {
	for i := range r.slots {
		if s := &r.slots[i]; s.bound && s.payloadDigest == digest {
			return s.payload, true
		}
	}
	return nil, false
}

// endorsements lists the shares endorsing digest in voter index order,
// so identical runs assemble identical bundles.
func (r *inReq) endorsements(digest [sha256.Size]byte) []Share {
	out := make([]Share, 0, len(r.slots))
	for i := range r.slots {
		if s := &r.slots[i]; s.have && s.digest == digest {
			out = append(out, s.share)
		}
	}
	return out
}

// reqTable is the voter's one table of request records. Each record sits
// on the intrusive list, eldest first, that its state names: collecting,
// executing (agreed, no reply minted yet), minted, or waiting (share
// slots only). The intake gate (voter.maxIntake) bounds the collecting
// list, which is never evicted here; every other list evicts its own
// eldest when full. Copies and shares from a faulty member reach only
// the collecting and waiting lists, so they never evict agreed work.
// Callers hold voter.mu.
type reqTable struct {
	recs                                   map[string]*inReq
	collecting, executing, minted, waiting reqList
	intakeA                                atomic.Int64 // collecting.n, read without voter.mu
}

// reqList is a circular intrusive list around a sentinel, holding at
// most max records (0: no bound here).
type reqList struct {
	root   inReq
	n, max int
}

func (t *reqTable) init() {
	t.recs = make(map[string]*inReq)
	t.executing.max, t.minted.max, t.waiting.max = reqTableSize, reqTableSize, reqTableSize/2
	for _, l := range []*reqList{&t.collecting, &t.executing, &t.minted, &t.waiting} {
		l.root.prev, l.root.next = &l.root, &l.root
	}
}

// at returns id's record, creating one if there is none. A new record is
// on no list: the caller sets its state and refiles it.
func (t *reqTable) at(id, caller string) *inReq {
	r := t.recs[id]
	if r == nil {
		r = &inReq{id: id, caller: caller}
		t.recs[id] = r
	}
	return r
}

// refile moves r to the tail of the list its state names, unless it is
// already there, first evicting that list's eldest if it is full.
func (t *reqTable) refile(r *inReq) {
	l := &t.waiting
	switch {
	case r.collecting:
		l = &t.collecting
	case r.executing:
		l = &t.executing
	case r.minted:
		l = &t.minted
	}
	if r.on == l {
		return
	}
	t.unlink(r)
	for l.max > 0 && l.n >= l.max {
		t.drop(l.root.next)
	}
	r.prev, r.next, r.on = l.root.prev, &l.root, l
	r.prev.next, l.root.prev = r, r
	l.n++
	t.intakeA.Store(int64(t.collecting.n))
}

func (t *reqTable) drop(r *inReq) {
	t.unlink(r)
	delete(t.recs, r.id)
}

// unlink takes r off its list, if it is on one.
func (t *reqTable) unlink(r *inReq) {
	if l := r.on; l != nil {
		r.prev.next, r.next.prev = r.next, r.prev
		r.on = nil
		l.n--
		t.intakeA.Store(int64(t.collecting.n))
	}
}

// release ends r's vote collection without agreement (a shed or a passed
// deadline). The record goes, unless it already collects reply shares.
func (t *reqTable) release(r *inReq) {
	if r.slots == nil {
		t.drop(r)
		return
	}
	r.collecting, r.drivers, r.proposed = false, nil, false
	t.refile(r)
}

// eldestUnproposed is the collecting record the eldest-first shed
// evicts, or nil when every one is already proposed.
func (t *reqTable) eldestUnproposed() *inReq {
	for r := t.collecting.root.next; r != &t.collecting.root; r = r.next {
		if !r.proposed {
			return r
		}
	}
	return nil
}
