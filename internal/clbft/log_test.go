package clbft

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMsgLogGetReplacesOlderViews(t *testing.T) {
	l := newMsgLog(4)
	e0 := l.get(0, 5)
	e0.prePrepared = true
	e0.prepared = true
	// Same view returns the same entry.
	if l.get(0, 5) != e0 {
		t.Fatal("same-view get created a new entry")
	}
	// A newer view replaces it (certificates are view-specific).
	e1 := l.get(1, 5)
	if e1 == e0 {
		t.Fatal("newer view did not replace the entry")
	}
	if e1.prepared {
		t.Error("replacement inherited certificates")
	}
	// An older view must NOT replace a newer entry.
	if l.get(0, 5) != e1 {
		t.Error("older view replaced a newer entry")
	}
}

func TestMsgLogTruncate(t *testing.T) {
	l := newMsgLog(4)
	for seq := uint64(1); seq <= 10; seq++ {
		l.get(0, seq)
	}
	l.truncate(6)
	for seq := uint64(1); seq <= 6; seq++ {
		if _, ok := l.at(seq); ok {
			t.Errorf("seq %d survived truncation", seq)
		}
	}
	for seq := uint64(7); seq <= 10; seq++ {
		if _, ok := l.at(seq); !ok {
			t.Errorf("seq %d lost by truncation", seq)
		}
	}
}

func TestMsgLogPreparedAbove(t *testing.T) {
	l := newMsgLog(4)
	req := Request{OpID: "a", Op: []byte("x")}
	for seq := uint64(1); seq <= 4; seq++ {
		e := l.get(0, seq)
		e.request = &req
		e.digest = req.Digest()
		e.prePrepared = true
		if seq%2 == 0 { // 2 and 4 prepared
			e.prepared = true
			l.recordPrepared(e)
		}
	}
	out := l.preparedAbove(2)
	if len(out) != 1 || out[0].Seq != 4 {
		t.Errorf("preparedAbove(2) = %+v", out)
	}
	if out[0].Request.OpID != "a" {
		t.Error("prepared entry lost its request body")
	}
	// The certificate must survive replacement of the entry by a
	// newer-view replay (PBFT P-set retention)...
	l.get(3, 4)
	out = l.preparedAbove(2)
	if len(out) != 1 || out[0].Seq != 4 || out[0].View != 0 {
		t.Errorf("preparedAbove(2) after replacement = %+v", out)
	}
	// ...be superseded by a higher-view certificate at the same seq...
	e := l.get(3, 4)
	e.request = &req
	e.digest = req.Digest()
	e.prePrepared, e.prepared = true, true
	l.recordPrepared(e)
	out = l.preparedAbove(2)
	if len(out) != 1 || out[0].View != 3 {
		t.Errorf("preparedAbove(2) after re-prepare = %+v", out)
	}
	// ...and be pruned by checkpoint truncation.
	l.truncate(4)
	if out = l.preparedAbove(2); len(out) != 0 {
		t.Errorf("preparedAbove(2) after truncate(4) = %+v", out)
	}
}

func TestEntryMatchingVotes(t *testing.T) {
	req := Request{OpID: "op"}
	d := req.Digest()
	var other Digest
	other[0] = 0xFF
	e := newEntry(0, 1, 4)
	e.digest = d
	e.prePrepared = true
	e.setPrepare(1, d)
	e.setPrepare(2, other) // mismatching vote must not count
	e.setPrepare(3, d)
	if got := e.matchingPrepares(); got != 2 {
		t.Errorf("matchingPrepares = %d, want 2", got)
	}
	e.setCommit(0, d)
	e.setCommit(1, other)
	if got := e.matchingCommits(); got != 1 {
		t.Errorf("matchingCommits = %d, want 1", got)
	}
}

func TestHasLiveOp(t *testing.T) {
	l := newMsgLog(4)
	req := Request{OpID: "live"}
	e := l.get(0, 1)
	l.prePrepare(e, &req, req.Digest(), carriedOps(&req))
	if !l.hasLiveOp(0, "live") {
		t.Error("live op not found")
	}
	// An entry stranded in a superseded view no longer counts: its
	// agreement round can never complete, so the op must be assignable
	// to a fresh sequence number in the current view.
	if l.hasLiveOp(1, "live") {
		t.Error("old-view op reported live in newer view")
	}
	l.markExecuted(e)
	if l.hasLiveOp(0, "live") {
		t.Error("executed op reported live")
	}
	if l.hasLiveOp(0, "other") {
		t.Error("unknown op reported live")
	}
}

// Property: after any sequence of get/truncate operations, no entry
// below the truncation point survives and every surviving entry is
// reachable at its own sequence number.
func TestMsgLogInvariantProperty(t *testing.T) {
	f := func(ops []uint16, truncAt uint16) bool {
		l := newMsgLog(4)
		for _, o := range ops {
			seq := uint64(o%64) + 1
			view := uint64(o % 3)
			l.get(view, seq)
		}
		stable := uint64(truncAt % 64)
		l.truncate(stable)
		for seq, e := range l.entries {
			if seq <= stable {
				return false
			}
			if e.seq != seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: computeNewViewPrePrepares output is gap-free and every
// pre-prepare is either a claimed prepared request (highest view wins)
// or a null fill.
func TestNewViewComputationProperty(t *testing.T) {
	f := func(seqsRaw []uint8, stableRaw uint8) bool {
		stable := uint64(stableRaw % 8)
		vcs := []ViewChange{{NewView: 5, LastStable: stable, Replica: 0}}
		maxSeq := stable
		for i, s := range seqsRaw {
			seq := stable + 1 + uint64(s%16)
			if seq > maxSeq {
				maxSeq = seq
			}
			req := Request{OpID: fmt.Sprintf("op-%d", i), Op: []byte{byte(i)}}
			vcs[0].Prepared = append(vcs[0].Prepared, PreparedEntry{
				View: uint64(i % 4), Seq: seq, Digest: req.Digest(), Request: req,
			})
		}
		pps := computeNewViewPrePrepares(5, vcs)
		if uint64(len(pps)) != maxSeq-stable {
			return false
		}
		for i, pp := range pps {
			if pp.Seq != stable+1+uint64(i) {
				return false // gap or disorder
			}
			if pp.View != 5 {
				return false
			}
			wantDigest := pp.Request.Digest()
			if pp.Request.IsNull() {
				wantDigest = Digest{}
			}
			if pp.Digest != wantDigest {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDebugStateSnapshot(t *testing.T) {
	c := newTestCluster(t, 4)
	c.replicas[0].Submit("dbg", []byte("x"))
	c.waitDelivered(1)
	st := c.replicas[0].DebugState()
	if st.LastExec != 1 {
		t.Errorf("LastExec = %d", st.LastExec)
	}
	if st.InViewChange {
		t.Error("unexpected view change")
	}
	if st.View != 0 {
		t.Errorf("View = %d", st.View)
	}
	if len(st.Entries) != st.LogLen || len(st.Entries) == 0 {
		t.Fatalf("Entries = %+v, LogLen %d", st.Entries, st.LogLen)
	}
	if e := st.Entries[0]; e.Seq != 1 || !e.PrePrepared || e.Prepares < 2 || e.Commits < 3 {
		t.Errorf("executed entry = %+v, want seq 1 pre-prepared with 2f prepares and 2f+1 commits", e)
	}
}

func TestDebugStateOnStoppedReplica(t *testing.T) {
	r, err := New(Config{ID: 0, N: 1}, clbftNopTransport{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	r.Stop()
	if st := r.DebugState(); st.View != 0 || st.LastExec != 0 {
		t.Errorf("DebugState after stop = %+v", st)
	}
}

type clbftNopTransport struct{}

func (clbftNopTransport) Send(int, *Message)        {}
func (clbftNopTransport) Multicast([]int, *Message) {}

// hasLiveOpScan is the lookup hasLiveOp replaced, kept as its reference:
// a scan of every entry in the log window.
func hasLiveOpScan(l *msgLog, view uint64, opID string) bool {
	for _, e := range l.entries {
		if e.request == nil || e.executed || e.view != view {
			continue
		}
		if e.request.OpID == opID {
			return true
		}
		for i := range e.ops {
			if e.ops[i].OpID == opID {
				return true
			}
		}
	}
	return false
}

// TestHasLiveOpMatchesFullScan drives a log through pre-prepares (plain
// and batched, with operation ids reused across entries), executions in
// any order, replacement by newer views and truncation, and requires the
// live-list lookup to answer exactly as the full scan at every step, and
// the live list to hold exactly the live entries.
func TestHasLiveOpMatchesFullScan(t *testing.T) {
	const (
		steps  = 4000
		window = 24
		ids    = 12
	)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := newMsgLog(4)
		var view, stable uint64
		found := 0
		opID := func() string { return fmt.Sprintf("op-%d", rng.Intn(ids)) }
		for step := 0; step < steps; step++ {
			seq := stable + 1 + uint64(rng.Intn(window))
			switch k := rng.Intn(10); {
			case k < 4: // pre-prepare in the current view
				req := &Request{OpID: opID(), Op: []byte{byte(step)}}
				if rng.Intn(2) == 0 {
					inner := make([]*Request, 1+rng.Intn(3))
					for i := range inner {
						inner[i] = &Request{OpID: opID(), Op: []byte{byte(i + 1)}}
					}
					req = encodeBatch(inner)
				}
				if e := l.get(view, seq); !e.prePrepared {
					l.prePrepare(e, req, req.Digest(), carriedOps(req))
				}
			case k < 7: // execute
				if e, ok := l.at(seq); ok && e.prePrepared {
					l.markExecuted(e)
				}
			case k < 8: // a vote for a newer view replaces the entry
				l.get(view+1, seq)
			case k < 9:
				view++
			default:
				stable += uint64(rng.Intn(window / 2))
				l.truncate(stable)
			}
			for v := view; v <= view+1; v++ {
				for i := 0; i < ids; i++ {
					id := fmt.Sprintf("op-%d", i)
					if got, want := l.hasLiveOp(v, id), hasLiveOpScan(l, v, id); got != want {
						t.Fatalf("seed %d step %d: hasLiveOp(%d, %s) = %v, full scan says %v", seed, step, v, id, got, want)
					} else if got {
						found++
					}
				}
			}
			live := 0
			for _, e := range l.entries {
				if e.live() {
					live++
				}
			}
			if live != len(l.live) || l.hasLive() != (live > 0) {
				t.Fatalf("seed %d step %d: live list holds %d entries, log has %d live", seed, step, len(l.live), live)
			}
		}
		if found < steps {
			t.Errorf("seed %d: only %d lookups found a live operation; the walk exercised little", seed, found)
		}
	}
}
