package clbft

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// t0 is the synthetic clock's origin: the tests below drive replicas
// through handle with event times built from it, so no timer ever runs.
var t0 = time.Unix(1000, 0)

// newTimerReplica is a backup of a four-replica group running tentative
// execution, with hour-long timers.
func newTimerReplica(t *testing.T, tr Transport) *Replica {
	t.Helper()
	cfg := Config{ID: 1, N: 4, ViewChangeTimeout: time.Hour, CommitFlushDelay: time.Hour, Tentative: true}
	r, err := New(cfg, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// fire hands r a fire of timer k at time at.
func fire(r *Replica, k timerKind, at time.Time) {
	r.handle(event{kind: evFire, timer: k, now: at})
}

// countKind counts the multicasts of kind k (see kindOf) rt recorded.
func countKind(rt *recordingTransport, k string) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, got := range rt.kinds {
		if got == k {
			n++
		}
	}
	return n
}

// TestTimerRearmAllocBudget: re-arming the suspicion and commit-flush
// timers through the shell's sync reuses one time.Timer each, whether
// sync resets or stops it.
func TestTimerRearmAllocBudget(t *testing.T) {
	r := newTimerReplica(t, clbftNopTransport{})
	var timers shellTimers
	t.Cleanup(func() {
		clear(r.due[:])
		timers.sync(r) // stops both timers
	})
	r.now = t0
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"suspicion timer", func() { r.arm(timerSuspect, time.Hour) }},
		{"flush timer", func() {
			if r.armed(timerFlush) {
				r.disarm(timerFlush)
			} else {
				r.armFlush()
			}
		}},
	} {
		step := func() {
			r.now = r.now.Add(time.Millisecond)
			c.f()
			timers.sync(r)
		}
		if got := testing.AllocsPerRun(200, step); got != 0 {
			t.Errorf("re-arming the %s: %.0f allocs per run, budget 0", c.name, got)
		}
	}
}

// TestTimersDropStaleFires: a fire acts only while its timer is armed
// and the event's time is at or after the due time. An early fire, an
// earlier arming's fire and a fire for a disarmed timer are dropped.
// The suspicion timer's due fire starts a view change; the flush
// timer's sends the queued commit votes.
func TestTimersDropStaleFires(t *testing.T) {
	// A backup holding a buffered request arms the suspicion timer.
	r := newTimerReplica(t, clbftNopTransport{})
	r.handle(event{kind: evSubmit, now: t0, req: &Request{OpID: "op", Op: []byte("x")}})
	due := t0.Add(time.Hour)
	if !r.due[timerSuspect].Equal(due) {
		t.Fatalf("a buffered request armed the suspicion timer for %v, want %v", r.due[timerSuspect], due)
	}
	fire(r, timerSuspect, due.Add(-time.Nanosecond))
	if r.inViewChange || !r.due[timerSuspect].Equal(due) {
		t.Fatal("an early fire reached the suspicion timer")
	}
	fire(r, timerSuspect, due)
	if !r.inViewChange || r.View() != 1 {
		t.Fatal("the suspicion timer's due fire did not start a view change")
	}
	// The view change re-armed the timer for the doubled timeout; the
	// first arming's fire, arriving late, is still early for this one.
	redue := due.Add(2 * time.Hour)
	if !r.due[timerSuspect].Equal(redue) {
		t.Fatalf("the view change re-armed the suspicion timer for %v, want %v", r.due[timerSuspect], redue)
	}
	fire(r, timerSuspect, due.Add(time.Millisecond))
	if r.View() != 1 || !r.due[timerSuspect].Equal(redue) {
		t.Fatal("the re-armed suspicion timer acted on the earlier arming's fire")
	}

	// A fire for a disarmed timer is dropped even though the request it
	// was armed for is still buffered.
	r = newTimerReplica(t, clbftNopTransport{})
	r.handle(event{kind: evSubmit, now: t0, req: &Request{OpID: "op", Op: []byte("x")}})
	r.disarm(timerSuspect)
	fire(r, timerSuspect, due)
	if r.inViewChange || r.armed(timerSuspect) {
		t.Fatal("a fire for the disarmed suspicion timer acted or re-armed it")
	}

	// A prepared certificate queues this backup's commit vote and arms
	// the heartbeat.
	rt := &recordingTransport{}
	r = newTimerReplica(t, rt)
	req := Request{OpID: "op", Op: []byte("x")}
	d := req.Digest()
	r.handle(event{kind: evMessage, now: t0, from: 0,
		msg: &Message{Type: MsgPrePrepare, PrePrepare: &PrePrepare{View: 0, Seq: 1, Digest: d, Request: req}}})
	r.handle(event{kind: evVote, now: t0, from: 2,
		vote: Vote{Phase: PhasePrepare, View: 0, Seq: 1, Digest: d}})
	due = t0.Add(time.Hour)
	if len(r.pendingPiggy) != 1 || !r.due[timerFlush].Equal(due) {
		t.Fatalf("prepared: %d queued votes, flush due %v; want 1 vote due %v", len(r.pendingPiggy), r.due[timerFlush], due)
	}
	fire(r, timerFlush, due.Add(-time.Nanosecond))
	if len(r.pendingPiggy) != 1 || countKind(rt, "commits") != 0 {
		t.Fatal("an early fire flushed the queued votes")
	}
	fire(r, timerFlush, due)
	if len(r.pendingPiggy) != 0 || countKind(rt, "commits") != 1 {
		t.Fatal("the flush timer's due fire did not send the queued votes")
	}
	fire(r, timerFlush, due.Add(time.Hour))
	if countKind(rt, "commits") != 1 || r.armed(timerFlush) {
		t.Fatal("a fire for the disarmed flush timer acted or re-armed it")
	}
}

// TestJoinRetry drives a joiner through handle: it fetches the history
// it lacks from f+1 peers when it starts, again each time the join
// timer comes due, and no more once it has caught up.
func TestJoinRetry(t *testing.T) {
	const timeout = time.Second
	ops := []FetchedOp{
		{Seq: 1, Request: Request{OpID: "a", Op: []byte{1}}},
		{Seq: 2, Request: Request{OpID: "b", Op: []byte{2}}},
	}
	var state Digest
	for _, op := range ops {
		state = chainDigest(state, op.Seq, op.Request.Digest())
	}
	rt := &recordingTransport{}
	var delivered []string
	r, err := NewFromBootstrap(Config{ID: 3, N: 4, ViewChangeTimeout: timeout}, rt,
		func(d Delivery) { delivered = append(delivered, d.OpID) }, JoinBootstrap(2, state, 0))
	if err != nil {
		t.Fatal(err)
	}

	r.handle(event{kind: evStart, now: t0})
	if got := countKind(rt, "fetch"); got != 1 || len(rt.multi[0]) != r.cfg.WeakQuorum() {
		t.Fatalf("start: %d fetches to %v, want 1 to f+1 = %d peers", got, rt.multi, r.cfg.WeakQuorum())
	}
	retry := t0.Add(timeout / 2)
	fire(r, timerJoin, retry.Add(-time.Nanosecond))
	if got := countKind(rt, "fetch"); got != 1 {
		t.Fatalf("an early join fire sent a fetch (%d in all)", got)
	}
	fire(r, timerJoin, retry)
	if got := countKind(rt, "fetch"); got != 2 || !r.due[timerJoin].Equal(retry.Add(timeout/2)) {
		t.Fatalf("the due join fire: %d fetches in all, re-armed for %v; want 2 and %v",
			got, r.due[timerJoin], retry.Add(timeout/2))
	}

	r.handle(event{kind: evMessage, now: retry, from: 0,
		msg: &Message{Type: MsgFetchReply, FetchReply: &FetchReply{From: 0, To: 2, Ops: ops}}})
	if r.joining() || len(delivered) != 2 {
		t.Fatalf("after the fetch reply: joining %v, delivered %v", r.joining(), delivered)
	}
	fire(r, timerJoin, retry.Add(timeout/2))
	if got := countKind(rt, "fetch"); got != 2 || r.armed(timerJoin) {
		t.Fatalf("a caught-up replica's join fire: %d fetches in all, join timer armed %v", got, r.armed(timerJoin))
	}
}

// TestNoWallClockOutsideShell: no clbft function but the loop shell
// (Replica.run, shellTimers.sync) reads the clock or starts a timer, so
// every handler takes its time from the event.
func TestNoWallClockOutsideShell(t *testing.T) {
	banned := map[string]bool{"Now": true, "Since": true, "Until": true, "AfterFunc": true,
		"NewTimer": true, "NewTicker": true, "After": true, "Tick": true, "Sleep": true}
	shell := map[string]bool{"Replica.run": true, "shellTimers.sync": true}
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		timePkg := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && shell[funcName(fn)] {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == timePkg && banned[sel.Sel.Name] {
					t.Errorf("%s: time.%s outside the loop shell", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}

// funcName is fn's name, qualified by its receiver's type for a method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
