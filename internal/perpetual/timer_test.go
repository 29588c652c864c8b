package perpetual

import (
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"perpetualws/internal/auth"
	"perpetualws/internal/transport"
)

// sentRequest is one request frame a driver sent: the voter it went to
// and the attempt it carries.
type sentRequest struct {
	to      auth.NodeID
	attempt int
}

// recordBehavior records the request frames its replica's driver sends.
type recordBehavior struct {
	CorrectBehavior
	conn *recordConn
}

func (b recordBehavior) wrapDriverConn(c transport.Connection) transport.Connection {
	b.conn.Connection = c
	return b.conn
}

// recordConn records the request frames and read replies sent through
// it.
type recordConn struct {
	transport.Connection
	mu    sync.Mutex
	sent  []sentRequest
	reads []ReadReply
}

func (r *recordConn) Send(to auth.NodeID, frame []byte) error {
	// Skip the frame head: the sender's name and the MAC, each behind its
	// 16-bit length, then the payload's 32-bit length.
	at := 2 + int(binary.BigEndian.Uint16(frame))
	at += 2 + int(binary.BigEndian.Uint16(frame[at:])) + 4
	if m, err := decodeMessage(frame[at:], false); err == nil {
		r.mu.Lock()
		switch m.Kind {
		case KindRequest:
			r.sent = append(r.sent, sentRequest{to, m.Request.Attempt})
		case KindReadReply:
			r.reads = append(r.reads, *m.ReadReply)
		}
		r.mu.Unlock()
	}
	return r.Connection.Send(to, frame)
}

// since returns the requests sent after the first n.
func (r *recordConn) since(n int) []sentRequest {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.sent[n:])
}

// readsSince returns the read replies sent after the first n.
func (r *recordConn) readsSince(n int) []ReadReply {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.reads[n:])
}

// quietDriver is replica 0's driver of caller c (nc replicas) toward a
// target t of nt replicas that never answers, with its timer swapped for
// one whose fire does nothing: the test hands the driver every fire
// through onFire, at times it picks.
func quietDriver(t *testing.T, nc, nt int, rec *recordConn) (*Deployment, *Driver) {
	t.Helper()
	dep := buildPair(t, nc, nt, func(dep *Deployment) {
		opts := fastOpts()
		opts.Behaviors = map[int]Behavior{}
		for i := 0; i < nt; i++ {
			opts.Behaviors[i] = SilentFault{}
		}
		dep.Configure("t", opts)
		if rec != nil {
			opts = fastOpts()
			opts.Behaviors = map[int]Behavior{0: recordBehavior{conn: rec}}
			dep.Configure("c", opts)
		}
	})
	d := dep.Driver("c", 0)
	d.mu.Lock()
	d.alarm.t = time.AfterFunc(time.Hour, func() {})
	d.mu.Unlock()
	return dep, d
}

// outstandingCall returns the call id names, nil once it settled.
func outstandingCall(d *Driver, id string) *call {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.outstanding[id]
}

// checkDueHeap fails unless the due heap holds exactly the outstanding
// calls that have a due time, each at its slot, earliest first.
func checkDueHeap(t *testing.T, d *Driver) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	want := 0
	for _, c := range d.outstanding {
		if !c.due().IsZero() {
			want++
		}
	}
	if len(d.due) != want {
		t.Fatalf("due heap holds %d calls, %d outstanding calls have a due time", len(d.due), want)
	}
	for i, c := range d.due {
		if c.slot != i || d.outstanding[c.id] != c || (i > 0 && c.due().Before(d.due[(i-1)/2].due())) {
			t.Fatalf("due heap slot %d holds %s (slot %d) out of place", i, c.id, c.slot)
		}
	}
}

// checkAlarm fails unless the driver's alarm is set for the earliest due
// time in its heap, or for none when the heap is empty.
func checkAlarm(t *testing.T, d *Driver) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	var want time.Time
	if len(d.due) > 0 {
		want = d.due[0].due()
	}
	if !d.alarm.at.Equal(want) {
		t.Fatalf("the alarm is set for %v, want %v, the earliest due time left", d.alarm.at, want)
	}
}

// TestDriverFire drives the driver's one timer with synthetic fire
// times: a fire acts only on the calls whose due time has passed, feeds
// each the event of that due time, and re-arms from the fire's time,
// leaving the alarm at the earliest due time left.
func TestDriverFire(t *testing.T) {
	const interval = 250 * time.Millisecond // fastOpts' retransmission interval

	t.Run("an early fire sends nothing, the due retry fans out and backs off", func(t *testing.T) {
		rec := &recordConn{}
		_, d := quietDriver(t, 1, 4, rec)
		id, err := issue(d, Request{Target: "t", Payload: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		c := outstandingCall(d, id)
		due := c.retryAt
		d.onFire(due.Add(-time.Nanosecond))
		if got := rec.since(1); len(got) != 0 || !c.retryAt.Equal(due) {
			t.Fatalf("a fire 1ns early sent %v and moved the retry from %v to %v", got, due, c.retryAt)
		}
		checkAlarm(t, d)
		d.onFire(due)
		got := rec.since(1)
		slices.SortFunc(got, func(a, b sentRequest) int { return a.to.Index - b.to.Index })
		want := []sentRequest{{auth.VoterID("t", 0), 1}, {auth.VoterID("t", 1), 1}, {auth.VoterID("t", 2), 1}, {auth.VoterID("t", 3), 1}}
		if !slices.Equal(got, want) {
			t.Fatalf("the due retry sent %v, want attempt 1 to the whole group %v", got, want)
		}
		// The re-arm is the fire's time plus the doubled interval, jittered
		// by the first draw of a source with the driver's identity.
		backoff, j := 2*interval, int64(2*interval)/5
		backoff += time.Duration(newDriver(d.svc, 0, nil, nil, nil, nil, nil).jitter.Int63()%(2*j+1) - j)
		if !c.retryAt.Equal(due.Add(backoff)) {
			t.Fatalf("the due retry re-armed for %v, want %v", c.retryAt, due.Add(backoff))
		}
		checkDueHeap(t, d)
		checkAlarm(t, d)
	})

	t.Run("a deadline settles a fast call as aborted and leaves the heap", func(t *testing.T) {
		_, d := quietDriver(t, 1, 4, nil)
		var ids []string
		for _, timeout := range []time.Duration{100 * time.Millisecond, time.Hour} {
			id, err := issue(d, Request{Target: "t", Payload: []byte("x"), Timeout: timeout})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		c := outstandingCall(d, ids[0])
		d.onFire(c.deadline.Add(-time.Nanosecond))
		if outstandingCall(d, ids[0]) == nil {
			t.Fatal("a fire 1ns before the deadline settled the call")
		}
		checkAlarm(t, d)
		d.onFire(c.deadline)
		if r := waitQueued(t, d, ids[0]); !r.Aborted {
			t.Fatalf("the deadline settled the fast call with %+v, want an abort", r)
		}
		if outstandingCall(d, ids[0]) != nil || outstandingCall(d, ids[1]) == nil {
			t.Fatal("the deadline fire did not settle just the call it was due for")
		}
		checkDueHeap(t, d) // so the settled call left the heap
		checkAlarm(t, d)
		// The last call's deadline fire retransmits it, then settles it:
		// nothing is left due, and the alarm is set for nothing.
		d.onFire(outstandingCall(d, ids[1]).deadline)
		if r := waitQueued(t, d, ids[1]); !r.Aborted {
			t.Fatalf("the deadline settled the fast call with %+v, want an abort", r)
		}
		checkDueHeap(t, d)
		checkAlarm(t, d)
	})

	t.Run("a deadline proposes the abort of an agreed-path call", func(t *testing.T) {
		dep, d := quietDriver(t, 4, 1, nil)
		id, err := issue(d, Request{Target: "t", Payload: []byte("x"), Timeout: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		c := outstandingCall(d, id)
		if c.fast {
			t.Fatal("an asynchronous call with a deadline from a replicated caller took the reply fast path")
		}
		retry := c.retryAt
		d.onFire(c.deadline)
		// The fire leaves the retransmission due. The agreed abort may
		// settle the call before this check, but a settle never moves the
		// alarm, so it is set for the retry either way.
		d.mu.Lock()
		at := d.alarm.at
		d.mu.Unlock()
		if !at.Equal(retry) {
			t.Fatalf("the deadline fire set the alarm for %v, want the retry at %v", at, retry)
		}
		if r := waitQueued(t, d, id); !r.Aborted {
			t.Fatalf("the agreed-path call settled with %+v, want the agreed abort", r)
		}
		// Replica 1 never issued the call, so only agreement can have
		// brought it the abort, which it parks for the issue.
		peer := dep.Driver("c", 1)
		waitPending(t, "the agreed abort at replica 1", func() bool {
			peer.mu.Lock()
			defer peer.mu.Unlock()
			e, ok := peer.early.Get(id)
			return ok && e.agreed && e.reply.Aborted
		})
		checkDueHeap(t, d)
	})

	t.Run("a widened read ignores an early fire", func(t *testing.T) {
		rec := &recordConn{}
		_, d := quietDriver(t, 1, 4, rec)
		payload := []byte("r")
		id, err := issue(d, Request{Target: "t", Payload: payload, Read: true})
		if err != nil {
			t.Fatal(err)
		}
		c := outstandingCall(d, id)
		d.run(id, callEvent{kind: evReadAnswer, from: "t", replica: c.responder,
			digest: ReplyDigest(id, payload), payload: payload, bound: true})
		first := c.retryAt
		d.onFire(first)
		if st := d.ReadStats(); st.Widened != 1 || !c.retryAt.Equal(first.Add(DefaultReadFallback)) {
			t.Fatalf("the first window's fire: %+v, window re-armed for %v; want one widen and %v",
				st, c.retryAt, first.Add(DefaultReadFallback))
		}
		checkAlarm(t, d)
		// A fire the first window would have sent, arriving late, is early
		// for the widened one.
		d.onFire(first.Add(time.Millisecond))
		if st := d.ReadStats(); st.Widened != 1 || st.Fallbacks != 0 || !c.reading() {
			t.Fatalf("an early fire reached the widened read: %+v", st)
		}
		checkAlarm(t, d)
		widened := c.retryAt
		d.onFire(widened)
		if st := d.ReadStats(); st.Fallbacks != 1 || st.FallbackTimeout != 1 || c.reading() {
			t.Fatalf("the widened window's due fire did not fall back: %+v", st)
		}
		if got := rec.since(0); len(got) != 1 || got[0].attempt != 0 || !c.retryAt.Equal(widened.Add(interval)) {
			t.Fatalf("the fallback sent %v and armed retransmission for %v, want one first attempt and %v",
				got, c.retryAt, widened.Add(interval))
		}
		checkDueHeap(t, d)
		checkAlarm(t, d)
	})

	t.Run("drivers with one identity draw one jitter sequence", func(t *testing.T) {
		svc := ServiceInfo{Name: "c", N: 4}
		a, b, other := newDriver(svc, 2, nil, nil, nil, nil, nil), newDriver(svc, 2, nil, nil, nil, nil, nil), newDriver(svc, 3, nil, nil, nil, nil, nil)
		same, differ := true, false
		for range 8 {
			x := a.jitter.Int63()
			same = same && x == b.jitter.Int63()
			differ = differ || x != other.jitter.Int63()
		}
		if !same || !differ {
			t.Fatalf("same identity drew alike: %v; another identity drew differently: %v", same, differ)
		}
	})
}

// TestVoterParkedReads drives a bare voter's parked reads on synthetic
// times, with its timer swapped for one whose fire does nothing: the
// test hands the voter every fire through serveParked, at times it
// picks. Three reads park behind their leases; only the middle one's
// lease is reached before the first falls due.
func TestVoterParkedReads(t *testing.T) {
	net := transport.NewNetwork()
	t.Cleanup(func() { net.Close() })
	v, _, stores := newBareVoterOn(t, net)
	self := auth.VoterID("t", 0)
	rec := &recordConn{Connection: net.Port(self)}
	v.adapter = transport.NewChannelAdapter(stores[self], rec)
	v.readExec = func(p []byte) ([]byte, error) { return p, nil }
	v.alarm.t = time.AfterFunc(time.Hour, func() {})
	ids := func() (out []string) {
		for _, p := range v.parkedReads {
			out = append(out, p.rr.ReqID)
		}
		return out
	}
	// check fails unless the parked reads are want, the alarm is set for
	// at, and the read replies sent since the first n are sent.
	check := func(t *testing.T, n int, sent []ReadReply, want []string, at time.Time) {
		t.Helper()
		if got := rec.readsSince(n); !slices.EqualFunc(got, sent, func(a, b ReadReply) bool {
			return a.ReqID == b.ReqID && a.Behind == b.Behind && a.Seq == b.Seq && a.Digest == b.Digest
		}) {
			t.Errorf("sent %+v, want %+v", got, sent)
		}
		if got := ids(); !slices.Equal(got, want) {
			t.Errorf("parked %v, want %v", got, want)
		}
		if !v.alarm.at.Equal(at) {
			t.Errorf("alarm set for %v, want %v", v.alarm.at, at)
		}
	}
	step := func(name string, f func(t *testing.T)) {
		if !t.Run(name, f) {
			t.FailNow()
		}
	}
	var due []time.Time // of c:1, c:2 and c:3
	step("a read behind its lease parks until readParkWindow later", func(t *testing.T) {
		for i, lease := range []uint64{9, 5, 9} {
			id := fmt.Sprintf("c:%d", i+1)
			time.Sleep(time.Microsecond) // so each read parks later than the last
			before := time.Now()
			v.handleReadRequest(auth.DriverID("c", 0), &ReadRequest{ReqID: id, Caller: "c", Target: "t", MinSeq: lease, Payload: []byte(id)})
			after := time.Now()
			p := v.parkedReads[len(v.parkedReads)-1]
			if p.due.Before(before.Add(readParkWindow)) || p.due.After(after.Add(readParkWindow)) {
				t.Fatalf("%s parked until %v, want %v after a time in [%v, %v]", id, p.due, readParkWindow, before, after)
			}
			due = append(due, p.due)
		}
		check(t, 0, nil, []string{"c:1", "c:2", "c:3"}, due[0])
	})
	step("a fire 1ns before the earliest due time declines nothing", func(t *testing.T) {
		v.serveParked(due[0].Add(-time.Nanosecond))
		check(t, 0, nil, []string{"c:1", "c:2", "c:3"}, due[0])
	})
	step("a horizon advance answers only the read whose lease it passes", func(t *testing.T) {
		v.execPos.Store(5)
		v.serveParked(due[0].Add(-time.Nanosecond))
		check(t, 0, []ReadReply{{ReqID: "c:2", Seq: 5, Digest: ReplyDigest("c:2", []byte("c:2"))}}, []string{"c:1", "c:3"}, due[0])
	})
	step("the due fire declines the earliest read and re-arms for the next", func(t *testing.T) {
		v.serveParked(due[0])
		check(t, 1, []ReadReply{{ReqID: "c:1", Behind: true}}, []string{"c:3"}, due[2])
	})
	step("closeReads drops the parked reads unanswered", func(t *testing.T) {
		v.closeReads()
		v.serveParked(due[2].Add(time.Hour))
		if got := rec.readsSince(2); len(got) != 0 || len(v.parkedReads) != 0 {
			t.Errorf("after closeReads: sent %+v, %d reads parked; want none", got, len(v.parkedReads))
		}
	})
}

// TestNoWallClockOutsideShell: no function of the perpetual layer but a
// shell reads the clock, makes or waits on a timer, or draws from
// math/rand's global source, so time and jitter reach every other
// function on the event. Each shell names the calls it may make.
func TestNoWallClockOutsideShell(t *testing.T) {
	banned := map[string]bool{"Now": true, "Since": true, "Until": true, "AfterFunc": true,
		"NewTimer": true, "NewTicker": true, "After": true, "Tick": true, "Sleep": true}
	shell := map[string]struct{ calls, why string }{
		"newAlarm":                    {"time.AfterFunc", "makes a node's one timer"},
		"Driver.run":                  {"time.Now", "stamps each event"},
		"Driver.fire":                 {"time.Now", "stamps the fire"},
		"Driver.admit":                {"time.Now", "stamps a call's expiry and first due times"},
		"Driver.AgreedTimeMillis":     {"time.Now", "reads the value the utility proposal carries"},
		"voter.handleExternalRequest": {"time.Now", "stamps the request copy's event"},
		"voter.handleLocalResult":     {"time.Now", "stamps the result's event and serves the parked reads"},
		"voter.handleReadRequest":     {"time.Now", "gives a read that parks its due time"},
		"voter.fire":                  {"time.Now", "stamps the fire"},
		"Driver.Do":                   {"time.Until", "converts the application's ctx deadline into a timeout"},
		"RetryPolicy.Do":              {"time.NewTimer", "a caller-side wrapper around Do waits out its backoff"},
		"RetryPolicy.jittered":        {"rand.Int63n", "jitters that wrapper's backoff"},
		"Deployment.WaitCaughtUp":     {"time.Now time.Sleep", "the control plane polls a replica, off any node's event path"},
		"Deployment.ReplaceReplica":   {"time.After", "the control plane bounds an install, off any node's event path"},
		"Deployment.onMembership":     {"time.Now time.Sleep", "the control plane installs an epoch, off any node's event path"},
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs := map[string]string{}
		for _, imp := range f.Imports {
			path := imp.Path.Value[1 : len(imp.Path.Value)-1]
			if path == "time" || path == "math/rand" {
				local := path[len(path)-4:]
				if imp.Name != nil {
					local = imp.Name.Name
				}
				pkgs[local] = path
			}
		}
		for _, decl := range f.Decls {
			var allowed []string
			if fn, ok := decl.(*ast.FuncDecl); ok {
				seen[funcName(fn)] = true
				allowed = strings.Fields(shell[funcName(fn)].calls)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if pkg, ok := n.X.(*ast.Ident); ok && pkgs[pkg.Name] == "time" && banned[n.Sel.Name] && !slices.Contains(allowed, "time."+n.Sel.Name) {
						t.Errorf("%s: time.%s outside the shell", fset.Position(n.Pos()), n.Sel.Name)
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						break
					}
					if pkg, ok := sel.X.(*ast.Ident); ok && pkgs[pkg.Name] == "math/rand" && sel.Sel.Name != "New" && sel.Sel.Name != "NewSource" && !slices.Contains(allowed, "rand."+sel.Sel.Name) {
						t.Errorf("%s: rand.%s draws from the global source", fset.Position(n.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	for fn := range shell {
		if !seen[fn] {
			t.Errorf("the allow-list names %s, which no longer exists", fn)
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
