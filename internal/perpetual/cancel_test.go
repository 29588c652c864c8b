package perpetual

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// slowEchoApp echoes every request after holding it for delay — long
// enough for a caller to cancel mid-call, short enough that the late
// reply still arrives while the test is watching for it to leak.
func slowEchoApp(t *testing.T, dep *Deployment, service string, delay time.Duration) {
	t.Helper()
	for _, drv := range dep.Drivers(service) {
		drv := drv
		go func() {
			for {
				req, err := drv.NextRequest()
				if err != nil {
					return
				}
				time.Sleep(delay)
				if err := drv.Reply(req, append([]byte("echo:"), req.Payload...)); err != nil {
					return
				}
			}
		}()
	}
}

// driverPending snapshots the driver state a canceled call must not
// leak: outstanding calls and fast-path reads, and queued reply events
// for reqID.
func driverPending(d *Driver, reqID string) (outstanding, replies int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	outstanding = len(d.outstanding)
	for _, ev := range d.events {
		if ev.Kind == EventReply && ev.Reply.ReqID == reqID {
			replies++
		}
	}
	return
}

// waitPending polls until cond holds or the deadline passes.
func waitPending(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDoCancelLeavesNoOutstanding is the cancellation leak check on
// both transports: a mid-call ctx cancel must return ctx.Err(), settle
// the outstanding entry (group-wide abort), and swallow the late agreed
// reply instead of queueing an orphan event — the same leak class as
// the PR 2 call-on-authenticator-error fix, now for caller-initiated
// teardown.
func TestDoCancelLeavesNoOutstanding(t *testing.T) {
	const delay = 400 * time.Millisecond
	for _, kind := range []TransportKind{TransportMem, TransportTCP} {
		kind := kind
		t.Run(fmt.Sprintf("transport=%v", kind), func(t *testing.T) {
			guardGoroutines(t)
			dep := buildPairOver(t, kind, 1, 4, nil)
			slowEchoApp(t, dep, "t", delay)
			drv := dep.Driver("c", 0)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type outcome struct {
				res Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := drv.Do(ctx, Request{Target: "t", Payload: []byte("slow")})
				done <- outcome{res, err}
			}()

			// Cancel only once the request is actually in flight.
			waitPending(t, "request to become outstanding", func() bool {
				o, _ := driverPending(drv, "")
				return o > 0
			})
			cancel()
			var got outcome
			select {
			case got = <-done:
			case <-time.After(8 * time.Second):
				t.Fatal("Do did not return after cancel")
			}
			if !errors.Is(got.err, context.Canceled) {
				t.Fatalf("Do after cancel = %v, want context.Canceled", got.err)
			}
			if got.res.ReqID == "" {
				t.Fatal("canceled Do returned no request id")
			}

			// The entry settles through the group-wide abort; nothing may
			// stay outstanding.
			waitPending(t, "outstanding entry to settle", func() bool {
				o, _ := driverPending(drv, got.res.ReqID)
				return o == 0
			})

			// The executor's late reply lands after delay; it must be
			// swallowed, not surface as an orphan event.
			time.Sleep(delay + 200*time.Millisecond)
			if o, replies := driverPending(drv, got.res.ReqID); o != 0 || replies != 0 {
				t.Fatalf("after late reply: %d outstanding, %d queued replies; want both zero", o, replies)
			}

			// The driver still works: a fresh call on the same session
			// completes normally after the canceled one.
			res, err := drv.Do(context.Background(), Request{Target: "t", Payload: []byte("after")})
			if err != nil {
				t.Fatalf("Do after canceled call: %v", err)
			}
			if string(res.Payload) != "echo:after" {
				t.Fatalf("Do after canceled call = %q", res.Payload)
			}
		})
	}
}

// TestDoCancelReadFastPath cancels a fast-path read mid-wait on both
// transports: the read must settle (counted in ReadStats), the
// deterministic fallback must not resurrect it, and no reply may surface
// later.
func TestDoCancelReadFastPath(t *testing.T) {
	const delay = 400 * time.Millisecond
	for _, kind := range []TransportKind{TransportMem, TransportTCP} {
		kind := kind
		t.Run(fmt.Sprintf("transport=%v", kind), func(t *testing.T) {
			guardGoroutines(t)
			dep := buildPairOver(t, kind, 1, 4, nil)
			slowEchoApp(t, dep, "t", delay)
			drv := dep.Driver("c", 0)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			var reqID string
			go func() {
				res, err := drv.Do(ctx, Request{Target: "t", Payload: []byte("read"), Read: true})
				reqID = res.ReqID
				errc <- err
			}()
			waitPending(t, "read to be outstanding", func() bool {
				o, _ := driverPending(drv, "")
				return o > 0
			})
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("read Do after cancel = %v, want context.Canceled", err)
				}
			case <-time.After(8 * time.Second):
				t.Fatal("read Do did not return after cancel")
			}
			waitPending(t, "read to settle", func() bool {
				o, _ := driverPending(drv, reqID)
				return o == 0
			})
			time.Sleep(delay + 200*time.Millisecond)
			if o, replies := driverPending(drv, reqID); o != 0 || replies != 0 {
				t.Fatalf("after cancel: %d outstanding, %d queued replies; want both zero", o, replies)
			}
		})
	}
}
