//go:build !race

package perpetual

import (
	"strconv"
	"testing"

	"perpetualws/internal/auth"
)

// TestVoterAllocBudget pins the allocation counts of the voter's
// request record as it collects copies and then shares. sync.Pool drops
// items at random under the race detector, so this runs only without it.
func TestVoterAllocBudget(t *testing.T) {
	v, _, stores := newBareVoter(t)
	const runs = 200
	// AllocsPerRun calls f runs+1 times, each on a request of its own.
	reqs := make([]*RequestMsg, runs+1)
	shares := make([][2]*ReplyShare, runs+1)
	for i := range reqs {
		id := "c:" + strconv.Itoa(i+1)
		reqs[i] = signedRequest(t, stores, 0, id, []byte("p"), 0)
		digest := ReplyDigest(id, []byte("ok"))
		shares[i] = [2]*ReplyShare{
			{ReqID: id, Caller: "c", Digest: digest, Share: Share{Replica: 1}},
			{ReqID: id, Caller: "c", Digest: digest, Share: Share{Replica: 0}, Payload: []byte("ok")},
		}
	}
	driver := auth.DriverID("c", 0)
	next := 0
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		// The record and its driver slots.
		{"handleExternalRequest, a request's first copy", 2, func() {
			v.handleExternalRequest(driver, reqs[next])
			next++
		}},
		// The share slots on the record; at f+1 shares the share list, the
		// bundle and its message.
		{"acceptShare, f+1 shares and the bundle", 5, func() {
			v.acceptShare(1, shares[next][0], false)
			v.acceptShare(0, shares[next][1], true)
			next++
		}},
	} {
		next = 0
		if got := testing.AllocsPerRun(runs, c.f); got > c.max {
			t.Errorf("%s: %.0f allocs per run, budget %.0f", c.name, got, c.max)
		}
	}
	collections := 0
	for _, r := range v.reqs.recs {
		if r.slots != nil {
			collections++
		}
	}
	if v.reqs.collecting.n != runs+1 || collections != runs+1 {
		t.Fatalf("%d votes and %d share collections, want %d of each", v.reqs.collecting.n, collections, runs+1)
	}
}
