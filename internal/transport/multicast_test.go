package transport

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"perpetualws/internal/auth"
)

// TestSendMultiDeliversToAll checks that one SendMulti reaches every
// destination with a verifiable frame, for payloads on both sides of
// the digest-MAC threshold.
func TestSendMultiDeliversToAll(t *testing.T) {
	for _, size := range []int{16, digestMACThreshold + 100} {
		master := []byte("m")
		sender := auth.VoterID("s", 0)
		receivers := []auth.NodeID{auth.VoterID("s", 1), auth.VoterID("s", 2), auth.VoterID("s", 3)}
		all := append([]auth.NodeID{sender}, receivers...)
		net := NewNetwork()
		defer net.Close()

		var mu sync.Mutex
		got := make(map[auth.NodeID][]byte)
		var wg sync.WaitGroup
		wg.Add(len(receivers))
		for _, id := range receivers {
			id := id
			ad := NewChannelAdapter(auth.NewDerivedKeyStore(master, id, all), net.Port(id))
			ad.SetHandler(func(from auth.NodeID, payload []byte) {
				mu.Lock()
				got[id] = append([]byte(nil), payload...)
				mu.Unlock()
				wg.Done()
			})
		}
		sa := NewChannelAdapter(auth.NewDerivedKeyStore(master, sender, all), net.Port(sender))
		payload := bytes.Repeat([]byte{7}, size)
		payload[0] = 3 // class byte
		if err := sa.SendMulti(receivers, payload); err != nil {
			t.Fatalf("size %d: SendMulti: %v", size, err)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("size %d: not all receivers got the frame", size)
		}
		for _, id := range receivers {
			if !bytes.Equal(got[id], payload) {
				t.Errorf("size %d: %s received wrong payload", size, id)
			}
		}
		st := sa.Stats()
		if st.SentMsgs != uint64(len(receivers)) {
			t.Errorf("size %d: SentMsgs = %d, want %d", size, st.SentMsgs, len(receivers))
		}
		if c := st.Class(3); c.SentMsgs != uint64(len(receivers)) || c.SentBytes != uint64(len(receivers)*size) {
			t.Errorf("size %d: class 3 counters = %+v", size, c)
		}
	}
}

// TestSendClassMatchesReceiveClass checks that the sender and the
// receiver of one frame count it in the same stats class: its leading
// byte, or the "unclassified" class 0 when that byte is out of range.
func TestSendClassMatchesReceiveClass(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		class   uint8
	}{
		{"leading byte in range", []byte{1, 42, 43}, 1},
		{"leading byte out of range", []byte{NumMsgClasses, 42}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			master := []byte("m")
			a, b := auth.VoterID("s", 0), auth.VoterID("s", 1)
			all := []auth.NodeID{a, b}
			net := NewNetwork()
			defer net.Close()

			recv := make(chan struct{}, 1)
			ab := NewChannelAdapter(auth.NewDerivedKeyStore(master, b, all), net.Port(b))
			ab.SetHandler(func(auth.NodeID, []byte) { recv <- struct{}{} })
			aa := NewChannelAdapter(auth.NewDerivedKeyStore(master, a, all), net.Port(a))
			if err := aa.Send(b, tc.payload); err != nil {
				t.Fatal(err)
			}
			select {
			case <-recv:
			case <-time.After(2 * time.Second):
				t.Fatal("frame not delivered")
			}
			if c := aa.Stats().Class(tc.class); c.SentMsgs != 1 {
				t.Errorf("sent in class %d = %+v, want 1 msg", tc.class, c)
			}
			if c := ab.Stats().Class(tc.class); c.RecvMsgs != 1 {
				t.Errorf("received in class %d = %+v, want 1 msg", tc.class, c)
			}
		})
	}
}

// TestSnapshotAdd checks aggregate accumulation.
func TestSnapshotAdd(t *testing.T) {
	var a, b StatsSnapshot
	a.SentMsgs, a.SentBytes = 2, 100
	a.ByClass[2] = ClassCounters{SentMsgs: 2, SentBytes: 100}
	b.SentMsgs, b.SentBytes = 3, 50
	b.ByClass[2] = ClassCounters{SentMsgs: 1, SentBytes: 10}
	b.ByClass[5] = ClassCounters{SentMsgs: 2, SentBytes: 40}
	a.Add(b)
	if a.SentMsgs != 5 || a.SentBytes != 150 {
		t.Errorf("totals = %d msgs %d bytes", a.SentMsgs, a.SentBytes)
	}
	if a.ByClass[2].SentMsgs != 3 || a.ByClass[5].SentBytes != 40 {
		t.Errorf("per-class merge wrong: %+v", a.ByClass[:6])
	}
}

// TestSendMultiForgeryStillRejected: a MAC computed for one receiver
// of a multicast must not verify at another (pairwise keys).
func TestSendMultiForgeryStillRejected(t *testing.T) {
	master := []byte("m")
	sender := auth.VoterID("s", 0)
	r1, r2 := auth.VoterID("s", 1), auth.VoterID("s", 2)
	all := []auth.NodeID{sender, r1, r2}
	net := NewNetwork()
	defer net.Close()

	delivered := make(chan struct{}, 1)
	a2 := NewChannelAdapter(auth.NewDerivedKeyStore(master, r2, all), net.Port(r2))
	a2.SetHandler(func(auth.NodeID, []byte) { delivered <- struct{}{} })

	// Craft a frame MACed for r1 and replay it to r2.
	ks := auth.NewDerivedKeyStore(master, sender, all)
	payload := bytes.Repeat([]byte{9}, digestMACThreshold+1)
	var scratch [32]byte
	domain, input := macInput(payload, &scratch)
	mac, err := ks.SignDomain(r1, domain, input)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Port(sender).Send(r2, encodeFrame(sender, mac, payload)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-delivered:
		t.Fatal("frame MACed for another receiver was accepted")
	case <-time.After(200 * time.Millisecond):
	}
	if got := a2.Stats().RejectedMsgs; got != 1 {
		t.Errorf("RejectedMsgs = %d, want 1", got)
	}
}

// TestDigestMACDomainSeparation: a digest-mode MAC harvested from a
// large frame must not verify a forged small frame whose payload is
// that digest — the two modes are domain-separated, so the replay is
// rejected even though the MACed bytes would otherwise coincide.
func TestDigestMACDomainSeparation(t *testing.T) {
	master := []byte("m")
	a, b := auth.VoterID("s", 0), auth.VoterID("s", 1)
	all := []auth.NodeID{a, b}
	net := NewNetwork()
	defer net.Close()

	var mu sync.Mutex
	var got [][]byte
	ab := NewChannelAdapter(auth.NewDerivedKeyStore(master, b, all), net.Port(b))
	ab.SetHandler(func(_ auth.NodeID, payload []byte) {
		mu.Lock()
		got = append(got, append([]byte(nil), payload...))
		mu.Unlock()
	})

	// The attacker observes a legitimate large frame A->B.
	ks := auth.NewDerivedKeyStore(master, a, all)
	payload := bytes.Repeat([]byte{9}, digestMACThreshold+1)
	var scratch [32]byte
	domain, input := macInput(payload, &scratch)
	mac, err := ks.SignDomain(b, domain, input)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the MAC on a frame whose payload is the digest itself:
	// below the threshold, so the receiver MACs the raw payload — which
	// is exactly the digest the harvested MAC covers.
	digest := scratch[:]
	if err := net.Port(a).Send(b, encodeFrame(a, mac, digest)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for _, p := range got {
		if bytes.Equal(p, digest) {
			t.Fatal("digest-mode MAC verified a forged raw-mode frame: domains not separated")
		}
	}
	if rej := ab.Stats().RejectedMsgs; rej != 1 {
		t.Errorf("RejectedMsgs = %d, want 1", rej)
	}
}

// TestForgedSelfFrameRejected: the frame "from" field is
// attacker-controlled, so a frame claiming to come from the receiver
// itself must not bypass MAC verification — loopback frames carry a
// process-local self-MAC no remote peer can produce.
func TestForgedSelfFrameRejected(t *testing.T) {
	master := []byte("m")
	self, evil := auth.VoterID("s", 1), auth.VoterID("s", 2)
	all := []auth.NodeID{self, evil}
	net := NewNetwork()
	defer net.Close()

	delivered := make(chan []byte, 1)
	ad := NewChannelAdapter(auth.NewDerivedKeyStore(master, self, all), net.Port(self))
	ad.SetHandler(func(_ auth.NodeID, payload []byte) { delivered <- append([]byte(nil), payload...) })

	// The attacker forges a frame whose from field IS the target's own
	// id, with no MAC at all.
	forged := encodeFrame(self, nil, []byte{2, 0xBA, 0xD0})
	if err := net.Port(evil).Send(self, forged); err != nil {
		t.Fatal(err)
	}
	select {
	case <-delivered:
		t.Fatal("forged self-addressed frame bypassed MAC verification")
	case <-time.After(200 * time.Millisecond):
	}
	if rej := ad.Stats().RejectedMsgs; rej != 1 {
		t.Errorf("RejectedMsgs = %d, want 1", rej)
	}

	// Genuine loopback still works: the adapter's own self-MAC verifies.
	if err := ad.Send(self, []byte{2, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-delivered:
		if !bytes.Equal(p, []byte{2, 1, 2, 3}) {
			t.Errorf("loopback delivered %x", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("genuine loopback frame was not delivered")
	}
}
