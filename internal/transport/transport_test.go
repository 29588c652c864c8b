package transport

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"perpetualws/internal/auth"
)

func TestFrameRoundTrip(t *testing.T) {
	from := auth.VoterID("svc", 3)
	mac := bytes.Repeat([]byte{0xAB}, auth.MACSize)
	payload := []byte("payload bytes")
	frame := encodeFrame(from, mac, payload)
	gotFrom, gotMAC, gotPayload, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("decodeFrame: %v", err)
	}
	if gotFrom != from {
		t.Errorf("from = %v, want %v", gotFrom, from)
	}
	if !bytes.Equal(gotMAC, mac) {
		t.Error("mac mismatch")
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Error("payload mismatch")
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(mac, payload []byte, idx uint16) bool {
		from := auth.DriverID("p", int(idx))
		if len(mac) > 1<<15 {
			mac = mac[:1<<15]
		}
		gotFrom, gotMAC, gotPayload, err := decodeFrame(encodeFrame(from, mac, payload))
		return err == nil && gotFrom == from &&
			bytes.Equal(gotMAC, mac) && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeFrameRejectsTruncations(t *testing.T) {
	frame := encodeFrame(auth.VoterID("svc", 0), []byte("mac"), []byte("data"))
	for i := 0; i < len(frame); i++ {
		if _, _, _, err := decodeFrame(frame[:i]); err == nil {
			t.Errorf("decodeFrame accepted truncation to %d bytes", i)
		}
	}
}

func newTestPair(t *testing.T) (a, b *ChannelAdapter, net *Network) {
	t.Helper()
	master := []byte("test-master")
	idA, idB := auth.VoterID("x", 0), auth.VoterID("x", 1)
	all := []auth.NodeID{idA, idB}
	net = NewNetwork()
	t.Cleanup(func() { net.Close() })
	a = NewChannelAdapter(auth.NewDerivedKeyStore(master, idA, all), net.Port(idA))
	b = NewChannelAdapter(auth.NewDerivedKeyStore(master, idB, all), net.Port(idB))
	return a, b, net
}

func TestChannelAdapterDelivery(t *testing.T) {
	a, b, _ := newTestPair(t)
	got := make(chan []byte, 1)
	b.SetHandler(func(from auth.NodeID, payload []byte) {
		if from != a.LocalID() {
			t.Errorf("from = %v, want %v", from, a.LocalID())
		}
		got <- bytes.Clone(payload)
	})
	a.SetHandler(func(auth.NodeID, []byte) {})
	if err := a.Send(b.LocalID(), []byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case p := <-got:
		if string(p) != "hello" {
			t.Errorf("payload = %q, want %q", p, "hello")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for delivery")
	}
	st := a.Stats()
	if st.SentMsgs != 1 {
		t.Errorf("SentMsgs = %d, want 1", st.SentMsgs)
	}
}

func TestChannelAdapterRejectsForgery(t *testing.T) {
	master := []byte("test-master")
	idA, idB, idE := auth.VoterID("x", 0), auth.VoterID("x", 1), auth.VoterID("x", 2)
	all := []auth.NodeID{idA, idB, idE}
	net := NewNetwork()
	defer net.Close()
	b := NewChannelAdapter(auth.NewDerivedKeyStore(master, idB, all), net.Port(idB))

	delivered := make(chan struct{}, 1)
	b.SetHandler(func(auth.NodeID, []byte) { delivered <- struct{}{} })

	// Eve has the wrong pairwise keys (a different master secret) and
	// tries to impersonate A.
	eveKS := auth.NewDerivedKeyStore([]byte("evil"), idA, all)
	evePort := net.Port(idA) // same port registration as A would use
	mac, err := eveKS.SignDomain(idB, auth.DomainFrameRaw, []byte("forged"))
	if err != nil {
		t.Fatalf("SignDomain: %v", err)
	}
	if err := evePort.Send(idB, encodeFrame(idA, mac, []byte("forged"))); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-delivered:
		t.Fatal("forged frame was delivered")
	case <-time.After(100 * time.Millisecond):
	}
	if got := b.Stats().RejectedMsgs; got != 1 {
		t.Errorf("RejectedMsgs = %d, want 1", got)
	}
}

func TestChannelAdapterSelfSend(t *testing.T) {
	a, _, _ := newTestPair(t)
	got := make(chan []byte, 1)
	a.SetHandler(func(from auth.NodeID, payload []byte) { got <- bytes.Clone(payload) })
	if err := a.Send(a.LocalID(), []byte("loopback")); err != nil {
		t.Fatalf("Send to self: %v", err)
	}
	select {
	case p := <-got:
		if string(p) != "loopback" {
			t.Errorf("payload = %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timed out on self-send")
	}
}

func TestNetworkPartition(t *testing.T) {
	a, b, net := newTestPair(t)
	got := make(chan []byte, 8)
	b.SetHandler(func(_ auth.NodeID, payload []byte) { got <- bytes.Clone(payload) })
	a.SetHandler(func(auth.NodeID, []byte) {})

	net.Isolate(a.LocalID())
	if err := a.Send(b.LocalID(), []byte("dropped")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-got:
		t.Fatal("partitioned frame was delivered")
	case <-time.After(100 * time.Millisecond):
	}

	net.Heal()
	if err := a.Send(b.LocalID(), []byte("after heal")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case p := <-got:
		if string(p) != "after heal" {
			t.Errorf("payload = %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("healed network did not deliver")
	}
}

func TestNetworkLatency(t *testing.T) {
	master := []byte("m")
	idA, idB := auth.VoterID("x", 0), auth.VoterID("x", 1)
	all := []auth.NodeID{idA, idB}
	const delay = 50 * time.Millisecond
	net := NewNetwork(WithUniformLatency(delay))
	defer net.Close()
	a := NewChannelAdapter(auth.NewDerivedKeyStore(master, idA, all), net.Port(idA))
	b := NewChannelAdapter(auth.NewDerivedKeyStore(master, idB, all), net.Port(idB))
	got := make(chan time.Time, 1)
	b.SetHandler(func(auth.NodeID, []byte) { got <- time.Now() })
	start := time.Now()
	if err := a.Send(idB, []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case at := <-got:
		if d := at.Sub(start); d < delay/2 {
			t.Errorf("delivered after %v, want >= %v", d, delay/2)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timed out")
	}
}

func TestNetworkDrop(t *testing.T) {
	master := []byte("m")
	idA, idB := auth.VoterID("x", 0), auth.VoterID("x", 1)
	all := []auth.NodeID{idA, idB}
	var mu sync.Mutex
	dropAll := true
	net := NewNetwork(WithDrop(func(_, _ auth.NodeID) bool {
		mu.Lock()
		defer mu.Unlock()
		return dropAll
	}))
	defer net.Close()
	a := NewChannelAdapter(auth.NewDerivedKeyStore(master, idA, all), net.Port(idA))
	b := NewChannelAdapter(auth.NewDerivedKeyStore(master, idB, all), net.Port(idB))
	got := make(chan struct{}, 4)
	b.SetHandler(func(auth.NodeID, []byte) { got <- struct{}{} })
	if err := a.Send(idB, []byte("lost")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-got:
		t.Fatal("dropped frame delivered")
	case <-time.After(100 * time.Millisecond):
	}
	mu.Lock()
	dropAll = false
	mu.Unlock()
	if err := a.Send(idB, []byte("kept")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("frame not delivered after drops disabled")
	}
}

func TestTCPConnRoundTrip(t *testing.T) {
	master := []byte("m")
	idA, idB := auth.VoterID("tcp", 0), auth.VoterID("tcp", 1)
	all := []auth.NodeID{idA, idB}
	book := NewAddressBook()

	connA, err := ListenTCP(idA, "127.0.0.1:0", book)
	if err != nil {
		t.Fatalf("ListenTCP A: %v", err)
	}
	defer connA.Close()
	connB, err := ListenTCP(idB, "127.0.0.1:0", book)
	if err != nil {
		t.Fatalf("ListenTCP B: %v", err)
	}
	defer connB.Close()
	book.Set(idA, connA.Addr())
	book.Set(idB, connB.Addr())

	a := NewChannelAdapter(auth.NewDerivedKeyStore(master, idA, all), connA)
	b := NewChannelAdapter(auth.NewDerivedKeyStore(master, idB, all), connB)

	gotB := make(chan []byte, 1)
	b.SetHandler(func(from auth.NodeID, p []byte) {
		if from == idA {
			gotB <- bytes.Clone(p)
		}
	})
	gotA := make(chan []byte, 1)
	a.SetHandler(func(from auth.NodeID, p []byte) {
		if from == idB {
			gotA <- bytes.Clone(p)
		}
	})

	if err := a.Send(idB, []byte("ping")); err != nil {
		t.Fatalf("a.Send: %v", err)
	}
	select {
	case p := <-gotB:
		if string(p) != "ping" {
			t.Errorf("payload = %q", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for ping")
	}
	if err := b.Send(idA, []byte("pong")); err != nil {
		t.Fatalf("b.Send: %v", err)
	}
	select {
	case p := <-gotA:
		if string(p) != "pong" {
			t.Errorf("payload = %q", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for pong")
	}
}

func TestTCPConnUnknownDest(t *testing.T) {
	book := NewAddressBook()
	id := auth.VoterID("tcp", 0)
	conn, err := ListenTCP(id, "127.0.0.1:0", book)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	defer conn.Close()
	if err := conn.Send(auth.VoterID("tcp", 9), []byte("x")); err == nil {
		t.Error("Send to unregistered destination succeeded")
	}
}

func TestTCPConnSelfLoopback(t *testing.T) {
	book := NewAddressBook()
	id := auth.VoterID("tcp", 0)
	conn, err := ListenTCP(id, "127.0.0.1:0", book)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	defer conn.Close()
	got := make(chan []byte, 1)
	// Frames are call-scoped (pooled buffers): copy before retaining.
	conn.SetHandler(func(frame []byte) { got <- append([]byte(nil), frame...) })
	if err := conn.Send(id, []byte("self")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case f := <-got:
		if string(f) != "self" {
			t.Errorf("frame = %q", f)
		}
	case <-time.After(time.Second):
		t.Fatal("self loopback did not deliver")
	}
}

func TestPortCloseIdempotent(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	p := net.Port(auth.VoterID("x", 0))
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := p.Send(auth.VoterID("x", 1), []byte("x")); err == nil {
		t.Error("Send on closed port succeeded")
	}
}
