package auth

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestRoleString(t *testing.T) {
	cases := []struct {
		role Role
		want string
	}{
		{RoleVoter, "voter"},
		{RoleDriver, "driver"},
		{RoleClient, "client"},
		{Role(99), "role(99)"},
	}
	for _, c := range cases {
		if got := c.role.String(); got != c.want {
			t.Errorf("Role(%d).String() = %q, want %q", c.role, got, c.want)
		}
	}
}

func TestParseRole(t *testing.T) {
	for _, r := range []Role{RoleVoter, RoleDriver, RoleClient} {
		got, err := ParseRole(r.String())
		if err != nil {
			t.Fatalf("ParseRole(%q): %v", r.String(), err)
		}
		if got != r {
			t.Errorf("ParseRole(%q) = %v, want %v", r.String(), got, r)
		}
	}
	if _, err := ParseRole("bogus"); err == nil {
		t.Error("ParseRole(bogus) succeeded, want error")
	}
}

func TestNodeIDRoundTrip(t *testing.T) {
	ids := []NodeID{
		VoterID("pge", 0),
		DriverID("bank", 9),
		{Service: "client-7", Role: RoleClient, Index: 0},
	}
	for _, id := range ids {
		got, err := ParseNodeID(id.String())
		if err != nil {
			t.Fatalf("ParseNodeID(%q): %v", id.String(), err)
		}
		if got != id {
			t.Errorf("round trip of %v produced %v", id, got)
		}
	}
}

func TestParseNodeIDErrors(t *testing.T) {
	for _, s := range []string{"", "a/b", "svc/voter/x", "svc/nope/1", "a/b/c/d"} {
		if _, err := ParseNodeID(s); err == nil {
			t.Errorf("ParseNodeID(%q) succeeded, want error", s)
		}
	}
}

func TestNodeIDLessIsStrictOrder(t *testing.T) {
	a := VoterID("a", 0)
	b := VoterID("a", 1)
	c := DriverID("a", 0)
	d := VoterID("b", 0)
	pairs := []struct{ lo, hi NodeID }{{a, b}, {a, c}, {a, d}, {c, d}}
	for _, p := range pairs {
		if !p.lo.Less(p.hi) {
			t.Errorf("%v should be less than %v", p.lo, p.hi)
		}
		if p.hi.Less(p.lo) {
			t.Errorf("%v should not be less than %v", p.hi, p.lo)
		}
	}
	if a.Less(a) {
		t.Error("Less must be irreflexive")
	}
}

func TestMACVerify(t *testing.T) {
	key := Key("0123456789abcdef")
	msg := []byte("the quick brown fox")
	mac := MAC(key, msg)
	if !VerifyMAC(key, msg, mac) {
		t.Fatal("valid MAC rejected")
	}
	if VerifyMAC(key, append([]byte("x"), msg...), mac) {
		t.Error("MAC accepted for different message")
	}
	if VerifyMAC(Key("otherkey"), msg, mac) {
		t.Error("MAC accepted under different key")
	}
	mac[0] ^= 1
	if VerifyMAC(key, msg, mac) {
		t.Error("corrupted MAC accepted")
	}
}

func TestDeriveKeySymmetric(t *testing.T) {
	master := []byte("master-secret")
	a, b := VoterID("svc", 1), DriverID("svc", 2)
	k1 := DeriveKey(master, a, b)
	k2 := DeriveKey(master, b, a)
	if !bytes.Equal(k1, k2) {
		t.Error("DeriveKey is not symmetric in its principals")
	}
	k3 := DeriveKey(master, a, DriverID("svc", 3))
	if bytes.Equal(k1, k3) {
		t.Error("distinct pairs derived the same key")
	}
	k4 := DeriveKey([]byte("other-master"), a, b)
	if bytes.Equal(k1, k4) {
		t.Error("distinct masters derived the same key")
	}
}

func TestKeyStoreBasics(t *testing.T) {
	self := VoterID("svc", 0)
	peer := VoterID("svc", 1)
	ks := NewKeyStore(self)
	if ks.Self() != self {
		t.Fatalf("Self() = %v, want %v", ks.Self(), self)
	}
	if _, err := ks.Key(peer); err == nil {
		t.Fatal("Key for unknown peer succeeded")
	}
	ks.SetKey(peer, Key("k"))
	k, err := ks.Key(peer)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	if string(k) != "k" {
		t.Errorf("Key = %q, want %q", k, "k")
	}
	peers := ks.Peers()
	if len(peers) != 1 || peers[0] != peer {
		t.Errorf("Peers = %v, want [%v]", peers, peer)
	}
}

func TestDerivedKeyStoreInterop(t *testing.T) {
	master := []byte("m")
	a, b := VoterID("x", 0), VoterID("x", 1)
	all := []NodeID{a, b}
	ksA := NewDerivedKeyStore(master, a, all)
	ksB := NewDerivedKeyStore(master, b, all)
	msg := []byte("hello")
	mac, err := ksA.Sign(b, msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := ksB.Verify(a, msg, mac); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := ksB.Verify(a, []byte("tampered"), mac); err == nil {
		t.Error("Verify accepted tampered message")
	}
}

func TestAuthenticatorVerifyFor(t *testing.T) {
	master := []byte("m")
	sender := VoterID("s", 0)
	r1, r2 := DriverID("c", 0), DriverID("c", 1)
	all := []NodeID{sender, r1, r2}
	ksS := NewDerivedKeyStore(master, sender, all)
	ks1 := NewDerivedKeyStore(master, r1, all)
	ks2 := NewDerivedKeyStore(master, r2, all)

	msg := []byte("reply payload")
	a, err := NewAuthenticator(ksS, msg, []NodeID{r1, r2})
	if err != nil {
		t.Fatalf("NewAuthenticator: %v", err)
	}
	if a.Len() != 2 {
		t.Fatalf("got %d entries, want 2", a.Len())
	}
	if err := a.VerifyFor(ks1, msg); err != nil {
		t.Errorf("r1 verify: %v", err)
	}
	if err := a.VerifyFor(ks2, msg); err != nil {
		t.Errorf("r2 verify: %v", err)
	}
	if err := a.VerifyFor(ks1, []byte("forged")); err == nil {
		t.Error("authenticator verified forged message")
	}

	// A receiver with no entry must be rejected.
	r3 := DriverID("c", 2)
	ks3 := NewDerivedKeyStore(master, r3, append(all, r3))
	if err := a.VerifyFor(ks3, msg); err == nil {
		t.Error("authenticator verified for receiver with no entry")
	}
}

func TestAuthenticatorSkipsSelf(t *testing.T) {
	master := []byte("m")
	sender := VoterID("s", 0)
	peer := VoterID("s", 1)
	ks := NewDerivedKeyStore(master, sender, []NodeID{sender, peer})
	a, err := NewAuthenticator(ks, []byte("x"), []NodeID{sender, peer})
	if err != nil {
		t.Fatalf("NewAuthenticator: %v", err)
	}
	if a.Len() != 1 {
		t.Fatalf("got %d entries, want 1 (self skipped)", a.Len())
	}
	// Self-addressed verification always succeeds.
	if err := a.VerifyFor(ks, []byte("anything")); err == nil {
		// a.Sender == ks.Self(), so this is trusted.
	} else {
		t.Errorf("self verification failed: %v", err)
	}
}

// Property: for any message and key, the MAC verifies, and any bit flip
// in the message invalidates it.
func TestMACProperty(t *testing.T) {
	f := func(key, msg []byte, flip uint) bool {
		if len(key) == 0 {
			key = []byte{0}
		}
		mac := MAC(key, msg)
		if !VerifyMAC(key, msg, mac) {
			return false
		}
		if len(msg) == 0 {
			return true
		}
		tampered := append([]byte(nil), msg...)
		tampered[int(flip%uint(len(msg)))] ^= 0x01
		return !VerifyMAC(key, tampered, mac)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: NodeID string round-trips for arbitrary service names without
// slashes.
func TestNodeIDRoundTripProperty(t *testing.T) {
	f := func(svc string, role uint8, idx uint16) bool {
		r := Role(role%3 + 1)
		for _, c := range svc {
			if c == '/' || c == 0 {
				return true // skip invalid service names
			}
		}
		if svc == "" {
			svc = "s"
		}
		id := NodeID{Service: svc, Role: r, Index: int(idx)}
		got, err := ParseNodeID(id.String())
		return err == nil && got == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMAC(b *testing.B) {
	key := Key(bytes.Repeat([]byte{7}, 32))
	msg := bytes.Repeat([]byte{1}, 1024)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MAC(key, msg)
	}
}

func BenchmarkAuthenticator10(b *testing.B) {
	master := []byte("m")
	sender := VoterID("s", 0)
	receivers := make([]NodeID, 10)
	all := []NodeID{sender}
	for i := range receivers {
		receivers[i] = DriverID("c", i)
		all = append(all, receivers[i])
	}
	ks := NewDerivedKeyStore(master, sender, all)
	msg := bytes.Repeat([]byte{1}, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewAuthenticator(ks, msg, receivers); err != nil {
			b.Fatal(err)
		}
	}
}

// The precomputed-pad-state MAC fast path must produce bit-identical
// HMAC-SHA256, including for keys longer than the hash block size.
func TestMACStateMatchesHMAC(t *testing.T) {
	for _, keyLen := range []int{1, 32, 64, 65, 200} {
		key := Key(bytes.Repeat([]byte{0xA5}, keyLen))
		st := newMACState(key)
		if !st.valid() {
			t.Fatalf("keyLen %d: state precompute failed", keyLen)
		}
		for _, msgLen := range []int{0, 1, 63, 64, 65, 1000} {
			msg := bytes.Repeat([]byte{7}, msgLen)
			if !bytes.Equal(st.appendMAC(nil, 0, msg), MAC(key, msg)) {
				t.Errorf("keyLen %d msgLen %d: fast-path MAC diverges from HMAC-SHA256", keyLen, msgLen)
			}
			// Domain-tagged MACs are HMAC over domain||msg.
			if !bytes.Equal(st.appendMAC(nil, DomainFrameRaw, msg), MAC(key, append([]byte{DomainFrameRaw}, msg...))) {
				t.Errorf("keyLen %d msgLen %d: domain-tagged fast path diverges", keyLen, msgLen)
			}
			if bytes.Equal(st.appendMAC(nil, DomainFrameRaw, msg), st.appendMAC(nil, DomainFrameDigest, msg)) {
				t.Errorf("keyLen %d msgLen %d: distinct domains produced identical MACs", keyLen, msgLen)
			}
		}
	}
}

func TestInternNodeID(t *testing.T) {
	id, err := InternNodeID([]byte("svc/voter/3"))
	if err != nil {
		t.Fatal(err)
	}
	if id != VoterID("svc", 3) {
		t.Errorf("interned %+v", id)
	}
	// Hits must return the identical value.
	again, err := InternNodeID([]byte("svc/voter/3"))
	if err != nil || again != id {
		t.Errorf("intern hit mismatch: %+v, %v", again, err)
	}
	if _, err := InternNodeID([]byte("garbage")); err == nil {
		t.Error("interned malformed id")
	}
	if _, err := InternNodeID([]byte("a/voter/1/extra")); err == nil {
		t.Error("interned id with extra separator")
	}
}

func TestAuthenticatorDigestBinding(t *testing.T) {
	// The authenticator MACs the message digest; two messages with the
	// same digest input rules are still distinguished.
	master := []byte("m")
	s, r := VoterID("s", 0), DriverID("c", 0)
	all := []NodeID{s, r}
	ksS := NewDerivedKeyStore(master, s, all)
	ksR := NewDerivedKeyStore(master, r, all)
	a, err := NewAuthenticator(ksS, []byte("msg-1"), []NodeID{r})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.VerifyFor(ksR, []byte("msg-1")); err != nil {
		t.Errorf("verify: %v", err)
	}
	if err := a.VerifyFor(ksR, []byte("msg-2")); err == nil {
		t.Error("authenticator verified a different message")
	}
}

// TestAppendSignDomainMatchesSignDomain: in-place signing must be
// bit-identical to the allocating form for every domain, append after
// a non-empty prefix without disturbing it, and verify.
func TestAppendSignDomainMatchesSignDomain(t *testing.T) {
	master := []byte("append-sign-master")
	a, b := VoterID("s", 0), VoterID("s", 1)
	ks := NewDerivedKeyStore(master, a, []NodeID{a, b})
	msg := []byte("the covered bytes")
	for _, domain := range []byte{0, DomainFrameRaw, DomainFrameDigest} {
		want, err := ks.SignDomain(b, domain, msg)
		if err != nil {
			t.Fatalf("SignDomain(%d): %v", domain, err)
		}
		prefix := []byte("prefix-")
		got, err := ks.AppendSignDomain(append([]byte(nil), prefix...), b, domain, msg)
		if err != nil {
			t.Fatalf("AppendSignDomain(%d): %v", domain, err)
		}
		if string(got[:len(prefix)]) != string(prefix) {
			t.Fatalf("domain %d: prefix disturbed: %q", domain, got[:len(prefix)])
		}
		if string(got[len(prefix):]) != string(want) {
			t.Fatalf("domain %d: appended MAC differs from SignDomain result", domain)
		}
		peer := NewDerivedKeyStore(master, b, []NodeID{a, b})
		if err := peer.VerifyDomain(a, domain, msg, got[len(prefix):]); err != nil {
			t.Fatalf("domain %d: verify: %v", domain, err)
		}
	}
}

func TestNodeIDAppendToMatchesString(t *testing.T) {
	for _, id := range []NodeID{VoterID("svc", 0), DriverID("a/b", 12), {Service: "", Role: RoleClient, Index: -3}, {Service: "x", Role: Role(9), Index: 1}} {
		if got := string(id.AppendTo([]byte("pre:"))); got != "pre:"+id.String() {
			t.Errorf("AppendTo = %q, want %q", got, "pre:"+id.String())
		}
	}
}

// TestMACAllocBudget pins the allocation counts of the MAC hot path: a
// regression here costs every frame and every authenticator entry of
// every request, and shows in the benchmark only as noise.
func TestMACAllocBudget(t *testing.T) {
	master := []byte("alloc-budget")
	a, b := VoterID("s", 0), VoterID("s", 1)
	ks := NewDerivedKeyStore(master, a, []NodeID{a, b})
	peer := NewDerivedKeyStore(master, b, []NodeID{a, b})
	receivers := []NodeID{a, b}
	msg := bytes.Repeat([]byte{7}, 300) // longer than the hasher's staging buffer
	frame := make([]byte, 0, 2*MACSize)
	mac, err := ks.SignDomain(b, DomainFrameRaw, msg)
	if err != nil {
		t.Fatal(err)
	}
	authn, err := NewAuthenticator(ks, msg, receivers)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"AppendSignDomain into a caller buffer", 0, func() {
			if _, err := ks.AppendSignDomain(frame, b, DomainFrameRaw, msg); err != nil {
				t.Fatal(err)
			}
		}},
		{"VerifyDomain", 0, func() {
			if err := peer.VerifyDomain(a, DomainFrameRaw, msg, mac); err != nil {
				t.Fatal(err)
			}
		}},
		{"NewAuthenticator (the vector)", 1, func() {
			if _, err := NewAuthenticator(ks, msg, receivers); err != nil {
				t.Fatal(err)
			}
		}},
		{"Authenticator.VerifyFor", 0, func() {
			if err := authn.VerifyFor(peer, msg); err != nil {
				t.Fatal(err)
			}
		}},
		{"Authenticator.EntryFor", 0, func() {
			if _, ok := authn.EntryFor(b); !ok {
				t.Fatal("no entry")
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.f); got > c.max {
			t.Errorf("%s: %.0f allocs per run, budget %.0f", c.name, got, c.max)
		}
	}
}

// TestAuthenticatorVectorIsExact: NewAuthenticator sizes its vector
// exactly, in the wire form VectorLen accepts, and VerifyDigestFor
// agrees with VerifyFor.
func TestAuthenticatorVectorIsExact(t *testing.T) {
	master := []byte("m")
	sender := VoterID("a-rather-long-service-name", 0)
	receivers := []NodeID{sender, DriverID("c", 0), DriverID("c", 12345), VoterID("c", 7)}
	ks := NewDerivedKeyStore(master, sender, receivers)
	a, err := NewAuthenticator(ks, []byte("msg"), receivers)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Vector) != cap(a.Vector) {
		t.Errorf("vector of %d bytes in a buffer of %d", len(a.Vector), cap(a.Vector))
	}
	if n, err := VectorLen(append(a.Vector, "trailer"...)); err != nil || n != len(a.Vector) {
		t.Errorf("VectorLen = %d, %v; want %d", n, err, len(a.Vector))
	}
	peer := NewDerivedKeyStore(master, receivers[2], receivers)
	if err := a.VerifyDigestFor(peer, sha256.Sum256([]byte("msg"))); err != nil {
		t.Errorf("VerifyDigestFor: %v", err)
	}
	if err := a.VerifyDigestFor(peer, sha256.Sum256([]byte("other"))); err == nil {
		t.Error("VerifyDigestFor accepted another message's digest")
	}
}

// rawVector is a one-entry MAC vector naming recv, carrying mac.
func rawVector(recv string, mac []byte) []byte {
	v := binary.AppendUvarint(nil, 1)
	v = binary.AppendUvarint(v, uint64(len(recv)))
	v = append(v, recv...)
	v = binary.AppendUvarint(v, uint64(len(mac)))
	return append(v, mac...)
}

// TestNonCanonicalReceiverNeverMatches: an entry names its receiver by
// the bytes NodeID.AppendTo renders and nothing else. Spellings that
// ParseNodeID maps to the same NodeID never match, and never verify,
// even under a MAC that is otherwise correct for that receiver.
func TestNonCanonicalReceiverNeverMatches(t *testing.T) {
	master := []byte("m")
	sender, recv := DriverID("c", 0), VoterID("svc", 1)
	ksS := NewDerivedKeyStore(master, sender, []NodeID{sender, recv})
	ksR := NewDerivedKeyStore(master, recv, []NodeID{sender, recv})
	good, err := NewAuthenticator(ksS, []byte("msg"), []NodeID{recv})
	if err != nil {
		t.Fatal(err)
	}
	mac, ok := good.EntryFor(recv)
	if !ok {
		t.Fatal("no entry under the canonical id")
	}
	for _, spelling := range []string{"svc/voter/01", "svc/voter/+1", "svc/voter/001"} {
		if id, err := ParseNodeID(spelling); err != nil || id != recv {
			t.Fatalf("%q parses to %v, %v: not a respelling of %s", spelling, id, err, recv)
		}
		a := Authenticator{Sender: sender, Vector: rawVector(spelling, mac)}
		if _, err := VectorLen(a.Vector); err != nil {
			t.Fatalf("%q: vector rejected: %v", spelling, err)
		}
		if _, ok := a.EntryFor(recv); ok {
			t.Errorf("entry for %q matched %s", spelling, recv)
		}
		if err := a.VerifyFor(ksR, []byte("msg")); err == nil {
			t.Errorf("entry for %q verified for %s", spelling, recv)
		}
	}
	if err := (Authenticator{Sender: sender, Vector: rawVector("svc/voter/1", mac)}).VerifyFor(ksR, []byte("msg")); err != nil {
		t.Errorf("canonical spelling: %v", err)
	}
}
