package auth

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
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

// pairStores returns key stores for a and b sharing key.
func pairStores(a, b NodeID, key Key) (ksA, ksB *KeyStore) {
	ksA, ksB = NewKeyStore(a), NewKeyStore(b)
	ksA.SetKey(b, key)
	ksB.SetKey(a, key)
	return ksA, ksB
}

func TestMACVerify(t *testing.T) {
	a, b := VoterID("s", 0), VoterID("s", 1)
	ksA, ksB := pairStores(a, b, Key("0123456789abcdef"))
	msg := []byte("the quick brown fox")
	mac, err := ksA.SignDomain(b, DomainFrameRaw, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mac) != MACSize {
		t.Fatalf("MAC of %d bytes, want %d", len(mac), MACSize)
	}
	if err := ksB.VerifyDomain(a, DomainFrameRaw, msg, mac); err != nil {
		t.Fatalf("valid MAC rejected: %v", err)
	}
	if ksB.VerifyDomain(a, DomainFrameRaw, append([]byte("x"), msg...), mac) == nil {
		t.Error("MAC accepted for different message")
	}
	_, other := pairStores(a, b, Key("otherkey"))
	if other.VerifyDomain(a, DomainFrameRaw, msg, mac) == nil {
		t.Error("MAC accepted under different key")
	}
	if ksB.VerifyDomain(VoterID("s", 2), DomainFrameRaw, msg, mac) == nil {
		t.Error("MAC accepted from a principal with no key")
	}
	mac[0] ^= 1
	if ksB.VerifyDomain(a, DomainFrameRaw, msg, mac) == nil {
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
	mac, err := ksA.SignDomain(b, DomainFrameRaw, msg)
	if err != nil {
		t.Fatalf("SignDomain: %v", err)
	}
	if err := ksB.VerifyDomain(a, DomainFrameRaw, msg, mac); err != nil {
		t.Fatalf("VerifyDomain: %v", err)
	}
	if err := ksB.VerifyDomain(a, DomainFrameRaw, []byte("tampered"), mac); err == nil {
		t.Error("VerifyDomain accepted tampered message")
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
	a, b := VoterID("s", 0), VoterID("s", 1)
	f := func(key, msg []byte, flip uint) bool {
		ksA, ksB := pairStores(a, b, key)
		mac, err := ksA.SignDomain(b, DomainFrameRaw, msg)
		if err != nil || ksB.VerifyDomain(a, DomainFrameRaw, msg, mac) != nil {
			return false
		}
		if len(msg) == 0 {
			return true
		}
		tampered := append([]byte(nil), msg...)
		tampered[int(flip%uint(len(msg)))] ^= 0x01
		return ksB.VerifyDomain(a, DomainFrameRaw, tampered, mac) != nil
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

// BenchmarkMAC times a domain-tagged sign into a buffer with room, as the
// transport and authenticator sign: over a SHA-256 digest (digest-mode
// frames and every authenticator entry) and over a 1 KiB message.
func BenchmarkMAC(b *testing.B) {
	self, peer := VoterID("s", 0), VoterID("s", 1)
	ks, _ := pairStores(self, peer, Key(bytes.Repeat([]byte{7}, 32)))
	for _, size := range []int{sha256.Size, 1024} {
		b.Run(strconv.Itoa(size)+"B", func(b *testing.B) {
			msg := bytes.Repeat([]byte{1}, size)
			buf := make([]byte, 0, MACSize)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ks.AppendSignDomain(buf, peer, DomainFrameDigest, msg); err != nil {
					b.Fatal(err)
				}
			}
		})
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

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cmacOf is the CMAC core run on a whole message from an empty block.
func cmacOf(st *macState, msg []byte) []byte {
	x := make([]byte, MACSize)
	st.sum(x, 0, msg)
	return x
}

// TestCMACKnownAnswers checks the CMAC core against the published
// examples: NIST SP 800-38B's for AES-256 (the key size the key store
// uses) and RFC 4493's for AES-128, each over the first 0, 16, 40 and
// 64 bytes of the same message.
func TestCMACKnownAnswers(t *testing.T) {
	msg := unhex(t, "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"+
		"30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710")
	for _, c := range []struct {
		key  string
		tags [4]string
	}{
		{"603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4", [4]string{
			"028962f61b7bf89efc6b551f4667d983", "28a7023f452e8f82bd4bf28d8c37c35c",
			"aaf3d8f1de5640c232f5b169b9c911e6", "e1992190549f6ed5696a2c056c315410"}},
		{"2b7e151628aed2a6abf7158809cf4f3c", [4]string{
			"bb1d6929e95937287fa37d129b756746", "070a16b46b4d4144f79bdd9dd04a287c",
			"dfa66747de9ae63030ca32611497c827", "51f0bebf7e3b9d92fc49741779363cfe"}},
	} {
		st := newCMAC(unhex(t, c.key))
		for i, n := range []int{0, 16, 40, 64} {
			if got := hex.EncodeToString(cmacOf(st, msg[:n])); got != c.tags[i] {
				t.Errorf("key %s…, %d-byte message: tag %s, want %s", c.key[:8], n, got, c.tags[i])
			}
		}
	}
}

// TestSignDomainIsCMAC: a domain-tagged MAC is the CMAC of the domain
// byte followed by the message, under the AES-256 key derived from the
// pairwise key, for messages around every block boundary.
func TestSignDomainIsCMAC(t *testing.T) {
	a, b := VoterID("s", 0), VoterID("s", 1)
	key := DeriveKey([]byte("kat-master"), a, b)
	ks, _ := pairStores(a, b, key)
	h := hmac.New(sha256.New, key)
	h.Write([]byte(cmacKeyLabel))
	st := newCMAC(h.Sum(nil))
	for _, domain := range []byte{DomainFrameRaw, DomainFrameDigest, domainAuthenticator} {
		for _, n := range []int{0, 1, 14, 15, 16, 17, 31, 32, 33, 47, 300} {
			msg := bytes.Repeat([]byte{byte(n)}, n)
			got, err := ks.SignDomain(b, domain, msg)
			if err != nil {
				t.Fatal(err)
			}
			if want := cmacOf(st, append([]byte{domain}, msg...)); !bytes.Equal(got, want) {
				t.Errorf("domain %d, %d-byte message: %x, want %x", domain, n, got, want)
			}
		}
	}
}

// TestMACDomainSeparation: a MAC made under one domain never verifies
// under another, and a MAC with a flipped bit, or one of the old 32-byte
// length, is rejected.
func TestMACDomainSeparation(t *testing.T) {
	a, b := VoterID("s", 0), VoterID("s", 1)
	ksA, ksB := pairStores(a, b, Key("separation-key"))
	domains := []byte{DomainFrameRaw, DomainFrameDigest, domainAuthenticator}
	for _, n := range []int{0, 15, 32, 100} {
		msg := bytes.Repeat([]byte{0x5a}, n)
		for _, d := range domains {
			mac, err := ksA.SignDomain(b, d, msg)
			if err != nil {
				t.Fatal(err)
			}
			for _, other := range domains {
				if err := ksB.VerifyDomain(a, other, msg, mac); (err == nil) != (other == d) {
					t.Errorf("%d-byte message, MAC of domain %d checked under %d: err %v", n, d, other, err)
				}
			}
			for bit := 0; bit < 8*MACSize; bit += 37 {
				flipped := append([]byte(nil), mac...)
				flipped[bit/8] ^= 1 << (bit % 8)
				if ksB.VerifyDomain(a, d, msg, flipped) == nil {
					t.Errorf("%d-byte message, domain %d: MAC with bit %d flipped accepted", n, d, bit)
				}
			}
			if ksB.VerifyDomain(a, d, msg, append(mac, mac...)) == nil {
				t.Errorf("%d-byte message, domain %d: 32-byte MAC accepted", n, d)
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
	for _, domain := range []byte{DomainFrameRaw, DomainFrameDigest} {
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
	msg := bytes.Repeat([]byte{7}, 300) // many AES blocks
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
