// Package auth provides message authentication for Perpetual-WS.
//
// Following the paper (Section 2.1.2 and Section 3, "Cryptographic
// overhead"), all communication is authenticated with point-to-point
// message authentication codes (MACs) rather than digital signatures:
// MAC computation is roughly three orders of magnitude cheaper, which is
// what lets the middleware scale to large replica groups. A message sent
// to several receivers carries an Authenticator: a vector with one MAC
// per receiver, each computed under the pairwise symmetric key shared by
// the sender and that receiver.
//
// The paper's prototype used MDx-MAC; we use HMAC-SHA256, which is in the
// same cost class and available in the Go standard library.
package auth

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Role distinguishes the two halves of a Perpetual replica plus external
// clients. Voters and drivers form two distinct replica groups (paper
// Section 2.1.1), so they are addressed separately even though the voter
// and driver of a given replica are co-located on one host.
type Role uint8

// Roles of protocol principals.
const (
	RoleVoter Role = iota + 1
	RoleDriver
	RoleClient
)

// String returns the short wire name of the role.
func (r Role) String() string {
	switch r {
	case RoleVoter:
		return "voter"
	case RoleDriver:
		return "driver"
	case RoleClient:
		return "client"
	default:
		return "role(" + strconv.Itoa(int(r)) + ")"
	}
}

// ParseRole converts the short wire name of a role back to a Role.
func ParseRole(s string) (Role, error) {
	switch s {
	case "voter":
		return RoleVoter, nil
	case "driver":
		return RoleDriver, nil
	case "client":
		return RoleClient, nil
	default:
		return 0, fmt.Errorf("auth: unknown role %q", s)
	}
}

// NodeID identifies a protocol principal: replica Index of the given Role
// within the replica group of the named service.
type NodeID struct {
	Service string
	Role    Role
	Index   int
}

// VoterID returns the NodeID of voter i of service svc.
func VoterID(svc string, i int) NodeID { return NodeID{Service: svc, Role: RoleVoter, Index: i} }

// DriverID returns the NodeID of driver i of service svc.
func DriverID(svc string, i int) NodeID { return NodeID{Service: svc, Role: RoleDriver, Index: i} }

// String renders the NodeID in "service/role/index" form.
func (id NodeID) String() string {
	return id.Service + "/" + id.Role.String() + "/" + strconv.Itoa(id.Index)
}

// AppendTo appends the "service/role/index" form to dst: String for
// encoders that write the id into a buffer they already hold.
func (id NodeID) AppendTo(dst []byte) []byte {
	dst = append(dst, id.Service...)
	dst = append(dst, '/')
	dst = append(dst, id.Role.String()...)
	dst = append(dst, '/')
	return strconv.AppendInt(dst, int64(id.Index), 10)
}

// ParseNodeID parses the "service/role/index" form produced by String.
// Frame decoding reaches it on every intern miss (a frame's sender, an
// authenticator's signer), so it avoids the allocations of strings.Split.
func ParseNodeID(s string) (NodeID, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return NodeID{}, fmt.Errorf("auth: malformed node id %q", s)
	}
	j := strings.IndexByte(s[i+1:], '/')
	if j < 0 {
		return NodeID{}, fmt.Errorf("auth: malformed node id %q", s)
	}
	j += i + 1
	if strings.IndexByte(s[j+1:], '/') >= 0 {
		return NodeID{}, fmt.Errorf("auth: malformed node id %q", s)
	}
	role, err := ParseRole(s[i+1 : j])
	if err != nil {
		return NodeID{}, err
	}
	idx, err := strconv.Atoi(s[j+1:])
	if err != nil {
		return NodeID{}, fmt.Errorf("auth: malformed node index in %q: %w", s, err)
	}
	return NodeID{Service: s[:i], Role: role, Index: idx}, nil
}

// NodeID interning: the wire carries node ids as strings, and the hot
// paths (frame senders, authenticator signers) parse the same handful
// of principals over and over. A bounded cache maps the wire bytes to
// their parsed NodeID without allocating on hits. The wire bytes are
// unauthenticated at intern time (frame decoding runs before MAC
// verification), so the cache bounds both the entry count and the
// per-entry size: a peer spraying fabricated ids can pin at most
// internLimit × internMaxIDLen bytes, and oversized ids are parsed
// without ever touching the cache. Legitimate deployments have orders
// of magnitude fewer, far shorter principals.
const (
	internLimit    = 4096
	internMaxIDLen = 256
)

// The intern cache is copy-on-write: readers load an immutable map via
// one atomic (no lock on the per-frame hot path — RWMutex read locking
// was measurable there), writers clone under the mutex. The principal
// set stabilizes after bring-up, so clones are rare.
var (
	internMu sync.Mutex // serializes writers
	interned atomic.Pointer[map[string]NodeID]
)

// InternNodeID parses the "service/role/index" wire form from raw
// bytes, serving repeat principals from a cache without allocation.
func InternNodeID(b []byte) (NodeID, error) {
	if m := interned.Load(); m != nil {
		if id, ok := (*m)[string(b)]; ok { // compiler avoids the conversion alloc
			return id, nil
		}
	}
	s := string(b)
	id, err := ParseNodeID(s)
	if err != nil {
		return NodeID{}, err
	}
	if len(s) <= internMaxIDLen {
		internMu.Lock()
		cur := interned.Load()
		if cur == nil || len(*cur) < internLimit {
			next := make(map[string]NodeID, 16)
			if cur != nil {
				for k, v := range *cur {
					next[k] = v
				}
			}
			next[s] = id
			interned.Store(&next)
		}
		internMu.Unlock()
	}
	return id, nil
}

// Less orders NodeIDs lexicographically; used to derive pairwise keys
// symmetrically regardless of direction.
func (id NodeID) Less(other NodeID) bool {
	if id.Service != other.Service {
		return id.Service < other.Service
	}
	if id.Role != other.Role {
		return id.Role < other.Role
	}
	return id.Index < other.Index
}

// MACSize is the size in bytes of a single MAC.
const MACSize = sha256.Size

// Key is a pairwise symmetric key.
type Key []byte

// MAC computes the HMAC-SHA256 of msg under key.
func MAC(key Key, msg []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(msg)
	return m.Sum(nil)
}

// macState holds the serialized SHA-256 states of an HMAC key's inner
// and outer pads, precomputed once per pairwise key — one inner state
// per MAC domain (the domain byte is absorbed into the precomputed
// state, so domain-tagged MACs cost no extra hashing or allocation at
// MAC time). Resuming from these states skips the two key-schedule
// compressions and the pad buffers hmac.New pays on every call — the
// dominant crypto cost on the hot path, where every protocol message is
// MACed per receiver. The output is bit-identical to crypto/hmac's
// HMAC-SHA256 (of domain||msg for tagged domains).
type macState struct {
	inner [numDomains][]byte // indexed by domain; 0 = untagged
	outer []byte
}

// newMACState precomputes the pad states for key.
func newMACState(key Key) macState {
	k := []byte(key)
	if len(k) > sha256.BlockSize {
		d := sha256.Sum256(k)
		k = d[:]
	}
	var pad [sha256.BlockSize]byte
	absorb := func(b byte, extra ...byte) []byte {
		for i := range pad {
			pad[i] = b
		}
		for i, kb := range k {
			pad[i] ^= kb
		}
		h := sha256.New()
		h.Write(pad[:])
		h.Write(extra)
		st, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			return nil
		}
		return st
	}
	var st macState
	st.outer = absorb(0x5c)
	st.inner[0] = absorb(0x36)
	for d := byte(1); d < numDomains; d++ {
		st.inner[d] = absorb(0x36, d)
	}
	return st
}

// macHasher is a SHA-256 digest together with the buffers one HMAC
// needs, pooled as a unit. Arguments to hash.Hash methods escape (the
// calls go through an interface), so a caller's stack buffer handed to
// Write or Sum moves to the heap; staging the input through in and
// writing both sums into out keeps every such argument inside this
// already-heap object, and a MAC allocates nothing.
type macHasher struct {
	h   hash.Hash
	u   encoding.BinaryUnmarshaler
	in  [256]byte         // input staging; covers a digest or a raw-mode frame in one Write
	out [sha256.Size]byte // inner sum, then the MAC
}

var macHasherPool = sync.Pool{New: func() any {
	h := sha256.New()
	u, _ := h.(encoding.BinaryUnmarshaler) // nil only if macState.valid() is false everywhere
	return &macHasher{h: h, u: u}
}}

// MAC domains separate the contexts a pairwise key authenticates.
// Without them, a MAC harvested in one context verifies in another
// under the same key: a transport MAC over a large payload's digest
// would double as a valid MAC for a small frame whose payload IS that
// digest, and an authenticator entry (also a MAC over a message
// digest) would double as a transport-frame MAC. Every domain-tagged
// MAC covers the domain byte followed by its message, so the contexts
// can never collide with each other (or with legacy domainless MACs,
// which remain plain HMAC over the message alone).
const (
	// DomainFrameRaw authenticates a transport frame by its raw
	// payload (payloads below the digest-MAC threshold).
	DomainFrameRaw byte = 0x01
	// DomainFrameDigest authenticates a transport frame by its
	// payload's SHA-256 digest (payloads at/above the threshold).
	DomainFrameDigest byte = 0x02
	// domainAuthenticator authenticates an Authenticator entry by the
	// message's SHA-256 digest.
	domainAuthenticator byte = 0x03

	// numDomains bounds the domain space (0 = untagged legacy MACs).
	numDomains = 4
)

// sum computes HMAC-SHA256 over domain||msg into m.out by resuming the
// precomputed pad states. A zero domain reproduces plain HMAC(msg).
func (st *macState) sum(m *macHasher, domain byte, msg []byte) bool {
	if domain >= numDomains || m.u == nil || m.u.UnmarshalBinary(st.inner[domain]) != nil {
		return false
	}
	for len(msg) > 0 {
		n := copy(m.in[:], msg)
		m.h.Write(m.in[:n])
		msg = msg[n:]
	}
	m.h.Sum(m.out[:0])
	if m.u.UnmarshalBinary(st.outer) != nil {
		return false
	}
	m.h.Write(m.out[:])
	m.h.Sum(m.out[:0])
	return true
}

// appendMAC appends the MAC of domain||msg to dst, so callers
// assembling wire frames or authenticator entries write it in place.
// It returns nil if the MAC cannot be computed.
func (st *macState) appendMAC(dst []byte, domain byte, msg []byte) []byte {
	m := macHasherPool.Get().(*macHasher)
	defer macHasherPool.Put(m)
	if !st.sum(m, domain, msg) {
		return nil
	}
	return append(dst, m.out[:]...)
}

// verify reports, in constant time, whether mac is the MAC of
// domain||msg; ok is false if the MAC cannot be computed.
func (st *macState) verify(domain byte, msg, mac []byte) (equal, ok bool) {
	m := macHasherPool.Get().(*macHasher)
	defer macHasherPool.Put(m)
	if !st.sum(m, domain, msg) {
		return false, false
	}
	return hmac.Equal(m.out[:], mac), true
}

// valid reports whether precomputation succeeded (it can only fail if
// the hash implementation stops supporting state marshaling).
func (st *macState) valid() bool { return st.inner[0] != nil && st.outer != nil }

// VerifyMAC reports whether mac is a valid MAC for msg under key, in
// constant time.
func VerifyMAC(key Key, msg, mac []byte) bool {
	return hmac.Equal(MAC(key, msg), mac)
}

// DeriveKey derives the pairwise key between principals a and b from a
// shared deployment master secret. The derivation is symmetric in (a, b)
// so that both endpoints compute the same key. Real deployments would
// provision pairwise keys out of band (e.g., during TLS session setup as
// in the prototype); key derivation from a master secret models that
// provisioning step for tests and in-process clusters.
func DeriveKey(master []byte, a, b NodeID) Key {
	lo, hi := a, b
	if hi.Less(lo) {
		lo, hi = hi, lo
	}
	h := hmac.New(sha256.New, master)
	h.Write([]byte("perpetual-pairwise-key\x00"))
	h.Write([]byte(lo.String()))
	h.Write([]byte{0})
	h.Write([]byte(hi.String()))
	return Key(h.Sum(nil))
}

// DeriveEpochKey derives the pairwise key between group members a and b
// for one membership epoch. Epoch 0 reproduces DeriveKey exactly, so
// deployments that never change membership keep their original keys;
// every later epoch mixes the epoch number into the derivation context,
// which is how membership installs rotate a voter group's internal MAC
// keys: members re-provision at the new epoch, while a removed or
// replaced incarnation keeps only the old-epoch keys and every MAC it
// produces afterwards fails verification at the survivors.
func DeriveEpochKey(master []byte, epoch uint64, a, b NodeID) Key {
	if epoch == 0 {
		return DeriveKey(master, a, b)
	}
	lo, hi := a, b
	if hi.Less(lo) {
		lo, hi = hi, lo
	}
	var eb [8]byte
	for i := 0; i < 8; i++ {
		eb[i] = byte(epoch >> (8 * i))
	}
	h := hmac.New(sha256.New, master)
	h.Write([]byte("perpetual-epoch-key\x00"))
	h.Write(eb[:])
	h.Write([]byte{0})
	h.Write([]byte(lo.String()))
	h.Write([]byte{0})
	h.Write([]byte(hi.String()))
	return Key(h.Sum(nil))
}

// Errors returned by KeyStore and Authenticator verification.
var (
	ErrUnknownPrincipal = errors.New("auth: no key for principal")
	ErrBadMAC           = errors.New("auth: MAC verification failed")
	ErrNoEntry          = errors.New("auth: authenticator has no entry for receiver")
)

// KeyStore holds the pairwise keys of one principal, with the HMAC pad
// states of each key precomputed (see macState). It is safe for
// concurrent use.
//
// Like the intern cache above, the key table is copy-on-write: every
// frame signed or verified reads it, and concurrent MAC computations
// (the adapter's parallel multicast signing) must not serialize on a
// shared read lock. Readers load an immutable snapshot via one atomic;
// SetKey clones under the mutex. Keys change only at bring-up and
// membership provisioning, so clones are rare.
type KeyStore struct {
	self   NodeID
	selfID []byte // self's canonical wire id: the receiver id its vector entries carry

	mu   sync.Mutex // serializes SetKey; readers never take it
	snap atomic.Pointer[keyStoreState]
}

// keyStoreState is one immutable key-table snapshot.
type keyStoreState struct {
	keys   map[NodeID]Key
	states map[NodeID]*macState
	gen    uint64 // SetKey calls that led to this snapshot
}

// NewKeyStore creates an empty key store for principal self.
func NewKeyStore(self NodeID) *KeyStore {
	ks := &KeyStore{self: self, selfID: self.AppendTo(nil)}
	ks.snap.Store(&keyStoreState{
		keys:   make(map[NodeID]Key),
		states: make(map[NodeID]*macState),
	})
	return ks
}

// NewDerivedKeyStore creates a key store for self with pairwise keys,
// derived from master, for every peer in peers.
func NewDerivedKeyStore(master []byte, self NodeID, peers []NodeID) *KeyStore {
	ks := NewKeyStore(self)
	for _, p := range peers {
		if p == self {
			continue
		}
		ks.SetKey(p, DeriveKey(master, self, p))
	}
	return ks
}

// Self returns the identity of the key store's owner.
func (ks *KeyStore) Self() NodeID { return ks.self }

// SetKey installs the pairwise key shared with peer.
func (ks *KeyStore) SetKey(peer NodeID, key Key) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	cur := ks.snap.Load()
	next := &keyStoreState{
		keys:   make(map[NodeID]Key, len(cur.keys)+1),
		states: make(map[NodeID]*macState, len(cur.states)+1),
		gen:    cur.gen + 1,
	}
	for k, v := range cur.keys {
		next.keys[k] = v
	}
	for k, v := range cur.states {
		next.states[k] = v
	}
	next.keys[peer] = key
	st := newMACState(key)
	next.states[peer] = &st
	ks.snap.Store(next)
}

// Generation counts the SetKey calls so far. A verification outcome is
// only as current as the generation read before it was reached: callers
// that cache outcomes compare generations to notice a key rotation.
func (ks *KeyStore) Generation() uint64 { return ks.snap.Load().gen }

// Key returns the pairwise key shared with peer.
func (ks *KeyStore) Key(peer NodeID) (Key, error) {
	k, ok := ks.snap.Load().keys[peer]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPrincipal, peer)
	}
	return k, nil
}

// Peers returns the sorted list of principals the store has keys for.
func (ks *KeyStore) Peers() []NodeID {
	st := ks.snap.Load()
	out := make([]NodeID, 0, len(st.keys))
	for p := range st.keys {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Sign computes the MAC of msg for a single receiver (no domain tag).
func (ks *KeyStore) Sign(receiver NodeID, msg []byte) ([]byte, error) {
	return ks.SignDomain(receiver, 0, msg)
}

// SignDomain computes the MAC of domain||msg for a single receiver
// (see the Domain constants for why contexts are separated).
func (ks *KeyStore) SignDomain(receiver NodeID, domain byte, msg []byte) ([]byte, error) {
	return ks.AppendSignDomain(nil, receiver, domain, msg)
}

// AppendSignDomain is SignDomain appending the MAC to dst, letting
// frame encoders write signatures in place (always MACSize bytes).
// Neither dst nor msg is retained, and signing into a buffer with room
// allocates nothing.
func (ks *KeyStore) AppendSignDomain(dst []byte, receiver NodeID, domain byte, msg []byte) ([]byte, error) {
	if st := ks.snap.Load().states[receiver]; st != nil && st.valid() {
		if m := st.appendMAC(dst, domain, msg); m != nil {
			return m, nil
		}
	}
	k, err := ks.Key(receiver)
	if err != nil {
		return nil, err
	}
	return append(dst, slowMAC(k, domain, msg)...), nil
}

// slowMAC is crypto/hmac's HMAC-SHA256 of domain||msg (plain msg for
// domain 0): what the pad-state fast path reproduces, and the fallback
// should the hash ever stop marshaling its state. It hashes a copy so
// that msg does not escape through the hash interface on this cold path
// and cost every fast-path caller a heap-allocated message.
func slowMAC(k Key, domain byte, msg []byte) []byte {
	m := hmac.New(sha256.New, k)
	if domain != 0 {
		m.Write([]byte{domain})
	}
	m.Write(append([]byte(nil), msg...))
	return m.Sum(nil)
}

// Verify checks a single MAC allegedly produced by sender over msg.
func (ks *KeyStore) Verify(sender NodeID, msg, mac []byte) error {
	return ks.VerifyDomain(sender, 0, msg, mac)
}

// VerifyDomain checks a domain-tagged MAC allegedly produced by sender,
// comparing in constant time. It retains neither msg nor mac and
// allocates nothing on success.
func (ks *KeyStore) VerifyDomain(sender NodeID, domain byte, msg, mac []byte) error {
	equal, ok := false, false
	if st := ks.snap.Load().states[sender]; st != nil && st.valid() {
		equal, ok = st.verify(domain, msg, mac)
	}
	if !ok {
		k, err := ks.Key(sender)
		if err != nil {
			return err
		}
		equal = hmac.Equal(slowMAC(k, domain, msg), mac)
	}
	if !equal {
		return fmt.Errorf("%w: from %s", ErrBadMAC, sender)
	}
	return nil
}

// Authenticator is a vector of MACs, one per intended receiver, as used
// by PBFT-style protocols that authenticate multicast messages with
// pairwise MACs. A receiver can verify only its own entry; entries for
// other receivers are opaque to it. So the vector stays in its wire form
// from signer to verifier: nothing parses the entries a principal cannot
// check, and each receiver scans for its own in place.
//
// Vector is that wire form: a uvarint entry count, then per entry the
// receiver's id and its MAC, each a uvarint length followed by the bytes
// (see VectorLen). A nil Vector has no entries.
type Authenticator struct {
	Sender NodeID
	Vector []byte
}

// minEntryWire is the least one vector entry occupies: an empty
// receiver id, then a length-prefixed MAC.
const minEntryWire = 1 + 1 + MACSize

var (
	errVector    = errors.New("auth: malformed MAC vector")
	errMACLength = errors.New("auth: MAC vector entry of the wrong length")
)

// uvarintLen is the length of the minimal uvarint encoding of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// VectorLen validates the MAC vector at the front of b and returns its
// length in bytes. The entry count is bounded by what b can hold before
// anything trusts it; a truncated field, a MAC that is not MACSize bytes,
// and a count or length not in minimal uvarint form are errors, so an
// accepted vector has exactly one encoding. A receiver id is not parsed:
// one that names no principal simply never matches.
func VectorLen(b []byte) (int, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || k != uvarintLen(n) || n > uint64(len(b)-k)/minEntryWire {
		return 0, errVector
	}
	rest := b[k:]
	for ; n > 0; n-- {
		var mac []byte
		var ok bool
		if _, rest, ok = cutField(rest); ok {
			mac, rest, ok = cutField(rest)
		}
		if !ok {
			return 0, errVector
		}
		if len(mac) != MACSize {
			return 0, errMACLength
		}
	}
	return len(b) - len(rest), nil
}

// NewAuthenticator computes an authenticator over msg for the given
// receivers using the sender's key store. Receivers equal to the sender
// are skipped (a principal trusts itself).
//
// The message is hashed exactly once: each receiver's entry is a MAC
// over the shared SHA-256 digest, not over the raw message, so building
// an authenticator for n receivers costs one long hash plus n
// constant-size MACs instead of n long hashes (the vector-of-MACs
// optimization the paper's cryptographic-overhead argument rests on).
// VerifyFor recomputes the same digest, so the two sides agree. The
// vector is sized exactly and each MAC is signed in place into it: the
// vector is the only allocation.
func NewAuthenticator(ks *KeyStore, msg []byte, receivers []NodeID) (Authenticator, error) {
	self := ks.Self()
	var id [64]byte // node ids are rendered here, not into a string each
	n, size := 0, 0
	for _, r := range receivers {
		if r != self {
			l := len(r.AppendTo(id[:0]))
			n, size = n+1, size+uvarintLen(uint64(l))+l+1+MACSize
		}
	}
	vec := make([]byte, 0, uvarintLen(uint64(n))+size)
	vec = binary.AppendUvarint(vec, uint64(n))
	digest := sha256.Sum256(msg)
	for _, r := range receivers {
		if r == self {
			continue
		}
		rid := r.AppendTo(id[:0])
		vec = binary.AppendUvarint(vec, uint64(len(rid)))
		vec = append(vec, rid...)
		vec = append(vec, MACSize)
		var err error
		if vec, err = ks.AppendSignDomain(vec, r, domainAuthenticator, digest[:]); err != nil {
			return Authenticator{}, err
		}
	}
	return Authenticator{Sender: self, Vector: vec}, nil
}

// Len returns the number of entries in the vector.
func (a Authenticator) Len() int {
	n, k := binary.Uvarint(a.Vector)
	if k <= 0 {
		return 0
	}
	return int(n)
}

// EntryFor returns the MAC entry destined for the given receiver,
// aliasing the vector. An entry matches only under the receiver's
// canonical id, the bytes NodeID.AppendTo renders: correct signers write
// nothing else, so "svc/voter/01" or "svc/voter/+1" never names voter 1.
func (a Authenticator) EntryFor(receiver NodeID) ([]byte, bool) {
	var id [64]byte
	return a.entryFor(receiver.AppendTo(id[:0]))
}

// entryFor scans the vector for the entry whose receiver id is want. It
// checks every bound itself, so a vector nobody validated is safe too.
func (a Authenticator) entryFor(want []byte) ([]byte, bool) {
	n, off := binary.Uvarint(a.Vector)
	if off <= 0 {
		return nil, false
	}
	rest := a.Vector[off:]
	for ; n > 0; n-- {
		var id, mac []byte
		var ok bool
		if id, rest, ok = cutField(rest); !ok {
			return nil, false
		}
		if mac, rest, ok = cutField(rest); !ok {
			return nil, false
		}
		if len(mac) == MACSize && bytes.Equal(id, want) {
			return mac, true
		}
	}
	return nil, false
}

// cutField splits a field, a minimal uvarint length and that many bytes,
// off the front of b. The field is capped, so that an append to it cannot
// write over what follows.
func cutField(b []byte) (field, rest []byte, ok bool) {
	l, k := binary.Uvarint(b)
	if k <= 0 || k != uvarintLen(l) || l > uint64(len(b)-k) {
		return nil, nil, false
	}
	end := k + int(l)
	return b[k:end:end], b[end:], true
}

// VerifyFor checks the authenticator entry destined for the owner of ks.
// The message is accepted if the entry's MAC — computed over the
// message's SHA-256 digest, matching NewAuthenticator — verifies under
// the pairwise key shared with the authenticator's sender.
func (a Authenticator) VerifyFor(ks *KeyStore, msg []byte) error {
	return a.VerifyDigestFor(ks, sha256.Sum256(msg))
}

// VerifyDigestFor is VerifyFor given the message's SHA-256 digest, for
// callers that check several authenticators over one message and hash
// it once.
func (a Authenticator) VerifyDigestFor(ks *KeyStore, digest [sha256.Size]byte) error {
	if a.Sender == ks.Self() {
		return nil // self-addressed messages are implicitly trusted
	}
	mac, ok := a.entryFor(ks.selfID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoEntry, ks.Self())
	}
	return ks.VerifyDomain(a.Sender, domainAuthenticator, digest[:], mac)
}
