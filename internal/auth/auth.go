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
// The paper's prototype used MDx-MAC; we use AES-256-CMAC (NIST SP
// 800-38B) with a 16-byte tag: the standard library provides AES, on the
// CPU's AES instructions where it has them, and a MAC over a digest
// costs three AES blocks. Every MAC covers a domain byte followed by its
// message. HMAC-SHA256 appears only in key derivation.
package auth

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
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

// MACSize is the size in bytes of a single MAC: one AES block.
const MACSize = aes.BlockSize

// Key is a pairwise symmetric key.
type Key []byte

// cmacKeyLabel is the HMAC message that turns a pairwise key into its
// AES-256 CMAC key.
const cmacKeyLabel = "perpetual-cmac-key\x00"

// macState is one pairwise key made ready for AES-CMAC (NIST SP 800-38B,
// RFC 4493): the expanded AES-256 cipher and the two subkeys, derived
// once per key by SetKey so that a MAC costs only its AES blocks.
type macState struct {
	block  cipher.Block
	k1, k2 [aes.BlockSize]byte
}

// newMACState derives the CMAC key of a pairwise key, HMAC-SHA256 of it
// under cmacKeyLabel, and expands it.
func newMACState(key Key) *macState {
	h := hmac.New(sha256.New, key)
	h.Write([]byte(cmacKeyLabel))
	return newCMAC(h.Sum(nil))
}

// newCMAC expands an AES key and derives the CMAC subkeys: K1 is
// E_K(0^128) doubled in GF(2^128), K2 is K1 doubled.
func newCMAC(aesKey []byte) *macState {
	block, err := aes.NewCipher(aesKey)
	if err != nil {
		panic(err) // unreachable: the key is a 32-byte HMAC-SHA256 sum or a test vector
	}
	st := &macState{block: block}
	block.Encrypt(st.k1[:], st.k1[:])
	double(&st.k1, &st.k1)
	double(&st.k2, &st.k1)
	return st
}

// double sets dst to src·x in GF(2^128) under the CMAC polynomial.
func double(dst, src *[aes.BlockSize]byte) {
	carry := src[0] >> 7
	for i := 0; i < aes.BlockSize-1; i++ {
		dst[i] = src[i]<<1 | src[i+1]>>7
	}
	dst[aes.BlockSize-1] = src[aes.BlockSize-1]<<1 ^ carry*0x87
}

// sum finishes the CMAC of a message into x, whose first m bytes already
// hold the message's leading bytes and whose rest is zero: every block
// but the last is chained through the cipher, and the last is masked
// with K1 when it is full, or padded and masked with K2 when not. That
// length-dependent mask is what CMAC adds to plain CBC-MAC, which is
// forgeable on messages of varying length. x is the tag buffer itself,
// so the whole MAC is computed in place in one AES block of memory.
func (st *macState) sum(x []byte, m int, msg []byte) {
	n := copy(x[m:], msg) // the first block's bytes land on zeros
	m, msg = m+n, msg[n:]
	for len(msg) > 0 { // x holds a full block that is not the last
		st.block.Encrypt(x, x)
		if m = min(len(msg), aes.BlockSize); m == aes.BlockSize {
			xorBlock(x, msg)
		} else {
			xorInto(x, msg)
		}
		msg = msg[m:]
	}
	k := &st.k1
	if m < aes.BlockSize {
		x[m] ^= 0x80
		k = &st.k2
	}
	xorBlock(x, k[:])
	st.block.Encrypt(x, x)
}

// xorBlock sets the AES block at x to x XOR y, eight bytes at a time.
func xorBlock(x, y []byte) {
	_, _ = x[aes.BlockSize-1], y[aes.BlockSize-1]
	le := binary.LittleEndian
	le.PutUint64(x, le.Uint64(x)^le.Uint64(y))
	le.PutUint64(x[8:], le.Uint64(x[8:])^le.Uint64(y[8:]))
}

// xorInto XORs y, shorter than a block, into x.
func xorInto(x, y []byte) {
	for i, b := range y {
		x[i] ^= b
	}
}

// appendMAC appends the CMAC of domain||msg to dst, computing it in the
// appended bytes so that callers assembling wire frames or authenticator
// entries sign in place.
func (st *macState) appendMAC(dst []byte, domain byte, msg []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, MACSize)...)
	dst[n] = domain
	st.sum(dst[n:], 1, msg)
	return dst
}

// tagPool holds the buffers verification computes its expected MAC in:
// a block handed to the cipher through its interface escapes, so a stack
// buffer would cost an allocation per verify.
var tagPool = sync.Pool{New: func() any { return new([MACSize]byte) }}

// verify reports, in constant time, whether mac is the MAC of domain||msg.
func (st *macState) verify(domain byte, msg, mac []byte) bool {
	x := tagPool.Get().(*[MACSize]byte)
	defer tagPool.Put(x)
	*x = [MACSize]byte{domain}
	st.sum(x[:], 1, msg)
	return subtle.ConstantTimeCompare(x[:], mac) == 1
}

// MAC domains separate the contexts a pairwise key authenticates.
// Without them, a MAC harvested in one context verifies in another
// under the same key: a transport MAC over a large payload's digest
// would double as a valid MAC for a small frame whose payload IS that
// digest, and an authenticator entry (also a MAC over a message
// digest) would double as a transport-frame MAC. Every MAC covers the
// domain byte followed by its message, so the contexts can never
// collide with each other.
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
)

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

// KeyStore holds the pairwise keys of one principal, each with its CMAC
// state derived once (see macState). It is safe for concurrent use.
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
	next.states[peer] = newMACState(key)
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
	st := ks.snap.Load().states[receiver]
	if st == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPrincipal, receiver)
	}
	return st.appendMAC(dst, domain, msg), nil
}

// VerifyDomain checks a domain-tagged MAC allegedly produced by sender,
// comparing in constant time. It retains neither msg nor mac and
// allocates nothing on success.
func (ks *KeyStore) VerifyDomain(sender NodeID, domain byte, msg, mac []byte) error {
	st := ks.snap.Load().states[sender]
	if st == nil {
		return fmt.Errorf("%w: %s", ErrUnknownPrincipal, sender)
	}
	if !st.verify(domain, msg, mac) {
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
