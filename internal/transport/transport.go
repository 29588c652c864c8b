// Package transport provides the communication substrate of Perpetual-WS.
//
// It mirrors the module decomposition of the Perpetual prototype (paper
// Section 2.1.2): the CLBFT and Perpetual Core modules abstract away
// transport, authentication, and encryption details, which are provided
// by a ChannelAdapter. The ChannelAdapter itself achieves transport
// independence by encapsulating transport-oriented details within
// Connection modules. This package supplies two Connection
// implementations: an in-process network (memnet.go) with configurable
// latency, loss, and partitions for tests and benchmarks, and a TCP
// connection (tcpnet.go) with length-prefixed framing for real
// deployments.
package transport

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"perpetualws/internal/auth"
)

// Handler consumes an authenticated inbound payload. The payload slice
// is only valid for the duration of the call (it aliases a frame buffer
// that goes back to the shared pool when the call returns, on both
// transports); handlers must copy any bytes they retain. The message
// codecs' decode paths deep-copy every retained field, so handlers that
// decode-and-dispatch satisfy this naturally.
type Handler func(from auth.NodeID, payload []byte)

// Connection moves raw frames between principals. Implementations must be
// safe for concurrent use by multiple goroutines.
type Connection interface {
	// Send delivers a frame to the principal identified by to. Send must
	// not block indefinitely on slow receivers; implementations may drop
	// frames under sustained overload (the BFT layers above tolerate and
	// recover from message loss via retransmission). The frame stays the
	// caller's, who must not mutate it after the call: tcpnet may retain
	// it until transmitted and memnet delivers a copy, and neither ever
	// recycles it, so resending the same immutable buffer is fine. (The
	// ChannelAdapter hands its pooled frames over through an unexported
	// path instead, after which memnet recycles each one when its
	// handler returns and tcpnet once it is flushed or dropped.)
	Send(to auth.NodeID, frame []byte) error
	// SetHandler installs the inbound frame handler. It must be called
	// before the first frame arrives. The frame is only valid for the
	// duration of the handler call, so handlers must copy any bytes they
	// retain: on both transports every inbound frame is a pooled buffer
	// that is recycled once the handler returns. Built with the race
	// detector, a recycled frame is overwritten (see raceEnabled), so a
	// handler that kept one reads garbage.
	SetHandler(h func(frame []byte))
	// LocalID returns the principal this connection belongs to.
	LocalID() auth.NodeID
	// Close releases the connection's resources.
	Close() error
}

// FramePartsSender is an optional Connection extension for transports
// that can transmit a frame supplied as two parts — a small
// per-receiver head and a shared body — without joining them into one
// buffer first. It is how the adapter's encode-once SendMulti reaches
// the wire: one immutable body is enqueued on every destination link
// while only the MAC-bearing heads differ, so an n-way multicast costs
// one payload copy instead of n. Ownership of the head transfers to the
// connection; the body is shared across links and must not be mutated
// by anyone after the call (links may hold it until their frame is
// flushed or dropped).
type FramePartsSender interface {
	SendFrameParts(to auth.NodeID, head, body []byte) error
}

// ownedSender is implemented by this package's connections: sendOwned
// takes ownership of a whole frame drawn from the frame pool and
// recycles it once it has been delivered (memnet, when the handler
// returns) or flushed (tcpnet), or when it is dropped.
type ownedSender interface {
	sendOwned(to auth.NodeID, frame []byte) error
}

// Errors returned by the transport layer.
var (
	ErrClosed         = errors.New("transport: connection closed")
	ErrUnknownDest    = errors.New("transport: unknown destination")
	ErrFrameTooLarge  = errors.New("transport: frame exceeds maximum size")
	ErrMalformedFrame = errors.New("transport: malformed frame")
)

// MaxFrameSize bounds a single frame (16 MiB). Larger application
// payloads must be chunked by the caller; in practice SOAP payloads are
// far smaller.
const MaxFrameSize = 16 << 20

// frame layout:
//
//	u16 fromLen | from | u16 macLen | mac | u32 payloadLen | payload
//
// The MAC is the 16-byte AES-CMAC of the auth package (macLen is always
// auth.MACSize), keyed by the (from, to) pair, so the destination
// identity does not need to appear on the wire. Payloads of at least
// digestMACThreshold bytes are MACed via their SHA-256 digest rather
// than directly, so a multicast of one large payload to n receivers
// hashes it once and computes only n constant-size MACs; below the
// threshold (the bulk of agreement control traffic) the extra digest
// pass costs more than it saves and the MAC covers the payload
// directly. Sender and receiver apply the same size rule, so the wire
// format needs no mode flag.

// digestMACThreshold is the payload size at and above which transport
// MACs cover the payload's SHA-256 digest instead of the raw payload.
// BenchmarkFrameMAC puts the crossover, where hashing once starts to
// beat MACing every AES block of the payload, at 160–176 B for a unicast
// and below 128 B for a 3-way multicast (2-vCPU Xeon with AES-NI and
// SHA extensions, go1.24). Every receiver verifies as a unicast does, so
// the threshold sits at the unicast crossover.
const digestMACThreshold = 160

// macInput returns the MAC domain and covered bytes for payload: the
// payload itself when small, its SHA-256 digest when large. The domain
// tag keeps the two frame modes — and the authenticator MACs sharing
// the same pairwise keys — from ever validating in each other's
// context (a digest-mode MAC must not verify a small frame whose
// payload is that digest). scratch avoids heap-allocating the digest.
func macInput(payload []byte, scratch *[sha256.Size]byte) (byte, []byte) {
	if len(payload) < digestMACThreshold {
		return auth.DomainFrameRaw, payload
	}
	*scratch = sha256.Sum256(payload)
	return auth.DomainFrameDigest, scratch[:]
}

func encodeFrame(from auth.NodeID, mac, payload []byte) []byte {
	return encodeFrameStr(from.String(), mac, payload)
}

// frameHeadSize is the encoded size of a frame's head (everything up to
// and including the payload length prefix) for a MAC of macLen bytes.
// It is the single size formula for the head layout; every head encoder
// (appendFrameHead, appendSignedHead) must produce exactly this many
// bytes, and decodeFrame consumes them.
func frameHeadSize(fromStr string, macLen int) int {
	return 2 + len(fromStr) + 2 + macLen + 4
}

// appendFrameHead appends a frame head to buf.
func appendFrameHead(buf []byte, fromStr string, mac []byte, payloadLen int) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(fromStr)))
	buf = append(buf, fromStr...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(mac)))
	buf = append(buf, mac...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(payloadLen))
	return buf
}

func encodeFrameStr(fromStr string, mac, payload []byte) []byte {
	buf := make([]byte, 0, frameHeadSize(fromStr, len(mac))+len(payload))
	buf = appendFrameHead(buf, fromStr, mac, len(payload))
	return append(buf, payload...)
}

func decodeFrame(buf []byte) (from auth.NodeID, mac, payload []byte, err error) {
	bad := func(what string) (auth.NodeID, []byte, []byte, error) {
		return auth.NodeID{}, nil, nil, fmt.Errorf("%w: %s", ErrMalformedFrame, what)
	}
	if len(buf) < 2 {
		return bad("short from length")
	}
	fl := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < fl {
		return bad("short from")
	}
	from, err = auth.InternNodeID(buf[:fl])
	if err != nil {
		return bad(err.Error())
	}
	buf = buf[fl:]
	if len(buf) < 2 {
		return bad("short mac length")
	}
	ml := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < ml {
		return bad("short mac")
	}
	mac = buf[:ml]
	buf = buf[ml:]
	if len(buf) < 4 {
		return bad("short payload length")
	}
	pl := int(binary.BigEndian.Uint32(buf))
	buf = buf[4:]
	if pl > MaxFrameSize {
		return auth.NodeID{}, nil, nil, ErrFrameTooLarge
	}
	if len(buf) != pl {
		return bad("payload length mismatch")
	}
	return from, mac, buf, nil
}

// ChannelAdapter authenticates all traffic through a Connection with
// point-to-point MACs. It is the seam between the BFT protocol layers and
// the transport: protocol modules hand it destination + payload and
// receive verified (from, payload) pairs back.
type ChannelAdapter struct {
	ks      *auth.KeyStore
	conn    Connection
	selfStr string // cached ks.Self().String(), written into every frame
	// owned is conn's ownedSender when it has one (memnet and tcpnet
	// do): whole frames then go back to the pool once delivered instead
	// of to the garbage collector.
	owned ownedSender
	// parts is conn's FramePartsSender when it has one (tcpnet): a
	// multicast then shares one body across links instead of copying
	// the payload into every receiver's frame.
	parts FramePartsSender

	// selfKS authenticates loopback frames. Principals share no pairwise
	// key with themselves, but the frame's "from" field is
	// attacker-controlled: without a MAC, any peer could claim to be the
	// receiver itself and bypass verification entirely. Its one key is
	// random per adapter and never leaves the process, so only frames
	// this adapter sent to itself can carry a valid self-MAC. Being a
	// KeyStore, it signs in place and verifies without allocating, like
	// ks.
	selfKS *auth.KeyStore

	// Stats counters are updated atomically via the methods below; they
	// are advisory (used by tests and the benchmark harness).
	stats Stats
}

// NewChannelAdapter wraps conn with MAC authentication using ks. The
// adapter installs itself as conn's handler; the caller must then call
// SetHandler to receive verified payloads.
func NewChannelAdapter(ks *auth.KeyStore, conn Connection) *ChannelAdapter {
	selfKey := make([]byte, 32)
	_, _ = rand.Read(selfKey) // never fails (crypto/rand)
	self := ks.Self()
	selfKS := auth.NewKeyStore(self)
	selfKS.SetKey(self, selfKey)
	ca := &ChannelAdapter{ks: ks, conn: conn, selfStr: self.String(), selfKS: selfKS}
	ca.owned, _ = conn.(ownedSender)
	ca.parts, _ = conn.(FramePartsSender)
	return ca
}

// keysFor returns the key store that MACs frames exchanged with peer:
// the loopback store for the adapter's own principal, ks for everyone
// else.
func (ca *ChannelAdapter) keysFor(peer auth.NodeID) *auth.KeyStore {
	if peer == ca.ks.Self() {
		return ca.selfKS
	}
	return ca.ks
}

// LocalID returns the identity of the adapter's owner.
func (ca *ChannelAdapter) LocalID() auth.NodeID { return ca.conn.LocalID() }

// Send MACs payload for the destination and transmits it. The payload's
// stats class is its leading byte (see ClassOf).
func (ca *ChannelAdapter) Send(to auth.NodeID, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	var scratch [sha256.Size]byte
	domain, input := macInput(payload, &scratch)
	head, err := ca.appendSignedHead(ca.newFrameBuf(len(payload)), to, domain, input, len(payload))
	if err != nil {
		return err
	}
	return ca.sendSigned(to, head, payload, nil)
}

// newFrameBuf returns an empty pooled buffer with room for a frame head
// and payloadLen payload bytes. A connection without ownedSender never
// returns it to the pool; the garbage collector then takes it.
func (ca *ChannelAdapter) newFrameBuf(payloadLen int) []byte {
	return getFrameBuf(frameHeadSize(ca.selfStr, auth.MACSize) + payloadLen)[:0]
}

// appendSignedHead appends a frame head for to, computing the MAC in
// place (every MAC this adapter produces is MACSize bytes). It must
// mirror appendFrameHead's layout exactly — the in-place signing is
// why it cannot simply call it.
func (ca *ChannelAdapter) appendSignedHead(buf []byte, to auth.NodeID, domain byte, input []byte, payloadLen int) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(ca.selfStr)))
	buf = append(buf, ca.selfStr...)
	buf = binary.BigEndian.AppendUint16(buf, auth.MACSize)
	signed, err := ca.keysFor(to).AppendSignDomain(buf, to, domain, input)
	if err != nil {
		putFrameBuf(buf) // the signer returns nil on error; reclaim the original
		return nil, fmt.Errorf("transport: signing for %s: %w", to, err)
	}
	return binary.BigEndian.AppendUint32(signed, uint32(payloadLen)), nil
}

// sendSigned transmits one receiver's signed head: in front of the
// shared body when there is one, otherwise with the payload appended as
// a whole frame, which the connection recycles when it can.
func (ca *ChannelAdapter) sendSigned(to auth.NodeID, head, payload, body []byte) error {
	ca.stats.addSent(len(payload), ClassOf(payload))
	switch {
	case body != nil:
		return ca.parts.SendFrameParts(to, head, body)
	case ca.owned != nil:
		return ca.owned.sendOwned(to, append(head, payload...))
	default:
		return ca.conn.Send(to, append(head, payload...))
	}
}

// SendMulti transmits one payload to several destinations, serializing
// it exactly once: the payload is encoded and (when large) hashed a
// single time, and only the pairwise MAC differs per receiver. This is
// the encode-once seam the CLBFT broadcast, reply-share fan-out, and
// request retransmission paths sit on. The first error is returned
// after all destinations were attempted (BFT fan-outs must not starve
// later receivers because an earlier link failed). Each frame's stats
// class is the payload's leading byte, as for Send.
func (ca *ChannelAdapter) SendMulti(tos []auth.NodeID, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}

	// Over a parts-capable connection (TCP), copy the payload into one
	// shared immutable body all links reference; each receiver gets only
	// its own small MAC-bearing head. Callers may reuse the payload
	// buffer the moment this returns (pooled writers do), which is why
	// the single defensive copy is needed — it replaces the n
	// per-receiver frame copies of the fallback path.
	var body []byte
	room := len(payload) // payload bytes each receiver's frame carries
	if ca.parts != nil && len(tos) > 1 {
		body = make([]byte, len(payload))
		copy(body, payload)
		room = 0
	}

	// A wide fan-out on a multi-core box signs the per-receiver MACs in
	// parallel: each head is independent (the key store is read-only on
	// this path and large payloads are reduced to one shared digest).
	// Sends stay serial — enqueueing is cheap and keeps per-link frame
	// order deterministic. Narrow fan-outs and single-core runs keep the
	// allocation-free serial loop.
	if len(tos) >= parallelMACFanout && runtime.GOMAXPROCS(0) > 1 {
		return ca.sendMultiParallel(tos, payload, body, room)
	}
	var scratch [sha256.Size]byte
	domain, input := macInput(payload, &scratch) // hash large payloads once for all receivers
	var firstErr error
	for _, to := range tos {
		head, err := ca.appendSignedHead(ca.newFrameBuf(room), to, domain, input, len(payload))
		if err == nil {
			err = ca.sendSigned(to, head, payload, body)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// parallelMACFanout is the receiver count at and above which
// SendMulti signs per-receiver MACs concurrently. Below it the
// goroutine switch costs more than the MACs.
const parallelMACFanout = 4

// sendMultiParallel is SendMulti's wide-fan-out arm: heads are
// signed concurrently, then sent serially in receiver order. It hashes
// the payload itself, so that the serial arm's digest scratch never
// escapes to the signing goroutines.
func (ca *ChannelAdapter) sendMultiParallel(tos []auth.NodeID, payload []byte, body []byte, room int) error {
	var scratch [sha256.Size]byte
	domain, input := macInput(payload, &scratch)
	heads := make([][]byte, len(tos))
	errs := make([]error, len(tos))
	var wg sync.WaitGroup
	wg.Add(len(tos))
	for i := range tos {
		go func(i int) {
			defer wg.Done()
			heads[i], errs[i] = ca.appendSignedHead(ca.newFrameBuf(room), tos[i], domain, input, len(payload))
		}(i)
	}
	wg.Wait()

	var firstErr error
	for i, to := range tos {
		err := errs[i]
		if err == nil {
			err = ca.sendSigned(to, heads[i], payload, body)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SetHandler installs the verified-payload handler. Frames that fail MAC
// verification or arrive from unknown principals are counted and dropped;
// a Byzantine sender must not be able to crash or wedge the receiver.
func (ca *ChannelAdapter) SetHandler(h Handler) {
	ca.conn.SetHandler(func(frame []byte) {
		from, mac, payload, err := decodeFrame(frame)
		if err != nil {
			ca.stats.addRejected()
			return
		}
		var scratch [sha256.Size]byte
		domain, input := macInput(payload, &scratch)
		// A frame claiming to be from this very principal must carry the
		// process-local self-MAC (keysFor); otherwise any peer could forge
		// "self" traffic past verification.
		if err := ca.keysFor(from).VerifyDomain(from, domain, input, mac); err != nil {
			ca.stats.addRejected()
			return
		}
		ca.stats.addReceived(len(payload), ClassOf(payload))
		h(from, payload)
	})
}

// Close closes the underlying connection.
func (ca *ChannelAdapter) Close() error { return ca.conn.Close() }

// Stats returns a snapshot of the adapter's traffic counters.
func (ca *ChannelAdapter) Stats() StatsSnapshot { return ca.stats.snapshot() }
