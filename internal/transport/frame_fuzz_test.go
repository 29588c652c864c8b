package transport

import (
	"bytes"
	"testing"

	"perpetualws/internal/auth"
)

// FuzzDecodeFrame feeds arbitrary bytes to decodeFrame, the first
// decoder every untrusted byte reaches, before any MAC is checked. It
// must never panic, and a frame it accepts must re-encode to one that
// decodes to the same parts. Byte identity is not the property: the
// sender's index parses leniently ("01", "+1"), and re-encoding writes
// its canonical form.
func FuzzDecodeFrame(f *testing.F) {
	mac := bytes.Repeat([]byte{0xAB}, auth.MACSize)
	f.Add(encodeFrame(auth.VoterID("svc", 3), mac, []byte("payload bytes")))
	f.Add(encodeFrame(auth.DriverID("c", 0), nil, nil))
	f.Add(encodeFrame(auth.NodeID{Service: "client", Role: auth.RoleClient, Index: 12}, mac[:4], bytes.Repeat([]byte{7}, 300)))
	f.Add(encodeFrameStr("svc/voter/01", mac, []byte("x")))
	f.Add([]byte{0, 3, 'a', '/', 'b'})
	f.Fuzz(func(t *testing.T, frame []byte) {
		from, mac, payload, err := decodeFrame(frame)
		if err != nil {
			return
		}
		from2, mac2, payload2, err := decodeFrame(encodeFrame(from, mac, payload))
		if err != nil {
			t.Fatalf("re-encoded frame from %v rejected: %v", from, err)
		}
		if from2 != from || !bytes.Equal(mac2, mac) || !bytes.Equal(payload2, payload) {
			t.Fatalf("re-encoded frame decodes to %v/%x/%x, want %v/%x/%x", from2, mac2, payload2, from, mac, payload)
		}
	})
}
