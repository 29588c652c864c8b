package perpetual

import (
	"bytes"
	"testing"
)

// The handoff frame rides inside agreed requests, so a shard group
// decodes bytes some other service chose. The target checks that the
// decoder never panics, that whatever it accepts re-encodes to bytes
// that decode and re-encode to themselves, and that the decoded frame
// keeps nothing of the input buffer.

// FuzzDecodeHandoffFrame covers DecodeHandoffFrame against
// EncodeHandoffFrame, with and without an install certificate.
func FuzzDecodeHandoffFrame(f *testing.F) {
	for _, fr := range []*HandoffFrame{
		{Phase: HandoffExport, Service: "store", OldShards: 2, NewShards: 3, OldEpoch: 1, NewEpoch: 2, Source: 1, Dest: 2},
		{Phase: HandoffInstall, Service: "store", OldShards: 3, NewShards: 4, OldEpoch: 4, NewEpoch: 5, Source: 0, Dest: 3,
			Cert: fuzzBundle()},
		{Phase: HandoffDrop, Service: "store", OldShards: 2, NewShards: 2, OldEpoch: 0, NewEpoch: 1},
		{Phase: HandoffCancel, Service: "s", OldShards: 4, NewShards: 2, OldEpoch: 7, NewEpoch: 8, Source: 3, Dest: 1},
	} {
		f.Add(EncodeHandoffFrame(fr))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		fr, ok := DecodeHandoffFrame(in)
		if !ok {
			return
		}
		enc := EncodeHandoffFrame(fr)
		again, ok := DecodeHandoffFrame(enc)
		if !ok || !bytes.Equal(EncodeHandoffFrame(again), enc) {
			t.Fatalf("re-encoded frame decodes to %+v (ok %v), want %+v", again, ok, fr)
		}
		scribble(in)
		if !bytes.Equal(EncodeHandoffFrame(fr), enc) {
			t.Fatal("decoded frame changed when the input buffer was overwritten")
		}
	})
}
