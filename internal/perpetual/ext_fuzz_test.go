package perpetual

import (
	"bytes"
	"reflect"
	"testing"
)

// The decoders below run on bytes the voter did not produce: a
// membership change inside a proposed or agreed operation (validOp,
// onDeliver), and a handoff-export reply the voter is about to endorse
// (mint). Each target
// checks that the decoder never panics, that whatever it accepts
// re-encodes to bytes it decodes to the same value, and that the value
// keeps nothing of the input buffer.

// FuzzDecodeMembershipChange covers DecodeMembershipChange against
// Encode, and Validate on whatever decodes, as validOp runs it.
func FuzzDecodeMembershipChange(f *testing.F) {
	for _, mc := range []*MembershipChange{
		{Group: "t", Kind: MembershipReplace, Slot: 1, NewEpoch: 1, NewN: 4},
		{Group: "store#2", Kind: MembershipGrow, Slot: 4, NewEpoch: 3, NewN: 5},
		{Group: "t", Kind: MembershipShrink, Slot: 3, NewEpoch: 2, NewN: 3},
	} {
		f.Add(mc.Encode())
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		mc, err := DecodeMembershipChange(in)
		if err != nil {
			return
		}
		_ = mc.Validate("t", mc.NewEpoch-1, 4)
		enc := mc.Encode()
		again, err := DecodeMembershipChange(enc)
		if err != nil || *again != *mc {
			t.Fatalf("re-encoded change decodes to %+v (%v), want %+v", again, err, mc)
		}
		scribble(in)
		if !bytes.Equal(mc.Encode(), enc) {
			t.Fatal("decoded change changed when the input buffer was overwritten")
		}
	})
}

// FuzzDecodeHandoffState covers DecodeHandoffState against
// EncodeHandoffState, and the destination group name mint derives from
// a committed export.
func FuzzDecodeHandoffState(f *testing.F) {
	fr := &HandoffFrame{Phase: HandoffExport, Service: "store", OldShards: 2, NewShards: 3, OldEpoch: 1, NewEpoch: 2,
		Source: 1, Dest: 2}
	f.Add(EncodeHandoffState(fr, 42, true, []byte("k1=v1;k2=v2")))
	f.Add(EncodeHandoffState(fr, 7, false, []byte("refused")))
	f.Add(EncodeHandoffState(fr, 0, true, nil))
	f.Fuzz(func(t *testing.T, in []byte) {
		hs, ok := DecodeHandoffState(in)
		if !ok {
			return
		}
		if hs.Commit {
			_ = ShardGroupName(hs.Service, hs.Dest)
		}
		reencode := func() []byte {
			return EncodeHandoffState(&HandoffFrame{Service: hs.Service, OldShards: hs.OldShards, NewShards: hs.NewShards,
				OldEpoch: hs.OldEpoch, NewEpoch: hs.NewEpoch, Source: hs.Source, Dest: hs.Dest}, hs.Seq, hs.Commit, hs.State)
		}
		enc := reencode()
		again, ok := DecodeHandoffState(enc)
		if !ok || !reflect.DeepEqual(again, hs) {
			t.Fatalf("re-encoded state decodes to %+v (ok %v), want %+v", again, ok, hs)
		}
		scribble(in)
		if !bytes.Equal(reencode(), enc) {
			t.Fatal("decoded state changed when the input buffer was overwritten")
		}
	})
}
