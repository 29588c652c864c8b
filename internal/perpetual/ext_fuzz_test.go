package perpetual

import (
	"bytes"
	"testing"
)

// The decoder below runs on bytes the voter did not produce: a
// membership change inside a proposed or agreed operation (validOp,
// onDeliver). The target checks that the decoder never panics, that
// whatever it accepts re-encodes to bytes it decodes to the same value,
// and that the value keeps nothing of the input buffer.

// FuzzDecodeMembershipChange covers DecodeMembershipChange against
// Encode, and Validate on whatever decodes, as validOp runs it.
func FuzzDecodeMembershipChange(f *testing.F) {
	for _, mc := range []*MembershipChange{
		{Group: "t", Slot: 1, NewEpoch: 1},
		{Group: "store#2", Slot: 3, NewEpoch: 3},
		{Group: "t", Slot: 9, NewEpoch: 2},
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
