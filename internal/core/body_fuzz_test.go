package core

import (
	"bytes"
	"reflect"
	"testing"

	"perpetualws/internal/perpetual"
)

// The handoff body reaches the application as the body of a synthesized
// request, and applications probe arbitrary request bodies with its
// decoder. The target checks that the decoder never panics and that
// whatever it accepts re-renders to a body that decodes to the same
// value.

// FuzzDecodeHandoff covers DecodeHandoff against HandoffBody, for every
// phase and with and without installed state.
func FuzzDecodeHandoff(f *testing.F) {
	fr := &perpetual.HandoffFrame{Service: "store", OldShards: 2, NewShards: 3, OldEpoch: 1, NewEpoch: 2, Source: 1, Dest: 2}
	for _, phase := range []perpetual.HandoffPhase{perpetual.HandoffExport, perpetual.HandoffInstall,
		perpetual.HandoffDrop, perpetual.HandoffCancel} {
		fr.Phase = phase
		f.Add(HandoffBody(fr, nil))
	}
	fr.Phase = perpetual.HandoffInstall
	f.Add(HandoffBody(fr, []byte("<items><item k=\"1\">v</item></items>")))
	f.Fuzz(func(t *testing.T, in []byte) {
		h, ok := DecodeHandoff(in)
		if !ok {
			return
		}
		again, ok := DecodeHandoff(HandoffBody(&perpetual.HandoffFrame{Phase: h.Phase, Service: h.Service,
			OldShards: h.OldShards, NewShards: h.NewShards, OldEpoch: h.OldEpoch, NewEpoch: h.NewEpoch,
			Source: h.Source, Dest: h.Dest}, h.State))
		if !ok || !bytes.Equal(again.State, h.State) {
			t.Fatalf("re-rendered handoff decodes to %+v (ok %v), want %+v", again, ok, h)
		}
		again.State, h.State = nil, nil
		if !reflect.DeepEqual(again, h) {
			t.Fatalf("re-rendered handoff decodes to %+v, want %+v", again, h)
		}
	})
}
