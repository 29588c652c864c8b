package core

import (
	"bytes"
	"reflect"
	"testing"

	"perpetualws/internal/perpetual"
)

// The outcome and handoff bodies reach the application as the bodies of
// synthesized requests, and applications probe arbitrary request bodies
// with these decoders. Each target checks that the decoder never
// panics and that whatever it accepts re-renders to a body that decodes
// to the same value.

// FuzzDecodeTxnOutcome covers DecodeTxnOutcome against TxnOutcomeBody.
func FuzzDecodeTxnOutcome(f *testing.F) {
	f.Add(TxnOutcomeBody("c:txn:1", true))
	f.Add(TxnOutcomeBody("c:txn:2", false))
	f.Add(TxnOutcomeBody("a<&>\"'\t\n", true))
	f.Fuzz(func(t *testing.T, in []byte) {
		id, commit, ok := DecodeTxnOutcome(in)
		if !ok {
			return
		}
		id2, commit2, ok := DecodeTxnOutcome(TxnOutcomeBody(id, commit))
		if !ok || id2 != id || commit2 != commit {
			t.Fatalf("re-rendered outcome decodes to (%q, %v, ok %v), want (%q, %v)", id2, commit2, ok, id, commit)
		}
	})
}

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
