package tpcw

import "testing"

// FuzzDecodeTransfer feeds DecodeTransfer arbitrary bodies. A store
// shard decodes a transfer PREPARE from whatever the agreed payload
// holds, so no input may panic, and whatever it accepts must survive
// an EncodeTransfer round trip unchanged. Seeded from EncodeTransfer,
// whose own round trip is checked first, so the seeds run as plain
// tests.
func FuzzDecodeTransfer(f *testing.F) {
	type transfer struct {
		side                string
		customer, item, qty int
	}
	for _, tr := range []transfer{
		{TransferOut, 5, 9, 2},
		{TransferIn, 0, 0, 0},
		{TransferOut, -1, 1 << 40, -7},
		{`a&b<c>"d'`, 1, 2, 3},
		{"tab\there\nnewline", 4, 5, 6},
	} {
		body := EncodeTransfer(tr.side, tr.customer, tr.item, tr.qty)
		side, customer, item, qty, ok := DecodeTransfer(body)
		if got := (transfer{side, customer, item, qty}); !ok || got != tr {
			f.Fatalf("DecodeTransfer(EncodeTransfer(%+v)) = %+v, %v", tr, got, ok)
		}
		f.Add(body)
	}
	f.Add([]byte(`<transfer side="out" customer="1" item="2" qty="3"/>`))
	f.Add([]byte(`<transfer side="out" customer="x" item="2" qty="3"></transfer>`))
	f.Add([]byte(`<transferReady side="out"></transferReady>`))
	f.Add([]byte(`<transfer side="&#1;"></transfer>`))
	f.Add([]byte(`<transfer`))
	f.Fuzz(func(t *testing.T, body []byte) {
		side, customer, item, qty, ok := DecodeTransfer(body)
		if !ok {
			return
		}
		side2, customer2, item2, qty2, ok2 := DecodeTransfer(EncodeTransfer(side, customer, item, qty))
		if !ok2 || side2 != side || customer2 != customer || item2 != item || qty2 != qty {
			t.Fatalf("DecodeTransfer(%q) = %q, %d, %d, %d; its re-encoding decodes to %q, %d, %d, %d, %v",
				body, side, customer, item, qty, side2, customer2, item2, qty2, ok2)
		}
	})
}
