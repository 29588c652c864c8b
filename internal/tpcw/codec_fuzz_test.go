package tpcw

import (
	"bytes"
	"encoding/xml"
	"testing"
)

// Differential fuzz targets for the hand-rolled codecs (xmlwire.go and
// the authorize pair in apps.go): every encoder must emit exactly the
// bytes encoding/xml emits, and every decoder must return what
// encoding/xml returns, or reject what it rejects. Seeded from the
// encoders plus one non-canonical body per fallback rule, so the seeds
// run as plain tests.

// fuzzBodySeeds holds canonical bodies from the encoders and
// lookalikes that must take the encoding/xml path.
func fuzzBodySeeds() [][]byte {
	return [][]byte{
		EncodeAuthorize("4111-0001-0007", 12345),
		EncodeAuthorize(`a&b<c>"d'`, 0),
		EncodeAuthorize("café", -7),
		EncodeAuthorization(true, "txn-0a1b2c3d4e5f"),
		EncodeAuthorization(false, `t&"x`),
		EncodeInteraction(17, BuyConfirm, 3),
		EncodeInteraction(-1, Interaction(99), -5),
		EncodePage(Page{Interaction: ProductDetail, Size: 3508, Detail: "Book #8"}),
		EncodePage(Page{Interaction: Home, Size: 1, Detail: `<&>"'`}),
		EncodePage(Page{Detail: "tab\there"}),
		[]byte("<authorize><card> 4111 </card><amount> 5 </amount></authorize>"),
		[]byte("<authorize><card>4111</card><amount>+5</amount></authorize>"),
		[]byte("<authorize><card>4&#49;11</card><amount>5</amount></authorize>"),
		[]byte("<authorize><card>a]]>b</card><amount>5</amount></authorize>"),
		[]byte(`<authorization approved="1" txn="t"></authorization>`),
		[]byte(`<authorization approved="true" txn="t" extra="x"></authorization>`),
		[]byte(`<authorization  approved="true" txn="t"/>`),
		[]byte(`<interaction customer="1" kind="2" arg="3" customer="4"></interaction>`),
		[]byte(`<interaction customer="1" kind="2" arg="3"></interaction>trailing`),
		[]byte(`<interactionX customer="1" kind="2" arg="3"></interactionX>`),
		[]byte(`<page interaction="1" size="2" detail="a&#65;b"></page>`),
		[]byte(`<page interaction="1" size="2" detail='x'></page>`),
	}
}

func FuzzAuthorizeEncode(f *testing.F) {
	f.Add("4111-0001-0007", int64(12345), true, "txn-0a1b2c3d4e5f")
	f.Add(`a&b<c>"d'`, int64(-1), false, "")
	f.Add("caf\xc3\xa9\x01\t", int64(1)<<62, true, "\xff]]>")
	f.Fuzz(func(t *testing.T, card string, amount int64, approved bool, txn string) {
		want, err := xml.Marshal(authorizeRequest{Card: card, Amount: amount})
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodeAuthorize(card, amount); !bytes.Equal(got, want) {
			t.Fatalf("EncodeAuthorize(%q, %d) = %q, encoding/xml %q", card, amount, got, want)
		}
		want, err = xml.Marshal(authorizeReply{Approved: approved, Txn: txn})
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodeAuthorization(approved, txn); !bytes.Equal(got, want) {
			t.Fatalf("EncodeAuthorization(%v, %q) = %q, encoding/xml %q", approved, txn, got, want)
		}
	})
}

func FuzzAuthorizeDecode(f *testing.F) {
	for _, s := range fuzzBodySeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req authorizeRequest
		xerr := xml.Unmarshal(body, &req)
		card, amount, err := DecodeAuthorize(body)
		if (err == nil) != (xerr == nil) || err == nil && (card != req.Card || amount != req.Amount) {
			t.Fatalf("DecodeAuthorize(%q) = %q, %d, %v; encoding/xml %q, %d, %v", body, card, amount, err, req.Card, req.Amount, xerr)
		}
		var rep authorizeReply
		xerr = xml.Unmarshal(body, &rep)
		approved, txn, err := DecodeAuthorization(body)
		if (err == nil) != (xerr == nil) || err == nil && (approved != rep.Approved || txn != rep.Txn) {
			t.Fatalf("DecodeAuthorization(%q) = %v, %q, %v; encoding/xml %v, %q, %v", body, approved, txn, err, rep.Approved, rep.Txn, xerr)
		}
	})
}

func FuzzInteractionPageEncode(f *testing.F) {
	f.Add(17, int(BuyConfirm), 3, 3508, "Book #8")
	f.Add(-1, 99, -5, 0, `<&>"'`)
	f.Add(0, 0, 0, -1, "caf\xc3\xa9\x01\n\r\xff")
	f.Fuzz(func(t *testing.T, customer, kind, arg, size int, detail string) {
		want, err := xml.Marshal(interactionRequest{Customer: customer, Kind: kind, Arg: arg})
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodeInteraction(customer, Interaction(kind), arg); !bytes.Equal(got, want) {
			t.Fatalf("EncodeInteraction = %q, encoding/xml %q", got, want)
		}
		want, err = xml.Marshal(pageReply{Interaction: kind, Size: size, Detail: detail})
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodePage(Page{Interaction: Interaction(kind), Size: size, Detail: detail}); !bytes.Equal(got, want) {
			t.Fatalf("EncodePage = %q, encoding/xml %q", got, want)
		}
	})
}

func FuzzInteractionPageDecode(f *testing.F) {
	for _, s := range fuzzBodySeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req interactionRequest
		xerr := xml.Unmarshal(body, &req)
		// DecodeInteraction also range-checks the kind encoding/xml read.
		xok := xerr == nil && req.Kind >= 0 && req.Kind < int(NumInteractions)
		customer, kind, arg, err := DecodeInteraction(body)
		if (err == nil) != xok || err == nil && (customer != req.Customer || int(kind) != req.Kind || arg != req.Arg) {
			t.Fatalf("DecodeInteraction(%q) = %d, %d, %d, %v; encoding/xml %+v, %v", body, customer, kind, arg, err, req, xerr)
		}
		var page pageReply
		xerr = xml.Unmarshal(body, &page)
		p, err := DecodePage(body)
		want := Page{Interaction: Interaction(page.Interaction), Size: page.Size, Detail: page.Detail}
		if (err == nil) != (xerr == nil) || err == nil && p != want {
			t.Fatalf("DecodePage(%q) = %+v, %v; encoding/xml %+v, %v", body, p, err, want, xerr)
		}
	})
}
