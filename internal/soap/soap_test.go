package soap

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"
	"testing/quick"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	e := &Envelope{
		Header: Header{
			To:        ServiceURI("pge"),
			Action:    "urn:authorize",
			MessageID: "pge:42",
			RelatesTo: "store:7",
			ReplyTo:   &EndpointReference{Address: ServiceURI("store")},
		},
		Body: []byte("<authorize><amount>42.00</amount></authorize>"),
	}
	data, err := e.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.Header != (Header{}) && got.Header.To != e.Header.To {
		t.Errorf("To = %q, want %q", got.Header.To, e.Header.To)
	}
	if got.Header.Action != e.Header.Action {
		t.Errorf("Action = %q", got.Header.Action)
	}
	if got.Header.MessageID != e.Header.MessageID {
		t.Errorf("MessageID = %q", got.Header.MessageID)
	}
	if got.Header.RelatesTo != e.Header.RelatesTo {
		t.Errorf("RelatesTo = %q", got.Header.RelatesTo)
	}
	if got.Header.ReplyTo == nil || got.Header.ReplyTo.Address != e.Header.ReplyTo.Address {
		t.Errorf("ReplyTo = %+v", got.Header.ReplyTo)
	}
	if string(got.Body) != string(e.Body) {
		t.Errorf("Body = %q, want %q", got.Body, e.Body)
	}
}

func TestEnvelopeWithoutOptionalHeaders(t *testing.T) {
	e := &Envelope{Body: []byte("<x/>")}
	data, err := e.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.Header.ReplyTo != nil {
		t.Errorf("ReplyTo = %+v, want nil", got.Header.ReplyTo)
	}
	if string(got.Body) != "<x/>" {
		t.Errorf("Body = %q", got.Body)
	}
}

func TestParseForeignPrefixes(t *testing.T) {
	// Envelopes from other stacks use different namespace prefixes.
	doc := `<?xml version="1.0"?>
<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope"
              xmlns:a="http://www.w3.org/2005/08/addressing">
  <env:Header>
    <a:To>perpetual://bank</a:To>
    <a:MessageID>m-1</a:MessageID>
  </env:Header>
  <env:Body><debit/></env:Body>
</env:Envelope>`
	got, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.Header.To != "perpetual://bank" {
		t.Errorf("To = %q", got.Header.To)
	}
	if got.Header.MessageID != "m-1" {
		t.Errorf("MessageID = %q", got.Header.MessageID)
	}
	if !strings.Contains(string(got.Body), "<debit/>") {
		t.Errorf("Body = %q", got.Body)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "not xml", "<other/>", "<Envelope/>"} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestServiceURIRoundTrip(t *testing.T) {
	svc, err := ServiceFromURI(ServiceURI("bank"))
	if err != nil {
		t.Fatalf("ServiceFromURI: %v", err)
	}
	if svc != "bank" {
		t.Errorf("service = %q", svc)
	}
	for _, bad := range []string{"", "http://x", "perpetual://"} {
		if _, err := ServiceFromURI(bad); err == nil {
			t.Errorf("ServiceFromURI(%q) succeeded", bad)
		}
	}
}

func TestFaultRoundTrip(t *testing.T) {
	body := FaultBody(Fault{Code: "soap:Receiver", Reason: "request aborted <timeout>"})
	f, ok := IsFault(body)
	if !ok {
		t.Fatal("IsFault = false")
	}
	if f.Code != "soap:Receiver" {
		t.Errorf("Code = %q", f.Code)
	}
	if f.Reason != "request aborted <timeout>" {
		t.Errorf("Reason = %q", f.Reason)
	}
	if _, ok := IsFault([]byte("<ok/>")); ok {
		t.Error("IsFault reported fault for non-fault body")
	}
}

// Property: header fields consisting of URI-safe characters round-trip.
func TestHeaderRoundTripProperty(t *testing.T) {
	sanitize := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == ':' || r == '-' || r == '/' || r == '.' {
				b.WriteRune(r)
			}
		}
		return b.String()
	}
	f := func(to, action, id, rel string) bool {
		e := &Envelope{
			Header: Header{
				To:        sanitize(to),
				Action:    sanitize(action),
				MessageID: sanitize(id),
				RelatesTo: sanitize(rel),
			},
			Body: []byte("<b/>"),
		}
		data, err := e.Marshal()
		if err != nil {
			return false
		}
		got, err := Parse(data)
		if err != nil {
			return false
		}
		return got.Header.To == e.Header.To &&
			got.Header.Action == e.Header.Action &&
			got.Header.MessageID == e.Header.MessageID &&
			got.Header.RelatesTo == e.Header.RelatesTo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestParseCanonicalMatchesGeneral cross-checks the canonical-form fast
// parser against the reflective fallback on a spread of envelopes: for
// every Marshal output the two must agree exactly, and inputs the fast
// path cannot handle must fall back (escapes, foreign shapes, bodies
// containing the close sequence).
func TestParseCanonicalMatchesGeneral(t *testing.T) {
	cases := []Envelope{
		{Header: Header{To: "perpetual://target", Action: "urn:a", MessageID: "m-1", RelatesTo: "m-0",
			ReplyTo: &EndpointReference{Address: AnonymousAddress}}, Body: []byte("<inc/>")},
		{Header: Header{To: "perpetual://t"}, Body: []byte("<x>1</x>")},
		{Body: []byte("<only-body/>")},
		{Header: Header{MessageID: "id with spaces"}, Body: nil},
		{Header: Header{Action: "needs &amp; escaping <>"}, Body: []byte("<b/>")},           // forces escaped render
		{Header: Header{To: "t"}, Body: []byte("nested <soap:Body>inner</soap:Body> tail")}, // fast path must fall back
	}
	for i, env := range cases {
		data, err := env.Marshal()
		if err != nil {
			t.Fatalf("case %d: Marshal: %v", i, err)
		}
		fast, fastOK := parseCanonical(data)
		var pe parsedEnvelope
		if err := xml.Unmarshal(data, &pe); err != nil {
			t.Fatalf("case %d: general parse: %v", i, err)
		}
		got, err := Parse(data)
		if err != nil {
			t.Fatalf("case %d: Parse: %v", i, err)
		}
		if fastOK {
			if got.Header != fast.Header && (got.Header.ReplyTo == nil) != (fast.Header.ReplyTo == nil) {
				t.Errorf("case %d: fast path header mismatch", i)
			}
		}
		// Whatever route Parse took, it must agree with the general
		// parser's view of the document.
		want := Header{
			To:        strings.TrimSpace(pe.Header.To),
			Action:    strings.TrimSpace(pe.Header.Action),
			MessageID: strings.TrimSpace(pe.Header.MessageID),
			RelatesTo: strings.TrimSpace(pe.Header.RelatesTo),
		}
		if got.Header.To != want.To || got.Header.Action != want.Action ||
			got.Header.MessageID != want.MessageID || got.Header.RelatesTo != want.RelatesTo {
			t.Errorf("case %d: header = %+v, want %+v", i, got.Header, want)
		}
		wantBody := bytes.TrimSpace(pe.Body.Inner)
		if !bytes.Equal(got.Body, append([]byte(nil), wantBody...)) {
			t.Errorf("case %d: body = %q, want %q", i, got.Body, wantBody)
		}
	}
}

// TestEnvelopeAllocBudget pins the allocation counts of the envelope
// codec on the delivery path: Marshal renders into one buffer, and a
// canonical Parse makes the Envelope, one copy of the header block, the
// ReplyTo and the body copy.
func TestEnvelopeAllocBudget(t *testing.T) {
	env := Envelope{Header: Header{To: ServiceURI("bank"), Action: "urn:tpcw:issuer-check", MessageID: "pge:123456",
		RelatesTo: "store:7", ReplyTo: &EndpointReference{Address: ServiceURI("pge")}},
		Body: []byte("<authorize><card>4111-0001-0007</card><amount>12345</amount></authorize>")}
	data, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Envelope.Marshal", 1, func() { _, _ = env.Marshal() }},
		{"Parse of a canonical envelope with ReplyTo", 4, func() {
			if _, err := Parse(data); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.f); got > c.max {
			t.Errorf("%s: %.0f allocs per run, budget %.0f", c.name, got, c.max)
		}
	}
}

// TestParseDoesNotAliasInput: the parsed body must survive the caller
// scribbling over the input buffer (inbound transport frames are
// pooled and reused).
func TestParseDoesNotAliasInput(t *testing.T) {
	env := Envelope{Header: Header{To: "perpetual://t", Action: "urn:x"}, Body: []byte("<payload>keep</payload>")}
	data, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xAA
	}
	if string(got.Body) != "<payload>keep</payload>" {
		t.Fatalf("parsed body aliased the input buffer: %q", got.Body)
	}
}
