package soap

import (
	"bytes"
	"testing"
)

// FuzzParseCanonical is the differential target for the canonical-form
// fast parser: whenever parseCanonical accepts an input, Parse returns
// its result and the encoding/xml branch reads the same header fields.
// The body may differ only by the documented looseness — an opaque body
// that is not well-formed XML — so where the encoding/xml branch
// rejects the input, the same header around a well-formed body must
// parse. Seeded from Marshal plus lookalikes that must fall back.
func FuzzParseCanonical(f *testing.F) {
	for _, e := range []Envelope{
		{Header: Header{To: ServiceURI("bank"), Action: "urn:tpcw:issuer-check", MessageID: "pge:42",
			ReplyTo: &EndpointReference{Address: ServiceURI("pge")}}, Body: []byte("<authorize><card>4111</card><amount>5</amount></authorize>")},
		{Header: Header{To: ServiceURI("pge"), RelatesTo: "pge:42"}, Body: []byte(`<authorization approved="true" txn="txn-1"></authorization>`)},
		{Header: Header{MessageID: " spaced id ", Action: "a&b<c>"}, Body: []byte(" <x/> ")},
		{Body: []byte("not xml <")},
	} {
		data, err := e.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A body closing the Body element itself, then smuggling a second
	// header that only the encoding/xml branch would read.
	f.Add([]byte(string(canonPrefix) + "<wsa:To>a</wsa:To>" + string(canonHdrEnd) +
		"</soap:Body ><soap:Header><wsa:To>b</wsa:To></soap:Header><soap:Body>" + string(canonBodyEnd) + string(canonTail)))

	f.Fuzz(func(t *testing.T, data []byte) {
		fast, ok := parseCanonical(data)
		got, err := Parse(data)
		if !ok {
			return
		}
		if err != nil || !sameHeader(got.Header, fast.Header) || !bytes.Equal(got.Body, fast.Body) {
			t.Fatalf("Parse = %+v, %v; parseCanonical %+v", got, err, fast)
		}
		general, err := parseGeneral(data)
		if err == nil && !bytes.Equal(general.Body, fast.Body) {
			t.Fatalf("body: parseCanonical %q, encoding/xml %q", fast.Body, general.Body)
		}
		if err != nil {
			bodyStart := bytes.Index(data, canonHdrEnd) + len(canonHdrEnd)
			bodyEnd := len(data) - len(canonBodyEnd) - len(canonTail)
			wellFormed := append(append(bytes.Clone(data[:bodyStart]), "<b/>"...), data[bodyEnd:]...)
			if general, err = parseGeneral(wellFormed); err != nil {
				t.Fatalf("encoding/xml rejects the header parseCanonical accepted in %q: %v", data, err)
			}
		}
		if !sameHeader(general.Header, fast.Header) {
			t.Fatalf("header: parseCanonical %+v, encoding/xml %+v", fast.Header, general.Header)
		}
	})
}

// sameHeader compares headers by value, ReplyTo included.
func sameHeader(a, b Header) bool {
	if (a.ReplyTo == nil) != (b.ReplyTo == nil) || a.ReplyTo != nil && *a.ReplyTo != *b.ReplyTo {
		return false
	}
	a.ReplyTo, b.ReplyTo = nil, nil
	return a == b
}
