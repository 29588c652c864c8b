// Package soap implements the subset of SOAP 1.2 and WS-Addressing 1.0
// that Perpetual-WS relies on: envelopes with header blocks carrying
// wsa:To, wsa:Action, wsa:MessageID, wsa:RelatesTo, and wsa:ReplyTo, and
// an opaque XML body. The paper's prototype delegated this to Apache
// Axis2; this package is the corresponding seam in the Go
// reimplementation (see DESIGN.md, substitutions).
package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"strings"
	"time"
)

// XML namespaces used by the envelope.
const (
	NSEnvelope   = "http://www.w3.org/2003/05/soap-envelope"
	NSAddressing = "http://www.w3.org/2005/08/addressing"
)

// AnonymousAddress is the WS-Addressing anonymous endpoint, used as
// ReplyTo for synchronous (back-channel) replies.
const AnonymousAddress = NSAddressing + "/anonymous"

// Errors returned by envelope parsing.
var (
	ErrNotEnvelope = errors.New("soap: document is not a SOAP envelope")
	ErrNoBody      = errors.New("soap: envelope has no body")
)

// EndpointReference is a WS-Addressing endpoint reference. Perpetual-WS
// resolves the Address URI ("perpetual://<service>") against the static
// replica mapping.
type EndpointReference struct {
	Address string `xml:"Address"`
}

// Header carries the WS-Addressing message-addressing properties.
type Header struct {
	To        string             `xml:"To,omitempty"`
	Action    string             `xml:"Action,omitempty"`
	MessageID string             `xml:"MessageID,omitempty"`
	RelatesTo string             `xml:"RelatesTo,omitempty"`
	ReplyTo   *EndpointReference `xml:"ReplyTo,omitempty"`
}

// Envelope is a SOAP 1.2 envelope with WS-Addressing headers and an
// opaque body (the application payload, itself XML).
type Envelope struct {
	Header Header
	Body   []byte // inner XML of the soap:Body element
}

type xmlBody struct {
	Inner []byte `xml:",innerxml"`
}

// Marshal renders the envelope as XML. The envelope shape is fixed, so
// it is written directly instead of through encoding/xml's reflective
// encoder (which buys a reflection pass plus a 4 KiB bufio buffer per
// call — the rendering sits on the request hot path of every calling
// replica). The output matches what the reflective encoder produced for
// xmlEnvelope.
func (e *Envelope) Marshal() ([]byte, error) {
	// 288 covers the fixed markup below (212 bytes of tags, 54 more with a
	// ReplyTo), so unescaped content never regrows the buffer.
	n := len(xml.Header) + 288 + len(e.Header.To) + len(e.Header.Action) +
		len(e.Header.MessageID) + len(e.Header.RelatesTo) + len(e.Body) +
		len(NSEnvelope) + len(NSAddressing)
	if e.Header.ReplyTo != nil {
		n += len(e.Header.ReplyTo.Address)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, canonPrefix...)
	buf = appendTextElem(buf, "wsa:To", e.Header.To)
	buf = appendTextElem(buf, "wsa:Action", e.Header.Action)
	buf = appendTextElem(buf, "wsa:MessageID", e.Header.MessageID)
	buf = appendTextElem(buf, "wsa:RelatesTo", e.Header.RelatesTo)
	if e.Header.ReplyTo != nil {
		// Unlike the omitempty text headers, a present ReplyTo always
		// renders its Address element, as the reflective encoder did.
		buf = append(buf, "<wsa:ReplyTo><wsa:Address>"...)
		buf = appendEscaped(buf, e.Header.ReplyTo.Address)
		buf = append(buf, "</wsa:Address></wsa:ReplyTo>"...)
	}
	buf = append(buf, canonHdrEnd...)
	buf = append(buf, e.Body...) // opaque inner XML, passed through unescaped
	buf = append(buf, canonBodyEnd...)
	return append(buf, canonTail...), nil
}

// appendTextElem appends <name>escaped text</name>, omitting empty
// values (the omitempty behavior of the old marshalling shape).
func appendTextElem(buf []byte, name, text string) []byte {
	if text == "" {
		return buf
	}
	buf = append(buf, '<')
	buf = append(buf, name...)
	buf = append(buf, '>')
	buf = appendEscaped(buf, text)
	buf = append(buf, '<', '/')
	buf = append(buf, name...)
	return append(buf, '>')
}

// appendEscaped appends s as XML character data. The fast path covers
// text with nothing to escape (service URIs, message ids); anything
// else goes through xml.EscapeText for full fidelity.
func appendEscaped(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		// Anything outside plain printable ASCII falls back to
		// EscapeText: markup characters, control bytes (XML-invalid;
		// EscapeText substitutes U+FFFD), and non-ASCII (surrogate /
		// validity edge cases).
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '<' || c == '>' || c == '&' || c == '\'' || c == '"' {
			var esc bytes.Buffer
			_ = xml.EscapeText(&esc, []byte(s))
			return append(buf, esc.Bytes()...)
		}
	}
	return append(buf, s...)
}

// parsedEnvelope is the unmarshalling shape; namespace-qualified so any
// prefix parses.
type parsedEnvelope struct {
	XMLName xml.Name     `xml:"Envelope"`
	Header  parsedHeader `xml:"Header"`
	Body    *xmlBody     `xml:"Body"`
}

type parsedHeader struct {
	To        string             `xml:"To"`
	Action    string             `xml:"Action"`
	MessageID string             `xml:"MessageID"`
	RelatesTo string             `xml:"RelatesTo"`
	ReplyTo   *EndpointReference `xml:"ReplyTo"`
}

// Canonical-form literals emitted by Marshal, matched byte-for-byte by
// the fast parser.
var (
	canonPrefix  = []byte(xml.Header + `<soap:Envelope xmlns:soap="` + NSEnvelope + `" xmlns:wsa="` + NSAddressing + `">` + "<soap:Header>")
	canonHdrEnd  = []byte("</soap:Header><soap:Body>")
	canonTail    = []byte("</soap:Envelope>")
	canonBodyEnd = []byte("</soap:Body>")
)

// parseCanonical decodes the exact envelope shape Marshal renders
// without the reflective XML decoder. Envelope parsing sits on the
// delivery path of every replica of every request, and in steady state
// nearly every envelope in the system was rendered by Marshal; anything
// that deviates from the canonical byte shape (foreign producers,
// escaped characters, reordered headers, Byzantine garbage) reports
// !ok and takes the general parser, so the fast path never reads a
// document differently from the slow path — ambiguity always falls
// back. One intentional looseness: the body is treated as opaque bytes
// (as the rest of the system treats it), so a canonical envelope whose
// body is not well-formed XML parses here where the reflective decoder
// would reject it; all replicas run the same parser, so determinism is
// unaffected.
//
// Ownership: the header strings are substrings of one private copy of
// the header block and the body is a private copy, so the result never
// aliases data.
func parseCanonical(data []byte) (*Envelope, bool) {
	rest, ok := bytes.CutPrefix(data, canonPrefix)
	if !ok {
		return nil, false
	}
	// Header values cannot contain '<' (canonText), so the header block
	// ends at the first close sequence.
	end := bytes.Index(rest, canonHdrEnd)
	if end < 0 {
		return nil, false
	}
	body := rest[end+len(canonHdrEnd):]
	// The body is raw inner XML running to the envelope's closing tags.
	// Requiring the first body close tag — with or without the space an
	// XML end tag may carry before its '>' — to be exactly the envelope's
	// closing sequence keeps this unambiguous: a body that closes the
	// Body element itself fails the check and falls back.
	i := bytes.Index(body, canonBodyEnd[:len(canonBodyEnd)-1])
	if i < 0 || !bytes.HasPrefix(body[i:], canonBodyEnd) || !bytes.Equal(body[i+len(canonBodyEnd):], canonTail) {
		return nil, false
	}
	e := &Envelope{}
	for hdr := string(rest[:end]); hdr != ""; {
		var open, close string
		var out *string
		switch {
		case strings.HasPrefix(hdr, "<wsa:To>"):
			open, close, out = "<wsa:To>", "</wsa:To>", &e.Header.To
		case strings.HasPrefix(hdr, "<wsa:Action>"):
			open, close, out = "<wsa:Action>", "</wsa:Action>", &e.Header.Action
		case strings.HasPrefix(hdr, "<wsa:MessageID>"):
			open, close, out = "<wsa:MessageID>", "</wsa:MessageID>", &e.Header.MessageID
		case strings.HasPrefix(hdr, "<wsa:RelatesTo>"):
			open, close, out = "<wsa:RelatesTo>", "</wsa:RelatesTo>", &e.Header.RelatesTo
		case strings.HasPrefix(hdr, "<wsa:ReplyTo><wsa:Address>"):
			if e.Header.ReplyTo == nil {
				e.Header.ReplyTo = &EndpointReference{}
			}
			open, close, out = "<wsa:ReplyTo><wsa:Address>", "</wsa:Address></wsa:ReplyTo>", &e.Header.ReplyTo.Address
		default:
			return nil, false
		}
		if hdr, ok = canonText(hdr[len(open):], close, out); !ok {
			return nil, false
		}
	}
	// Copy the body: the general parser materializes it off the token
	// stream, so Parse's result must never alias the (possibly pooled)
	// input buffer.
	e.Body = append([]byte(nil), bytes.TrimSpace(body[:i])...)
	return e, true
}

// canonText sets *out to the text value up to the literal closing tag,
// as a substring of rest. Only ASCII text Marshal writes unescaped stays
// on the fast path: no control bytes, markup or entities.
func canonText(rest, close string, out *string) (string, bool) {
	i := strings.IndexByte(rest, '<')
	if i < 0 || !strings.HasPrefix(rest[i:], close) {
		return "", false
	}
	v := rest[:i]
	for j := 0; j < len(v); j++ {
		if c := v[j]; c < 0x20 || c >= 0x80 || c == '&' || c == '>' {
			return "", false
		}
	}
	*out = strings.TrimSpace(v)
	return rest[i+len(close):], true
}

// Parse decodes a SOAP envelope from XML. The returned envelope never
// aliases data (callers may hand in pooled transport buffers).
func Parse(data []byte) (*Envelope, error) {
	if e, ok := parseCanonical(data); ok {
		return e, nil
	}
	return parseGeneral(data)
}

// parseGeneral is Parse's encoding/xml branch, for any envelope shape.
func parseGeneral(data []byte) (*Envelope, error) {
	var pe parsedEnvelope
	if err := xml.Unmarshal(data, &pe); err != nil {
		return nil, fmt.Errorf("soap: parse: %w", err)
	}
	if pe.XMLName.Local != "Envelope" {
		return nil, ErrNotEnvelope
	}
	if pe.Body == nil {
		return nil, ErrNoBody
	}
	e := &Envelope{
		Header: Header{
			To:        strings.TrimSpace(pe.Header.To),
			Action:    strings.TrimSpace(pe.Header.Action),
			MessageID: strings.TrimSpace(pe.Header.MessageID),
			RelatesTo: strings.TrimSpace(pe.Header.RelatesTo),
		},
		Body: bytes.TrimSpace(pe.Body.Inner),
	}
	if pe.Header.ReplyTo != nil {
		addr := strings.TrimSpace(pe.Header.ReplyTo.Address)
		e.Header.ReplyTo = &EndpointReference{Address: addr}
	}
	return e, nil
}

// ServiceURI builds the Perpetual-WS endpoint URI for a service name.
func ServiceURI(service string) string { return "perpetual://" + service }

// ServiceFromURI extracts the service name from a Perpetual-WS endpoint
// URI.
func ServiceFromURI(uri string) (string, error) {
	const prefix = "perpetual://"
	if !strings.HasPrefix(uri, prefix) {
		return "", fmt.Errorf("soap: %q is not a perpetual endpoint URI", uri)
	}
	svc := strings.TrimPrefix(uri, prefix)
	if svc == "" {
		return "", fmt.Errorf("soap: empty service in endpoint URI %q", uri)
	}
	return svc, nil
}

// Fault is a minimal SOAP fault body.
type Fault struct {
	Code   string
	Reason string
}

// FaultBody renders a SOAP 1.2 fault as body XML.
func FaultBody(f Fault) []byte {
	var buf bytes.Buffer
	buf.WriteString("<soap:Fault><soap:Code><soap:Value>")
	xml.EscapeText(&buf, []byte(f.Code))
	buf.WriteString("</soap:Value></soap:Code><soap:Reason><soap:Text>")
	xml.EscapeText(&buf, []byte(f.Reason))
	buf.WriteString("</soap:Text></soap:Reason></soap:Fault>")
	return buf.Bytes()
}

// FaultCodeRetryAfter is the fault code of the deterministic overload
// fault: a saturated voter group answers it instead of queuing work it
// cannot serve within bounded latency. The reason names the backoff
// hint in milliseconds; clients treat it as a bounded-latency rejection
// and retry after the hint (see perpetual.RetryPolicy) rather than as a
// failure.
const FaultCodeRetryAfter = "perpetual:RetryAfter"

// RetryAfterFault builds the deterministic overload fault carrying a
// retry-after hint.
func RetryAfterFault(after time.Duration) Fault {
	return Fault{Code: FaultCodeRetryAfter, Reason: fmt.Sprintf("service overloaded; retry after ms %d", after.Milliseconds())}
}

// DecodeRetryAfter reports whether a fault is the overload fault and
// extracts the backoff hint.
func DecodeRetryAfter(f Fault) (time.Duration, bool) {
	if f.Code != FaultCodeRetryAfter {
		return 0, false
	}
	i := strings.LastIndexByte(f.Reason, ' ')
	if i < 0 {
		return 0, true // malformed reason still signals overload
	}
	var ms int64
	if _, err := fmt.Sscanf(f.Reason[i+1:], "%d", &ms); err != nil {
		return 0, true
	}
	return time.Duration(ms) * time.Millisecond, true
}

// IsFault reports whether a body is a SOAP fault and extracts the
// reason.
func IsFault(body []byte) (Fault, bool) {
	if !bytes.Contains(body, []byte("Fault>")) {
		return Fault{}, false
	}
	type faultXML struct {
		XMLName xml.Name `xml:"Fault"`
		Code    struct {
			Value string `xml:"Value"`
		} `xml:"Code"`
		Reason struct {
			Text string `xml:"Text"`
		} `xml:"Reason"`
	}
	var f faultXML
	if err := xml.Unmarshal(body, &f); err != nil {
		return Fault{}, false
	}
	return Fault{Code: strings.TrimSpace(f.Code.Value), Reason: strings.TrimSpace(f.Reason.Text)}, true
}
