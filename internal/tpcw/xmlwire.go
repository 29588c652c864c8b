package tpcw

import (
	"strconv"
	"strings"
)

// Hand-rolled codecs for the tpcw wire formats. The interaction
// request, the page reply and the payment tier's authorize pair are the
// hottest bodies in the system — every store operation and every
// payment encodes and decodes one of each per replica — and
// reflection-based encoding/xml spends more CPU on these small elements
// than the BFT protocol spends agreeing on them. Encoding emits exactly
// the bytes encoding/xml would (attribute order, full close tag) when
// every value is printable ASCII, and calls encoding/xml otherwise, so
// replicas stay byte-deterministic; decoding scans only the canonical
// shape and falls back to encoding/xml on any deviation, so both paths
// always read a body the same way, mirroring soap.parseCanonical.

// printableASCII reports whether s is printable ASCII: the values the
// hand-rolled encoders write, escaping only the five markup characters
// the way encoding/xml does.
func printableASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] > 0x7e {
			return false
		}
	}
	return true
}

// plainValue reports whether s is a value the encoders write verbatim:
// printable ASCII without markup characters.
func plainValue(s []byte) bool {
	for _, c := range s {
		if c < 0x20 || c > 0x7e || c == '&' || c == '<' || c == '>' || c == '"' || c == '\'' {
			return false
		}
	}
	return true
}

// appendEscaped appends printable-ASCII s with the escaping encoding/xml
// applies to attribute values and character data alike.
func appendEscaped(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			buf = append(buf, "&amp;"...)
		case '<':
			buf = append(buf, "&lt;"...)
		case '>':
			buf = append(buf, "&gt;"...)
		case '"':
			buf = append(buf, "&#34;"...)
		case '\'':
			buf = append(buf, "&#39;"...)
		default:
			buf = append(buf, c)
		}
	}
	return buf
}

// appendIntAttr appends ` name="123"`.
func appendIntAttr(buf []byte, name string, v int) []byte {
	buf = append(buf, ' ')
	buf = append(buf, name...)
	buf = append(buf, '=', '"')
	buf = strconv.AppendInt(buf, int64(v), 10)
	return append(buf, '"')
}

// appendStrAttr appends ` name="escaped-value"`; v must be printable
// ASCII.
func appendStrAttr(buf []byte, name, v string) []byte {
	buf = append(buf, ' ')
	buf = append(buf, name...)
	buf = append(buf, '=', '"')
	buf = appendEscaped(buf, v)
	return append(buf, '"')
}

// attrScanner walks the attributes of a canonical single-element body,
// `<elem a="1" b="x"></elem>`: one space before each attribute, values
// in double quotes, printable ASCII and no '<', '&' only opening an
// entity unescapeXML knows, and nothing after the close tag. Any other
// shape clears ok, telling the caller to fall back to encoding/xml.
type attrScanner struct {
	s    string
	elem string
	ok   bool
}

// newAttrScanner positions the scanner past `<elem`.
func newAttrScanner(body []byte, elem string) attrScanner {
	s := string(body)
	if len(s) < len(elem)+2 || s[0] != '<' || s[1:1+len(elem)] != elem {
		return attrScanner{}
	}
	return attrScanner{s: s[1+len(elem):], elem: elem, ok: true}
}

// next returns the next attribute pair; done reports the end of the
// element or a shape the scanner does not recognize (ok cleared).
func (sc *attrScanner) next() (name, val string, done bool) {
	if !sc.ok || sc.s == "" {
		sc.ok = false
		return "", "", true
	}
	if sc.s[0] == '>' {
		closeName, open := strings.CutPrefix(sc.s[1:], "</")
		closeName, shut := strings.CutSuffix(closeName, ">")
		sc.ok = open && shut && closeName == sc.elem
		return "", "", true
	}
	s := sc.s[1:]
	eq := strings.IndexByte(s, '=')
	if sc.s[0] != ' ' || eq <= 0 || eq+1 >= len(s) || s[eq+1] != '"' {
		sc.ok = false
		return "", "", true
	}
	name = s[:eq]
	rest := s[eq+2:]
	end := strings.IndexByte(rest, '"')
	if end < 0 || !canonAttrValue(rest[:end]) {
		sc.ok = false
		return "", "", true
	}
	sc.s = rest[end+1:]
	return name, rest[:end], false
}

// canonAttrValue reports whether the scanner may read v without
// encoding/xml: printable ASCII, no '<', and every '&' opening an entity
// xmlUnescaper replaces exactly as encoding/xml would.
func canonAttrValue(v string) bool {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; {
		case c < 0x20 || c > 0x7e || c == '<':
			return false
		case c == '&' && !knownEntity(v[i:]):
			return false
		}
	}
	return true
}

// xmlEntities pairs each entity encoding/xml may emit or accept in an
// attribute value with its character.
var xmlEntities = []string{
	"&amp;", "&", "&lt;", "<", "&gt;", ">",
	"&#34;", `"`, "&quot;", `"`, "&#39;", "'", "&apos;", "'",
}

// xmlUnescaper reverses xmlEntities; a Replacer is safe for concurrent
// use, so one serves every decoder.
var xmlUnescaper = strings.NewReplacer(xmlEntities...)

// knownEntity reports whether s starts with one of xmlEntities.
func knownEntity(s string) bool {
	for i := 0; i < len(xmlEntities); i += 2 {
		if strings.HasPrefix(s, xmlEntities[i]) {
			return true
		}
	}
	return false
}

// unescapeXML reverses the attribute escaping of a value the scanner
// accepted; values without '&' (the common case: numbers, plain titles)
// return unchanged without allocating.
func unescapeXML(v string) string {
	if !strings.Contains(v, "&") {
		return v
	}
	return xmlUnescaper.Replace(v)
}
