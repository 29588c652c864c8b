package auth

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refEntry is one vector entry as the reference scan reads it.
type refEntry struct {
	id, mac []byte
}

// refScan parses a MAC vector the plain way, one field after another,
// accepting any uvarint spelling; ok is false if a field overruns b.
func refScan(b []byte) (entries []refEntry, used int, ok bool) {
	field := func() ([]byte, bool) {
		l, k := binary.Uvarint(b[used:])
		if k <= 0 || l > uint64(len(b)-used-k) {
			return nil, false
		}
		f := b[used+k : used+k+int(l)]
		used += k + int(l)
		return f, true
	}
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, 0, false
	}
	used = k
	for ; n > 0; n-- {
		id, ok := field()
		if !ok {
			return nil, 0, false
		}
		mac, ok := field()
		if !ok {
			return nil, 0, false
		}
		entries = append(entries, refEntry{id, mac})
	}
	return entries, used, true
}

// refEntryFor is EntryFor by the reference rule: the first entry whose
// id parses to receiver and is that NodeID's canonical spelling.
func refEntryFor(entries []refEntry, receiver NodeID) ([]byte, bool) {
	for _, e := range entries {
		if id, err := ParseNodeID(string(e.id)); err == nil && id == receiver && id.String() == string(e.id) {
			return e.mac, true
		}
	}
	return nil, false
}

// FuzzAuthenticatorVector: VectorLen reads only its input, measures an
// accepted vector exactly, and accepts only MACs of MACSize bytes; an
// accepted vector re-encodes to the same bytes; and EntryFor agrees with
// the reference scan for every receiver the vector names and for two it
// does not.
func FuzzAuthenticatorVector(f *testing.F) {
	master := []byte("fuzz")
	sender := DriverID("c", 0)
	for _, receivers := range [][]NodeID{
		nil,
		{VoterID("t", 0)},
		{sender, VoterID("t", 0), VoterID("t", 1), VoterID("t", 2), VoterID("t", 3)},
		{DriverID("c", 1), VoterID("c", 0), VoterID("a-longer-service-name", 12345)},
	} {
		ks := NewDerivedKeyStore(master, sender, receivers)
		a, err := NewAuthenticator(ks, []byte("seed"), receivers)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(a.Vector)
		f.Add(append(bytes.Clone(a.Vector), 0xFF)) // trailing bytes are the caller's
	}
	f.Add(rawVector("t/voter/01", make([]byte, MACSize)))
	f.Add(rawVector("t/voter/0", make([]byte, MACSize-1)))
	f.Fuzz(func(t *testing.T, in []byte) {
		in = in[:len(in):len(in)] // nothing past the input to read
		n, err := VectorLen(in)
		if err != nil {
			return
		}
		if n <= 0 || n > len(in) {
			t.Fatalf("VectorLen = %d for %d input bytes", n, len(in))
		}
		if again, err := VectorLen(in[:n]); err != nil || again != n {
			t.Fatalf("VectorLen of the measured prefix = %d, %v; want %d", again, err, n)
		}
		entries, used, parsed := refScan(in)
		if !parsed || used != n {
			t.Fatalf("accepted %d bytes the reference scan reads as %d (ok %v)", n, used, parsed)
		}
		re := binary.AppendUvarint(nil, uint64(len(entries)))
		for _, e := range entries {
			if len(e.mac) != MACSize {
				t.Fatalf("accepted a %d-byte MAC", len(e.mac))
			}
			re = binary.AppendUvarint(re, uint64(len(e.id)))
			re = append(re, e.id...)
			re = binary.AppendUvarint(re, uint64(len(e.mac)))
			re = append(re, e.mac...)
		}
		if !bytes.Equal(re, in[:n]) {
			t.Fatalf("re-encoding differs:\n  in %x\n  re %x", in[:n], re)
		}
		a := Authenticator{Sender: sender, Vector: in[:n]}
		if a.Len() != len(entries) {
			t.Fatalf("Len = %d, want %d", a.Len(), len(entries))
		}
		candidates := []NodeID{VoterID("t", 0), DriverID("c", 1)}
		for _, e := range entries {
			if id, err := ParseNodeID(string(e.id)); err == nil && len(candidates) < 10 {
				candidates = append(candidates, id) // bounded: each costs a full scan
			}
		}
		for _, r := range candidates {
			got, ok := a.EntryFor(r)
			want, wantOK := refEntryFor(entries, r)
			if ok != wantOK || !bytes.Equal(got, want) {
				t.Fatalf("EntryFor(%s) = %x, %v; reference %x, %v", r, got, ok, want, wantOK)
			}
		}
	})
}
