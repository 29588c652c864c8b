package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripAllTypes(t *testing.T) {
	w := NewWriter(64)
	w.PutUint8(0xAB)
	w.PutUint16(0xBEEF)
	w.PutUint32(0xDEADBEEF)
	w.PutUint64(math.MaxUint64)
	w.PutInt64(-42)
	w.PutUvarint(1 << 40)
	w.PutBytes([]byte{1, 2, 3})
	w.PutString("héllo")
	w.PutBytes(nil)

	r := NewReader(w.Bytes())
	if got := r.Uint8(); got != 0xAB {
		t.Errorf("Uint8 = %x", got)
	}
	if got := r.Uint16(); got != 0xBEEF {
		t.Errorf("Uint16 = %x", got)
	}
	if got := r.Uint32(); got != 0xDEADBEEF {
		t.Errorf("Uint32 = %x", got)
	}
	if got := r.Uint64(); got != math.MaxUint64 {
		t.Errorf("Uint64 = %x", got)
	}
	if got := r.Int64(); got != -42 {
		t.Errorf("Int64 = %d", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.String(); got != "héllo" {
		t.Errorf("String = %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("empty Bytes = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x01})
	_ = r.Uint64() // truncated
	if r.Err() == nil {
		t.Fatal("expected error after truncated read")
	}
	// All subsequent reads return zero values without panicking.
	if got := r.Uint8(); got != 0 {
		t.Errorf("Uint8 after error = %d", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("String after error = %q", got)
	}
	if r.Done() == nil {
		t.Error("Done succeeded after error")
	}
}

func TestDoneRejectsTrailingBytes(t *testing.T) {
	w := NewWriter(8)
	w.PutUint8(1)
	w.PutUint8(2)
	r := NewReader(w.Bytes())
	r.Uint8()
	if err := r.Done(); err == nil {
		t.Error("Done accepted trailing bytes")
	}
}

func TestBytesLengthOverflow(t *testing.T) {
	w := NewWriter(16)
	w.PutUvarint(1 << 50) // absurd length prefix
	r := NewReader(w.Bytes())
	if got := r.Bytes(); got != nil {
		t.Errorf("Bytes = %v, want nil", got)
	}
	if r.Err() == nil {
		t.Error("expected error on oversized length prefix")
	}
}

func TestBytesCopyDoesNotAlias(t *testing.T) {
	w := NewWriter(16)
	w.PutBytes([]byte("abc"))
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.BytesCopy()
	buf[len(buf)-1] = 'X' // mutate source
	if string(got) != "abc" {
		t.Errorf("BytesCopy aliased source: %q", got)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.PutUint64(7)
	if w.Len() != 8 {
		t.Fatalf("Len = %d", w.Len())
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	w.PutUint8(3)
	r := NewReader(w.Bytes())
	if got := r.Uint8(); got != 3 {
		t.Errorf("after reset read %d", got)
	}
}

// Property: sequences of (string, bytes, u64) round-trip.
func TestRoundTripProperty(t *testing.T) {
	f := func(s string, b []byte, v uint64, i int64) bool {
		w := NewWriter(32)
		w.PutString(s)
		w.PutBytes(b)
		w.PutUvarint(v)
		w.PutInt64(i)
		r := NewReader(w.Bytes())
		gs := r.String()
		gb := r.Bytes()
		gv := r.Uvarint()
		gi := r.Int64()
		return r.Done() == nil && gs == s && bytes.Equal(gb, b) && gv == v && gi == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the decoder never panics on arbitrary input.
func TestDecoderNeverPanics(t *testing.T) {
	f := func(input []byte) bool {
		r := NewReader(input)
		r.Uint8()
		r.Uvarint()
		r.Bytes()
		_ = r.String()
		r.Uint64()
		_ = r.Done()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWriterPoolReuse(t *testing.T) {
	w := GetWriter(32)
	w.PutString("hello")
	if got := w.Len(); got == 0 {
		t.Fatal("pooled writer did not accept writes")
	}
	buf := w.Bytes()
	r := NewReader(buf)
	if r.String() != "hello" {
		t.Fatal("pooled writer round-trip failed")
	}
	w.Free()

	// A re-acquired writer must come back empty regardless of history.
	w2 := GetWriter(8)
	if w2.Len() != 0 {
		t.Errorf("recycled writer not reset: %d bytes", w2.Len())
	}
	w2.PutUint64(42)
	r2 := NewReader(w2.Bytes())
	if r2.Uint64() != 42 {
		t.Error("recycled writer wrote wrong bytes")
	}
	w2.Free()
}

func TestWriterPoolDropsOversizedBuffers(t *testing.T) {
	w := GetWriter(maxPooledCap + 1)
	w.Free() // must not retain > maxPooledCap buffers
	w = GetWriter(16)
	if cap(w.buf) > maxPooledCap {
		t.Errorf("pool retained %d-byte buffer beyond cap %d", cap(w.buf), maxPooledCap)
	}
	w.Free()
}

// TestPeekRaw: Peek shows the unread bytes without consuming them, Raw
// consumes exactly n of them (capped, aliasing the buffer), and both
// honour the sticky error.
func TestPeekRaw(t *testing.T) {
	buf := []byte{1, 2, 3, 4, 5}
	r := NewReader(buf)
	r.Uint8()
	if got := r.Peek(); !bytes.Equal(got, buf[1:]) || r.Remaining() != 4 {
		t.Fatalf("Peek = %v, remaining %d", got, r.Remaining())
	}
	raw := r.Raw(3)
	if !bytes.Equal(raw, []byte{2, 3, 4}) || &raw[0] != &buf[1] || cap(raw) != 3 {
		t.Fatalf("Raw(3) = %v (cap %d)", raw, cap(raw))
	}
	if r.Uint8() != 5 || r.Done() != nil {
		t.Fatal("Raw consumed the wrong number of bytes")
	}
	if r.Raw(1) != nil || r.Peek() != nil || r.Err() == nil {
		t.Fatal("Raw past the end did not fail, or Peek ignored the error")
	}
	if r := NewReader(buf); r.Raw(-1) != nil || r.Err() == nil {
		t.Fatal("Raw(-1) did not fail")
	}
}
