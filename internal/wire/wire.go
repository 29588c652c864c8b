// Package wire implements a compact, allocation-conscious binary codec
// used by the CLBFT and Perpetual message formats. It is deliberately
// simple: fixed-width integers are big-endian, variable-length values are
// uvarint-prefixed, and decoding is error-sticky (after the first
// malformed field, every subsequent read returns zero values and Err()
// reports the failure). Error-stickiness keeps message decoders linear
// and panic-free even on adversarial input, which matters in a Byzantine
// setting where any peer may send garbage.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrTruncated indicates the buffer ended before a complete field.
var ErrTruncated = errors.New("wire: truncated input")

// ErrTooLarge indicates a length prefix exceeding the remaining input.
var ErrTooLarge = errors.New("wire: length prefix exceeds input")

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// writerPool recycles encode buffers across messages. Encoding is the
// hottest allocation site in the system (every agreement message of
// every replica passes through a Writer), so hot paths borrow pooled
// writers instead of allocating fresh ones.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// maxPooledCap bounds the buffers the pool retains: a rare huge message
// (checkpoint transfer, view change) must not pin megabytes forever.
const maxPooledCap = 64 << 10

// GetWriter returns a pooled writer, reset and grown to at least the
// given capacity hint. Callers must not let the writer's Bytes escape
// past the matching Free.
func GetWriter(capacity int) *Writer {
	w := writerPool.Get().(*Writer)
	w.buf = w.buf[:0]
	if cap(w.buf) < capacity {
		w.buf = make([]byte, 0, capacity)
	}
	return w
}

// Free returns the writer to the pool. The writer and any slice
// obtained from Bytes must not be used afterwards.
func (w *Writer) Free() {
	if cap(w.buf) <= maxPooledCap {
		writerPool.Put(w)
	}
}

// Bytes returns the encoded buffer. The buffer is owned by the writer
// until the caller stops using the writer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of encoded bytes so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset clears the writer for reuse, retaining the allocation.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// PutUint8 appends a single byte.
func (w *Writer) PutUint8(v uint8) { w.buf = append(w.buf, v) }

// PutUint16 appends a big-endian uint16.
func (w *Writer) PutUint16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// PutUint32 appends a big-endian uint32.
func (w *Writer) PutUint32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// PutUint64 appends a big-endian uint64.
func (w *Writer) PutUint64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// PutInt64 appends an int64 using zig-zag-free two's complement encoding.
func (w *Writer) PutInt64(v int64) { w.PutUint64(uint64(v)) }

// PutUvarint appends an unsigned varint.
func (w *Writer) PutUvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// PutBytes appends a uvarint length prefix followed by b.
func (w *Writer) PutBytes(b []byte) {
	w.PutUvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// PutString appends a uvarint length prefix followed by the string bytes.
func (w *Writer) PutString(s string) {
	w.PutUvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// PutRaw appends b as is, with no length prefix.
func (w *Writer) PutRaw(b []byte) { w.buf = append(w.buf, b...) }

// PutRawString appends s as is, with no length prefix.
func (w *Writer) PutRawString(s string) { w.buf = append(w.buf, s...) }

// Reader decodes an encoded message. Construct with NewReader.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over buf. The reader does not copy buf;
// decoded byte slices alias it unless the caller copies them.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns an error unless the reader consumed the whole buffer
// without errors. Message decoders call it last to reject trailing junk.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// Fail records err as the decoding error unless an earlier one is
// already recorded. Message decoders call it for fields that are well
// formed at this level but invalid at theirs (a fixed-size value of the
// wrong length), so such input is rejected like any other malformed
// field.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.Fail(ErrTruncated)
		return nil
	}
	// Capped, so appending to a field that aliases the buffer reallocates
	// instead of writing over the bytes that follow it.
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Uint8 reads one byte.
func (r *Reader) Uint8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Uint16 reads a big-endian uint16.
func (r *Reader) Uint16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// Uint32 reads a big-endian uint32.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 reads a big-endian uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int64 reads an int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// Bytes reads a uvarint-length-prefixed byte slice. The returned slice
// aliases the reader's buffer.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > math.MaxInt32 || int(n) > r.Remaining() {
		r.Fail(ErrTooLarge)
		return nil
	}
	return r.take(int(n))
}

// BytesCopy reads a length-prefixed byte slice and copies it, so the
// result remains valid after the source buffer is reused. Empty values
// decode as nil, so encode/decode round-trips preserve deep equality of
// messages built with nil slices.
func (r *Reader) BytesCopy() []byte {
	b := r.Bytes()
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Peek returns the unread bytes without consuming them, or nil after an
// error. It lets a decoder measure a field whose framing it validates
// itself before reading it with Raw; the slice aliases the buffer.
func (r *Reader) Peek() []byte {
	if r.err != nil {
		return nil
	}
	return r.buf[r.off:]
}

// Raw reads the next n bytes as they are, with no length prefix. The
// returned slice aliases the reader's buffer, capped like Bytes.
func (r *Reader) Raw(n int) []byte {
	if n < 0 {
		r.Fail(ErrTooLarge)
		return nil
	}
	return r.take(n)
}

// String reads a uvarint-length-prefixed string.
func (r *Reader) String() string {
	b := r.Bytes()
	if b == nil {
		return ""
	}
	return string(b)
}
