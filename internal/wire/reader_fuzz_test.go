package wire

import "testing"

// FuzzWireReader drives the Reader primitives over arbitrary input in an
// order taken from the input too: ops[i] picks the i-th read (and, for
// Raw, its length). No read may panic, Remaining never goes negative or
// grows, and the first error sticks: Err keeps returning it, and every
// later read consumes nothing.
func FuzzWireReader(f *testing.F) {
	w := NewWriter(64)
	w.PutUint8(0xAB)
	w.PutUint16(0xBEEF)
	w.PutUint32(0xDEADBEEF)
	w.PutUint64(1 << 63)
	w.PutInt64(-42)
	w.PutUvarint(1 << 40)
	w.PutBytes([]byte{1, 2, 3})
	w.PutBytes([]byte{4})
	w.PutRaw([]byte{5, 6})
	w.PutString("héllo")
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8 + 12*4, 9, 10}, w.Bytes())
	f.Add([]byte{6, 6, 6, 6}, []byte{0x80, 0x80, 0x80})
	f.Add([]byte{6, 10}, []byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, ops, buf []byte) {
		r := NewReader(buf)
		var sticky error
		for _, op := range ops {
			before := r.Remaining()
			switch op % 12 {
			case 0:
				r.Uint8()
			case 1:
				r.Uint16()
			case 2:
				r.Uint32()
			case 3:
				r.Uint64()
			case 4:
				r.Int64()
			case 5:
				r.Uvarint()
			case 6:
				r.Bytes()
			case 7:
				r.BytesCopy()
			case 8:
				r.Raw(int(op>>4) - 1)
			case 9:
				_ = r.String()
			case 10:
				if p := r.Peek(); r.Err() == nil && len(p) != r.Remaining() {
					t.Fatalf("Peek returned %d bytes, %d remain", len(p), r.Remaining())
				}
			case 11:
				_ = r.Done()
			}
			rem := r.Remaining()
			if rem < 0 || rem > before {
				t.Fatalf("op %d: Remaining went from %d to %d", op%12, before, rem)
			}
			if sticky != nil {
				if r.Err() != sticky {
					t.Fatalf("op %d: error %v replaced the first error %v", op%12, r.Err(), sticky)
				}
				if rem != before {
					t.Fatalf("op %d consumed %d bytes after the error", op%12, before-rem)
				}
			}
			sticky = r.Err()
		}
	})
}
