package clbft

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// TestRequestDigestMatchesReference: Digest, hashing out of a pooled
// buffer, must be bit-identical to the streamed construction it
// replaced (the digest is on the wire in every pre-prepare).
func TestRequestDigestMatchesReference(t *testing.T) {
	reference := func(r *Request) Digest {
		h := sha256.New()
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(r.OpID)))
		h.Write(n[:])
		h.Write([]byte(r.OpID))
		h.Write(r.Op)
		var d Digest
		h.Sum(d[:0])
		return d
	}
	for _, idLen := range []int{0, 1, 23, 500} {
		for _, opLen := range []int{0, 1, 64, 1000} {
			r := &Request{OpID: string(bytes.Repeat([]byte{'i'}, idLen)), Op: bytes.Repeat([]byte{9}, opLen)}
			if got, want := r.Digest(), reference(r); got != want {
				t.Errorf("OpID %d bytes, Op %d bytes: Digest %s, reference %s", idLen, opLen, got, want)
			}
		}
	}
}

// countingValidator accepts everything and hands back the number of the
// call that validated it as the parsed value.
type countingValidator struct{ calls int }

func (c *countingValidator) validate(string, []byte) (any, bool) {
	c.calls++
	return c.calls, true
}

// TestOperationValidatedOncePerReplica: an operation submitted at a
// replica is validated when it is buffered and not again when the
// pre-prepare carrying the same bytes is accepted; the delivery carries
// the value that one validation parsed.
func TestOperationValidatedOncePerReplica(t *testing.T) {
	for _, maxBatch := range []int{0, 8} {
		cv := &countingValidator{}
		var delivered []Delivery
		r, err := New(Config{ID: 0, N: 1, MaxBatch: maxBatch}, clbftNopTransport{},
			func(d Delivery) { delivered = append(delivered, d) }, WithValidator(cv.validate))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			r.onSubmit(&Request{OpID: fmt.Sprintf("op-%d", i), Op: []byte{byte(i)}})
		}
		if len(delivered) != 3 {
			t.Fatalf("MaxBatch %d: %d deliveries, want 3", maxBatch, len(delivered))
		}
		if cv.calls != 3 {
			t.Errorf("MaxBatch %d: validator ran %d times for 3 operations", maxBatch, cv.calls)
		}
		for i, d := range delivered {
			if d.Parsed != i+1 || !bytes.Equal(d.Op, []byte{byte(i)}) {
				t.Errorf("MaxBatch %d: delivery %d = %+v, want the value parsed by validation %d", maxBatch, i, d, i+1)
			}
		}
	}
}

// TestVerdictReusedOnlyForIdenticalBytes: a buffered operation's verdict
// must not vouch for a pre-prepare that carries different bytes under
// the same OpID, nor once the verdict epoch has moved, nor for anything
// in the next replica instance (the next membership epoch): operations
// carried across a Bootstrap are validated again, and a re-submission
// replaces the verdict with its own.
func TestVerdictReusedOnlyForIdenticalBytes(t *testing.T) {
	cv := &countingValidator{}
	cfg := Config{ID: 1, N: 4} // a backup: nothing it buffers gets ordered here
	var epoch uint64
	r, err := New(cfg, clbftNopTransport{}, nil, WithValidator(cv.validate),
		WithVerdictEpoch(func() uint64 { return epoch }))
	if err != nil {
		t.Fatal(err)
	}
	buffered := &Request{OpID: "x", Op: []byte("credentials-1")}
	r.onSubmit(buffered)
	if cv.calls != 1 {
		t.Fatalf("validator ran %d times at submission", cv.calls)
	}

	same := &Request{OpID: "x", Op: []byte("credentials-1")}
	if _, ops, ok := r.accept(same, same.Digest()); !ok || ops[0].parsed != 1 || cv.calls != 1 {
		t.Errorf("identical bytes: ok=%v parsed=%v after %d validator calls; want the buffered verdict reused", ok, ops, cv.calls)
	}
	other := &Request{OpID: "x", Op: []byte("credentials-2")}
	if _, ops, ok := r.accept(other, other.Digest()); !ok || ops[0].parsed != 2 || cv.calls != 2 {
		t.Errorf("different bytes under the same OpID: ok=%v parsed=%v after %d validator calls; want a fresh validation", ok, ops, cv.calls)
	}
	epoch++ // what the verdict depended on besides the bytes has changed
	if _, ops, ok := r.accept(same, same.Digest()); !ok || ops[0].parsed != 3 || cv.calls != 3 {
		t.Errorf("identical bytes in the next verdict epoch: ok=%v parsed=%v after %d validator calls; want a fresh validation", ok, ops, cv.calls)
	}

	// The next incarnation starts from the exported snapshot.
	r.Start()
	r.Stop()
	bs := r.ExportBootstrap()
	if len(bs.Pending) != 1 {
		t.Fatalf("bootstrap carries %d pending operations, want 1", len(bs.Pending))
	}
	next := &countingValidator{}
	r2, err := NewFromBootstrap(cfg, clbftNopTransport{}, nil, bs, WithValidator(next.validate))
	if err != nil {
		t.Fatal(err)
	}
	if _, ops, ok := r2.accept(same, same.Digest()); !ok || ops[0].parsed != 1 || next.calls != 1 {
		t.Errorf("carried operation: ok=%v parsed=%v after %d validator calls in the new instance; want it validated there", ok, ops, next.calls)
	}
	// Fresher credentials arrive by re-submission and take the slot.
	fresh := &Request{OpID: "x", Op: []byte("credentials-3")}
	r2.onSubmit(fresh)
	if next.calls != 2 || len(r2.pending) != 1 {
		t.Fatalf("re-submission: %d validator calls, %d buffered", next.calls, len(r2.pending))
	}
	if _, ops, ok := r2.accept(fresh, fresh.Digest()); !ok || ops[0].parsed != 2 || next.calls != 2 {
		t.Errorf("re-submitted bytes: ok=%v parsed=%v after %d calls; want the re-submission's verdict reused", ok, ops, next.calls)
	}
	if _, ops, ok := r2.accept(same, same.Digest()); !ok || ops[0].parsed != 3 || next.calls != 3 {
		t.Errorf("stale bytes after re-submission: ok=%v parsed=%v after %d calls; want a fresh validation", ok, ops, next.calls)
	}
}

// TestAgreementAllocBudget pins the allocation counts of the per-request
// work on the agreement path.
func TestAgreementAllocBudget(t *testing.T) {
	inner := make([]*Request, 4)
	for i := range inner {
		inner[i] = &Request{OpID: fmt.Sprintf("req:client:%d", 1000+i), Op: bytes.Repeat([]byte{byte(i)}, 600)}
	}
	batch := encodeBatch(inner)
	var chain Digest
	r, err := New(Config{ID: 1, N: 4}, clbftNopTransport{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := batch.Digest()
	frame := votesMsg(Vote{Phase: PhasePrepare, View: 0, Seq: 3, Digest: d},
		Vote{Phase: PhaseCommit, View: 0, Seq: 1, Digest: d}, Vote{Phase: PhaseCommit, View: 0, Seq: 2, Digest: d}).Encode()
	var taken []event
	receive := func() {
		r.ReceiveEncoded(2, frame)
		if taken, _ = r.inbox.Take(taken); len(taken) != 3 {
			t.Fatalf("a frame of 3 votes queued %d events", len(taken))
		}
	}
	receive()
	receive() // both of the inbox's alternating slices have grown
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Request.Digest", 0, func() { chain = batch.Digest() }},
		{"chainDigest", 0, func() { chain = chainDigest(chain, 7, chain) }},
		// The entry vector and one OpID string per entry; Ops alias the body.
		{"decodeBatch of 4 operations", 5, func() {
			if ops, err := decodeBatch(batch); err != nil || len(ops) != 4 {
				t.Fatalf("decodeBatch: %d ops, %v", len(ops), err)
			}
		}},
		// The body, the OpID string and the Request.
		{"encodeBatch of 4 operations", 3, func() { encodeBatch(inner) }},
		// Each vote travels by value from the frame into its event.
		{"ReceiveEncoded of a prepare and two commits", 0, receive},
	} {
		if got := testing.AllocsPerRun(200, c.f); got > c.max {
			t.Errorf("%s: %.0f allocs per run, budget %.0f", c.name, got, c.max)
		}
	}
}

// TestDecodeBatchAliasesBody states decodeBatch's ownership contract:
// entries point into the batch body, capped so an append cannot run
// into the next entry.
func TestDecodeBatchAliasesBody(t *testing.T) {
	batch := encodeBatch([]*Request{{OpID: "a", Op: []byte("first")}, {OpID: "b", Op: []byte("second")}})
	body := bytes.Clone(batch.Op)
	ops, err := decodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if i := bytes.Index(batch.Op, []byte("first")); &ops[0].Op[0] != &batch.Op[i] {
		t.Error("decodeBatch copied an entry")
	}
	_ = append(ops[0].Op, "overrun"...)
	if !bytes.Equal(batch.Op, body) {
		t.Error("appending to a decoded entry wrote into the batch body")
	}
}

// TestAcceptBoundsBatchToPosition: an operation's index in its batch is
// the low 16 bits of its position, so a batch of 1<<16 operations is
// refused whatever MaxBatch is, and one of 1<<16 − 1 fits when batching
// is unbounded by configuration.
func TestAcceptBoundsBatchToPosition(t *testing.T) {
	batch := func(n int) *Request {
		ops := make([]*Request, n)
		for i := range ops {
			ops[i] = &Request{OpID: fmt.Sprint("op-", i), Op: []byte{1}}
		}
		return encodeBatch(ops)
	}
	over, full := batch(1<<16), batch(1<<16-1)
	for _, maxBatch := range []int{0, 32} {
		r, err := New(Config{ID: 1, N: 4, MaxBatch: maxBatch}, clbftNopTransport{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := r.accept(over, over.Digest()); ok {
			t.Errorf("MaxBatch %d: a batch of 1<<16 operations was accepted", maxBatch)
		}
		if _, ops, ok := r.accept(full, full.Digest()); ok != (maxBatch == 0) || (ok && len(ops) != 1<<16-1) {
			t.Errorf("MaxBatch %d: a batch of 1<<16-1 operations accepted %v with %d ops", maxBatch, ok, len(ops))
		}
	}
}

// TestDeliveryPositionNamesTheOperation: every operation of a batch is
// delivered under its batch's sequence with its own position, and an
// unbatched one at index 0; positions order the deliveries.
func TestDeliveryPositionNamesTheOperation(t *testing.T) {
	var delivered []Delivery
	r, err := New(Config{ID: 0, N: 1}, clbftNopTransport{}, func(d Delivery) { delivered = append(delivered, d) })
	if err != nil {
		t.Fatal(err)
	}
	r.onSubmit(&Request{OpID: "solo", Op: []byte{0}})
	b := encodeBatch([]*Request{{OpID: "a", Op: []byte{1}}, {OpID: "b", Op: []byte{2}}})
	d, ops, ok := r.accept(b, b.Digest())
	if !ok {
		t.Fatal("batch refused")
	}
	r.applyOp(2, b, d, ops, false)
	want := []uint64{Position(1, 0), Position(2, 0), Position(2, 1)}
	if len(delivered) != len(want) {
		t.Fatalf("%d deliveries, want %d", len(delivered), len(want))
	}
	if want[0] >= want[1] || want[1] >= want[2] {
		t.Errorf("positions %#x do not order the deliveries", want)
	}
	for i, d := range delivered {
		if d.Pos != want[i] || SeqOf(d.Pos) != d.Seq {
			t.Errorf("delivery %d (%s) at seq %d has position %#x, want %#x", i, d.OpID, d.Seq, d.Pos, want[i])
		}
	}
}
