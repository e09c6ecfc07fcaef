package packet

import (
	"encoding/binary"
	"testing"
)

// TestAppendMarshalMatchesMarshal checks the two encoders produce
// identical bytes and that AppendMarshal really appends.
func TestAppendMarshalMatchesMarshal(t *testing.T) {
	p := NewUpdate(7, 3, 1, 42, 1<<40, []int32{1, -2, 3, -2147483648, 2147483647})
	want := p.Marshal()
	prefix := []byte{0xAA, 0xBB}
	got := p.AppendMarshal(append([]byte(nil), prefix...))
	if len(got) != len(prefix)+len(want) {
		t.Fatalf("AppendMarshal length = %d, want %d", len(got), len(prefix)+len(want))
	}
	if got[0] != 0xAA || got[1] != 0xBB {
		t.Error("AppendMarshal clobbered the prefix")
	}
	for i := range want {
		if got[len(prefix)+i] != want[i] {
			t.Fatalf("byte %d: got %#x want %#x", i, got[len(prefix)+i], want[i])
		}
	}
}

// TestElemCodecMatchesReference checks the 8-element block loops of
// the payload codec against a plain per-element loop at every length
// around the block boundaries, up to an MTU packet.
func TestElemCodecMatchesReference(t *testing.T) {
	for n := 0; n <= MTUElems; n++ {
		if n > 42 && n != MTUElems-1 && n != MTUElems {
			continue
		}
		vec := make([]int32, n)
		for i := range vec {
			vec[i] = int32(uint32(i)*0x9E3779B9) ^ -1<<31
		}
		buf := NewUpdate(1, 2, 1, 3, 4, vec).Marshal()
		for i, v := range vec {
			if got := binary.BigEndian.Uint32(buf[marshalHeaderBytes+ElemBytes*i:]); got != uint32(v) {
				t.Fatalf("n=%d: element %d encoded as %#x, want %#x", n, i, got, uint32(v))
			}
		}
		var q Packet
		if err := UnmarshalInto(&q, buf); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(q.Vector) != n {
			t.Fatalf("n=%d: decoded %d elements", n, len(q.Vector))
		}
		for i := range vec {
			if q.Vector[i] != vec[i] {
				t.Fatalf("n=%d: element %d decoded as %d, want %d", n, i, q.Vector[i], vec[i])
			}
		}
	}
}

// TestUnmarshalIntoReusesVector checks capacity reuse and that a
// failed parse leaves the destination untouched.
func TestUnmarshalIntoReusesVector(t *testing.T) {
	big := NewUpdate(1, 0, 0, 2, 64, make([]int32, DefaultElems))
	buf := big.Marshal()
	var p Packet
	if err := UnmarshalInto(&p, buf); err != nil {
		t.Fatalf("UnmarshalInto: %v", err)
	}
	firstCap := cap(p.Vector)
	small := NewUpdate(2, 0, 1, 3, 96, []int32{9, 8, 7})
	if err := UnmarshalInto(&p, small.Marshal()); err != nil {
		t.Fatalf("UnmarshalInto: %v", err)
	}
	if cap(p.Vector) != firstCap {
		t.Errorf("vector capacity not reused: %d -> %d", firstCap, cap(p.Vector))
	}
	if p.WorkerID != 2 || len(p.Vector) != 3 || p.Vector[2] != 7 {
		t.Errorf("decode mismatch: %v", &p)
	}
	// A corrupted buffer must not modify p.
	bad := append([]byte(nil), buf...)
	bad[25] ^= 0xFF
	before := p.String()
	if err := UnmarshalInto(&p, bad); err == nil {
		t.Fatal("corrupted buffer accepted")
	}
	if p.String() != before {
		t.Errorf("failed parse modified destination: %v -> %v", before, p.String())
	}
}

// TestRoundTripZeroAlloc is the tentpole assertion: a steady-state
// marshal/unmarshal round trip performs no allocation.
func TestRoundTripZeroAlloc(t *testing.T) {
	src := NewUpdate(3, 0, 1, 42, 4096, make([]int32, DefaultElems))
	wire := make([]byte, 0, src.MarshalledSize())
	var dst Packet
	// Warm up so dst.Vector has capacity.
	wire = src.AppendMarshal(wire[:0])
	if err := UnmarshalInto(&dst, wire); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		wire = src.AppendMarshal(wire[:0])
		if err := UnmarshalInto(&dst, wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("marshal/unmarshal round trip allocates %.1f/op, want 0", allocs)
	}
}

// TestSetUpdateZeroAlloc covers the pooled-sender path: rewriting a
// packet in place with a same-size vector must not allocate.
func TestSetUpdateZeroAlloc(t *testing.T) {
	vec := make([]int32, DefaultElems)
	p := GetPacket()
	defer PutPacket(p)
	p.SetUpdate(0, 0, 0, 0, 0, vec) // warm the vector capacity
	allocs := testing.AllocsPerRun(100, func() {
		p.SetUpdate(5, 1, 1, 9, 288, vec)
	})
	if allocs != 0 {
		t.Errorf("SetUpdate allocates %.1f/op, want 0", allocs)
	}
	if p.WorkerID != 5 || p.Idx != 9 || len(p.Vector) != DefaultElems {
		t.Errorf("SetUpdate fields wrong: %v", p)
	}
}

// TestPacketPoolResets checks pooled packets come back empty.
func TestPacketPoolResets(t *testing.T) {
	p := GetPacket()
	p.SetUpdate(3, 1, 1, 7, 320, []int32{1, 2, 3})
	PutPacket(p)
	q := GetPacket()
	defer PutPacket(q)
	if q.Kind != KindUpdate || q.WorkerID != 0 || q.Idx != 0 || q.Off != 0 || len(q.Vector) != 0 {
		t.Errorf("pooled packet not reset: %v", q)
	}
}

// TestBufPool checks wire buffers come back empty with capacity.
func TestBufPool(t *testing.T) {
	b := GetBuf()
	if len(*b) != 0 {
		t.Errorf("pooled buf has len %d, want 0", len(*b))
	}
	if cap(*b) < marshalHeaderBytes+ElemBytes*MTUElems {
		t.Errorf("pooled buf cap %d below one MTU packet", cap(*b))
	}
	*b = append(*b, 1, 2, 3)
	PutBuf(b)
	c := GetBuf()
	defer PutBuf(c)
	if len(*c) != 0 {
		t.Errorf("reused buf has len %d, want 0", len(*c))
	}
}

// TestPatchWorkerID checks the in-place rewrite keeps the packet
// valid and only changes the worker id.
func TestPatchWorkerID(t *testing.T) {
	p := NewControl(KindReconfig, 0, 5, 0, []int32{0, 2, 3})
	buf := p.Marshal()
	if err := PatchWorkerID(buf, 2); err != nil {
		t.Fatalf("PatchWorkerID: %v", err)
	}
	q, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("patched packet rejected: %v", err)
	}
	if q.WorkerID != 2 {
		t.Errorf("WorkerID = %d, want 2", q.WorkerID)
	}
	if q.Kind != KindReconfig || q.JobID != 5 || len(q.Vector) != 3 {
		t.Errorf("patch disturbed other fields: %v", q)
	}
	if err := PatchWorkerID(make([]byte, 4), 1); err == nil {
		t.Error("short buffer accepted")
	}
}
