package packet

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

// newCRC is the reference checksum: CRC-32C (Castagnoli), computed
// through the generic hash.Hash32 interface rather than the codec's
// own path.
func newCRC() hash.Hash32 { return crc32.New(crc32.MakeTable(crc32.Castagnoli)) }

func TestWireSizeMatchesPaperBudget(t *testing.T) {
	// The paper's deployment uses 180-byte packets for 32 elements and
	// 1516-byte frames for 366 elements (§3.6, §5.5).
	p := &Packet{Vector: make([]int32, DefaultElems)}
	if got := p.WireSize(); got != 180 {
		t.Errorf("WireSize with k=32 = %d, want 180", got)
	}
	p.Vector = make([]int32, MTUElems)
	if got := p.WireSize(); got != 1516 {
		t.Errorf("WireSize with k=366 = %d, want 1516", got)
	}
}

func TestHeaderOverheadFractions(t *testing.T) {
	// §5.5: header overhead is 28.9% at k=32 and 3.4% at MTU size.
	small := &Packet{Vector: make([]int32, DefaultElems)}
	if frac := float64(HeaderBytes) / float64(small.WireSize()); frac < 0.288 || frac > 0.290 {
		t.Errorf("small-packet header fraction = %.4f, want ~0.289", frac)
	}
	big := &Packet{Vector: make([]int32, MTUElems)}
	if frac := float64(HeaderBytes) / float64(big.WireSize()); frac < 0.033 || frac > 0.035 {
		t.Errorf("MTU-packet header fraction = %.4f, want ~0.034", frac)
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	p := NewUpdate(7, 3, 1, 42, 1<<40, []int32{1, -2, 3, -2147483648, 2147483647})
	p.Kind = KindResultUnicast
	buf := p.Marshal()
	q, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if q.Kind != p.Kind || q.WorkerID != p.WorkerID || q.JobID != p.JobID ||
		q.Ver != p.Ver || q.Idx != p.Idx || q.Off != p.Off {
		t.Errorf("header mismatch: got %v want %v", q, p)
	}
	if len(q.Vector) != len(p.Vector) {
		t.Fatalf("vector length mismatch: got %d want %d", len(q.Vector), len(p.Vector))
	}
	for i := range p.Vector {
		if q.Vector[i] != p.Vector[i] {
			t.Errorf("vector[%d] = %d, want %d", i, q.Vector[i], p.Vector[i])
		}
	}
}

func TestMarshalRoundTripQuick(t *testing.T) {
	f := func(kind uint8, worker, job uint16, ver uint8, idx uint32, off uint64, vec []int32) bool {
		p := &Packet{
			Kind:     Kind(kind % 3),
			WorkerID: worker,
			JobID:    job,
			Ver:      ver % 2,
			Idx:      idx,
			Off:      off,
			Vector:   vec,
		}
		q, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		if q.Kind != p.Kind || q.WorkerID != p.WorkerID || q.JobID != p.JobID ||
			q.Ver != p.Ver || q.Idx != p.Idx || q.Off != p.Off || len(q.Vector) != len(p.Vector) {
			return false
		}
		for i := range vec {
			if q.Vector[i] != vec[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	p := NewUpdate(1, 0, 0, 5, 160, make([]int32, DefaultElems))
	buf := p.Marshal()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 64; trial++ {
		corrupted := append([]byte(nil), buf...)
		i := rng.Intn(len(corrupted))
		corrupted[i] ^= byte(1 + rng.Intn(255))
		if _, err := Unmarshal(corrupted); err == nil {
			// Flipping a bit somewhere must be caught by the magic
			// check, the kind check, or the CRC. A flip inside the CRC
			// field itself is caught by the CRC comparison.
			t.Errorf("corruption at byte %d not detected", i)
		}
	}
}

func TestUnmarshalRejectsShortAndMisaligned(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("Unmarshal(nil) succeeded, want error")
	}
	if _, err := Unmarshal(make([]byte, 10)); err == nil {
		t.Error("Unmarshal(short) succeeded, want error")
	}
	p := NewUpdate(0, 0, 0, 0, 0, []int32{1, 2})
	buf := p.Marshal()
	if _, err := Unmarshal(buf[:len(buf)-1]); err == nil {
		t.Error("Unmarshal(misaligned payload) succeeded, want error")
	}
}

func TestUnmarshalRejectsBadMagicAndKind(t *testing.T) {
	p := NewUpdate(0, 0, 0, 0, 0, nil)
	buf := p.Marshal()
	bad := append([]byte(nil), buf...)
	binary.BigEndian.PutUint16(bad[0:2], 0x1234)
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), buf...)
	bad[2] = 99
	// Re-seal the checksum so only the kind is invalid.
	reSeal(bad)
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad kind accepted")
	} else if !errors.Is(err, ErrBadKind) {
		// The re-sealed checksum must match the codec's, so only the
		// kind check can reject the packet.
		t.Errorf("bad kind rejected with %v, want %v", err, ErrBadKind)
	}
}

// TestWireGolden pins the exact marshalled bytes of one update and one
// result: field layout, byte order and the CRC-32C value. A change to
// any of them makes binaries reject each other's datagrams, so it must
// show up here.
func TestWireGolden(t *testing.T) {
	cases := []struct {
		name string
		p    *Packet
		hex  string
	}{
		{
			"update",
			NewUpdate(3, 7, 1, 42, 1<<33|288, []int32{1, -2, 0x01020304, -2147483648}),
			"534d0001000300070000002a0000000200000120" + // header
				"80ff6877" + // CRC-32C
				"00000001fffffffe0102030480000000", // payload
		},
		{
			"result",
			&Packet{Kind: KindResult, WorkerID: 1, JobID: 7, Idx: 5, Off: 160, Vector: []int32{2, 4, -6}},
			"534d0100000100070000000500000000000000a0" + // header
				"7ebeec4e" + // CRC-32C
				"0000000200000004fffffffa", // payload
		},
	}
	for _, tc := range cases {
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		got := tc.p.Marshal()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: marshalled\n%x\nwant\n%x", tc.name, got, want)
		}
		if crc := crcOf(want); crc != binary.BigEndian.Uint32(want[20:24]) {
			t.Errorf("%s: golden checksum %08x, reference CRC-32C %08x", tc.name, binary.BigEndian.Uint32(want[20:24]), crc)
		}
		var q Packet
		if err := UnmarshalInto(&q, want); err != nil {
			t.Fatalf("%s: golden bytes rejected: %v", tc.name, err)
		}
		if !bytes.Equal(q.Marshal(), want) {
			t.Errorf("%s: decode/encode of the golden bytes is not the identity", tc.name)
		}
	}
	// The reference polynomial is CRC-32C: its standard check value.
	if got := crc32.Checksum([]byte("123456789"), crc32.MakeTable(crc32.Castagnoli)); got != 0xE3069283 {
		t.Errorf("CRC-32C check value = %08x, want e3069283", got)
	}
}

// TestUnmarshalRejectsEverySingleBitFlip flips each bit of a
// marshalled update and of a result in turn: every single-bit error
// must be rejected (CRC-32C detects all of them; flips in the magic or
// the length are caught earlier).
func TestUnmarshalRejectsEverySingleBitFlip(t *testing.T) {
	for _, p := range []*Packet{
		NewUpdate(1, 4, 1, 5, 160, []int32{7, -7, 1 << 30, 0, 3}),
		{Kind: KindResultUnicast, WorkerID: 2, JobID: 4, Idx: 63, Off: 1 << 20, Vector: make([]int32, DefaultElems)},
	} {
		buf := p.Marshal()
		var q Packet
		for bit := 0; bit < 8*len(buf); bit++ {
			flipped := append([]byte(nil), buf...)
			flipped[bit/8] ^= 1 << (bit % 8)
			if err := UnmarshalInto(&q, flipped); err == nil {
				t.Errorf("%v: flip of bit %d (byte %d) accepted", p, bit%8, bit/8)
			}
		}
	}
}

// reSeal recomputes the CRC of a marshalled packet in place, used by
// tests that want exactly one field invalid.
func reSeal(buf []byte) {
	q := &Packet{}
	_ = q
	// Mirror Marshal's checksum computation.
	crc := crcOf(buf)
	binary.BigEndian.PutUint32(buf[20:24], crc)
}

func crcOf(buf []byte) uint32 {
	h := newCRC()
	h.Write(buf[:20])
	h.Write(buf[24:])
	return h.Sum32()
}

func TestCloneIsDeep(t *testing.T) {
	p := NewUpdate(1, 0, 0, 2, 64, []int32{10, 20})
	q := p.Clone()
	q.Vector[0] = 99
	q.Idx = 7
	if p.Vector[0] != 10 || p.Idx != 2 {
		t.Errorf("Clone aliased the original: %v", p)
	}
}

func TestNewUpdateCopiesVector(t *testing.T) {
	src := []int32{1, 2, 3}
	p := NewUpdate(0, 0, 0, 0, 0, src)
	src[0] = 42
	if p.Vector[0] != 1 {
		t.Error("NewUpdate aliased the caller's buffer")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindUpdate:        "update",
		KindResult:        "result",
		KindResultUnicast: "result-unicast",
		KindProbe:         "probe",
		KindFallbackSync:  "fallback-sync",
		Kind(99):          "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestPacketString(t *testing.T) {
	p := NewUpdate(3, 1, 1, 9, 288, make([]int32, 32))
	if got := p.String(); got != "update{w3 j1 v1 idx9 off288 n32}" {
		t.Errorf("String() = %q", got)
	}
}
