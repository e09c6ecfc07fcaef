// Package packet defines the SwitchML wire format.
//
// A SwitchML packet carries a small, fixed-size vector of 32-bit
// integers together with the protocol fields of Algorithms 3 and 4 of
// the paper: the worker id (wid), the single-bit pool version (ver),
// the aggregator slot index (idx) and the element offset into the
// tensor stream (off). Updates flow from workers to the switch;
// results flow back either as a multicast (normal completion) or as a
// unicast (retransmitted result).
//
// Two sizes matter and they are deliberately distinct:
//
//   - WireSize is the number of bytes the packet occupies on the
//     simulated wire. It uses the paper's per-packet header budget of
//     52 bytes (1516-byte MTU frames carry 366 elements; 180-byte
//     frames carry 32), so that goodput and timing in the simulator
//     match the paper's accounting exactly.
//   - Marshal/Unmarshal produce the byte representation used by the
//     real UDP transport. That header is self-describing (24 bytes,
//     ending in a CRC-32C of header and payload) and does not need to
//     match the simulated budget because the kernel supplies IP/UDP
//     framing.
//
//switchml:deterministic
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// Protocol constants from the paper's deployment (§3.3, §3.6).
const (
	// DefaultElems is k, the number of 32-bit elements aggregated per
	// packet by the switch pipeline. The paper's Tofino program
	// processes 32 elements per packet in the ingress pipeline.
	DefaultElems = 32

	// MTUElems is the number of elements an MTU-sized packet would
	// carry (§5.5 "Limited payload size"): 1516-byte frames including
	// all headers leave room for 366 four-byte elements.
	MTUElems = 366

	// HeaderBytes is the paper's total per-packet header budget: a
	// 180-byte frame carries 32 elements (128 bytes), and a 1516-byte
	// frame carries 366 elements (1464 bytes); both leave 52 bytes of
	// headers.
	HeaderBytes = 52

	// ElemBytes is the size of one vector element on the wire.
	ElemBytes = 4

	// marshalHeaderBytes is the size of the self-describing header
	// produced by Marshal (excludes the vector payload).
	marshalHeaderBytes = 24

	// magic identifies marshalled SwitchML packets.
	magic = 0x534D // "SM"
)

// Kind discriminates the direction and role of a packet.
type Kind uint8

const (
	// KindUpdate is a model-update packet travelling from a worker to
	// the switch.
	KindUpdate Kind = iota
	// KindResult is an aggregated result multicast from the switch to
	// every worker.
	KindResult
	// KindResultUnicast is an aggregated result retransmitted to a
	// single worker that re-sent an update for an already-complete
	// slot (Algorithm 3, lines 19-21).
	KindResultUnicast
	// KindReconfig is a control message from the aggregator's failure
	// controller to the workers: a new job generation (JobID) is in
	// effect after a membership change, and each worker must report
	// its progress frontier. Vector carries the surviving worker ids.
	KindReconfig
	// KindReport is a worker's reply to KindReconfig: Off carries the
	// worker's progress frontier as a global stream offset — the first
	// element whose aggregate it has not received.
	KindReport
	// KindResume is the controller's resume directive: Off carries the
	// global recovery frontier (the minimum reported stream offset);
	// every worker re-aggregates its interrupted tensor from that
	// chunk boundary under the new job generation.
	KindResume
	// KindHeartbeat is an explicit worker liveness beacon, sent while
	// a worker is alive but has no updates in flight so the silence
	// detector does not evict it between tensors.
	KindHeartbeat
	// KindProbe is a switch health probe from a degraded worker: Idx
	// carries the probe sequence number. During failback the probe
	// doubles as the generation fence — JobID carries the new job
	// generation the aggregator must adopt (wiping its pool) before
	// any worker resumes the switch path.
	KindProbe
	// KindProbeAck is the aggregator's echo of a KindProbe, crediting
	// the sender's probation window. Idx echoes the probe sequence and
	// JobID the aggregator's current generation.
	KindProbeAck
	// KindFallbackSync is the degraded-mode barrier: each worker
	// announces its tensor boundary and chunk frontier (Off), its ring
	// round sequence (Idx) and its switch-health vote (Ver) to every
	// peer. A round's ring all-reduce starts only when all n
	// announcements agree on the boundary.
	KindFallbackSync
	// KindFallbackData is one burst of ring all-reduce payload between
	// mesh peers while degraded: Idx packs the round sequence and ring
	// step, Off is the global element offset of the burst.
	KindFallbackData
	// KindFallbackAck is the mesh ARQ control for KindFallbackData:
	// Off 0 carries a cumulative ack (Idx = highest ring step fully
	// received), Off 1 a retransmission request for step Idx.
	KindFallbackAck
	// KindJoin is a graceful-join handshake from a worker that wants to
	// enter a running job. The aggregator queues it, fences the job at
	// the next chunk-aligned step boundary and admits the sender under a
	// bumped generation. Retried until the fence is observed.
	KindJoin
	// KindLeave is a graceful-leave announcement: the sender finishes
	// its in-flight window, holds at the membership fence boundary and
	// is retired under the new generation without tripping liveness.
	KindLeave
	// KindStateReq asks a mesh peer for one segment of its model state
	// during a join: Off is the element offset of the requested segment.
	// It travels over the PR 5 fallback mesh, not the aggregator path.
	KindStateReq
	// KindStateData answers a KindStateReq: Off echoes the segment
	// offset, Idx carries the total state length in elements and Vector
	// the segment payload.
	KindStateData
	// KindAdoptJob is the warm-standby failover handshake. A worker
	// whose aggregator went silent re-homes to the next rung of its
	// standby ladder by sending KindAdoptJob with JobID carrying the
	// proposed (bumped) generation and Off its chunk frontier. The
	// standby echoes the packet with Ver=1 as a collection ack while it
	// gathers the member roll call; once every member has adopted, it
	// wipes its pool under the proposed generation and releases the job
	// with KindResume at the minimum adopted frontier.
	KindAdoptJob
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	//switchml:dispatch
	switch k {
	case KindUpdate:
		return "update"
	case KindResult:
		return "result"
	case KindResultUnicast:
		return "result-unicast"
	case KindReconfig:
		return "reconfig"
	case KindReport:
		return "report"
	case KindResume:
		return "resume"
	case KindHeartbeat:
		return "heartbeat"
	case KindProbe:
		return "probe"
	case KindProbeAck:
		return "probe-ack"
	case KindFallbackSync:
		return "fallback-sync"
	case KindFallbackData:
		return "fallback-data"
	case KindFallbackAck:
		return "fallback-ack"
	case KindJoin:
		return "join"
	case KindLeave:
		return "leave"
	case KindStateReq:
		return "state-req"
	case KindStateData:
		return "state-data"
	case KindAdoptJob:
		return "adopt-job"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Errors returned by the decoder. They are fixed sentinels so the
// receive loop's reject path — exercised by every corrupted datagram
// on a lossy network — allocates nothing.
var (
	// ErrShortBuffer means the buffer cannot hold even the header.
	ErrShortBuffer = errors.New("packet: short buffer")
	// ErrBadMagic means the buffer does not start with the SwitchML
	// magic number.
	ErrBadMagic = errors.New("packet: bad magic")
	// ErrBadLength means the payload is not a whole number of
	// elements.
	ErrBadLength = errors.New("packet: payload not a multiple of the element size")
	// ErrChecksum means the CRC-32C over header and payload failed.
	ErrChecksum = errors.New("packet: checksum mismatch")
	// ErrBadKind means the kind byte names no known packet kind.
	ErrBadKind = errors.New("packet: unknown kind")
)

// Packet is a single SwitchML protocol message.
//
// The zero value is not useful; construct packets with NewUpdate or by
// copying and rewriting a received packet, as the switch does.
//
// The //switchml:wire directives declare each field's width in the
// switch register model (internal/p4sim); cmd/switchml-vet proves
// that every constant stored in a field fits its register.
type Packet struct {
	// Kind says whether this is an update or a (possibly unicast)
	// result.
	Kind Kind //switchml:wire bits=4
	// WorkerID identifies the sending worker for updates, and the
	// destination worker for unicast results. It indexes the per-slot
	// seen bitmap, whose words are sized by the worker count (§4).
	WorkerID uint16 //switchml:wire bits=16
	// JobID identifies the training job in multi-tenant deployments
	// (§6 "Multi-job"). Each job owns a disjoint pool of aggregators.
	JobID uint16 //switchml:wire bits=16
	// Ver is the single-bit pool version used to alternate between the
	// active pool and its shadow copy (Algorithm 3): on the switch it
	// selects the upper or lower half of a 64-bit register pair
	// (Appendix B), so only 0 and 1 are representable.
	Ver uint8 //switchml:wire bits=1
	// Idx is the aggregator slot index within the pool.
	Idx uint32 //switchml:wire bits=32
	// Off is the element offset of this packet's vector within the
	// tensor stream.
	Off uint64 //switchml:wire bits=64
	// Vector is the payload: at most k (or MTUElems) int32 values. The
	// final chunk of a tensor may be shorter than k.
	Vector []int32
}

// NewUpdate builds an update packet for the given worker, slot and
// offset, copying vec so the caller may reuse its buffer.
func NewUpdate(worker uint16, job uint16, ver uint8, idx uint32, off uint64, vec []int32) *Packet {
	p := &Packet{}
	p.SetUpdate(worker, job, ver, idx, off, vec)
	return p
}

// SetUpdate rewrites p in place as an update packet, copying vec into
// p.Vector (reusing its capacity when possible). It is the
// allocation-free counterpart of NewUpdate for pooled packets.
func (p *Packet) SetUpdate(worker uint16, job uint16, ver uint8, idx uint32, off uint64, vec []int32) {
	p.Kind = KindUpdate
	p.WorkerID = worker
	p.JobID = job
	p.Ver = ver
	p.Idx = idx
	p.Off = off
	//switchml:allow hotpath -- guarded grow fallback: a pooled packet's vector reaches SlotElems capacity once, then is reused
	p.Vector = append(p.Vector[:0], vec...)
}

// NewControl builds a control-plane packet (reconfig, report, resume
// or heartbeat) addressed to or from the given worker. Off carries the
// kind-specific argument (chunk frontier); vec, which may be nil, is
// copied.
func NewControl(kind Kind, worker uint16, job uint16, off uint64, vec []int32) *Packet {
	p := &Packet{}
	p.SetControl(kind, worker, job, off, vec)
	return p
}

// SetControl rewrites p in place as a control packet, copying vec into
// p.Vector (reusing its capacity when possible).
func (p *Packet) SetControl(kind Kind, worker uint16, job uint16, off uint64, vec []int32) {
	p.Kind = kind
	p.WorkerID = worker
	p.JobID = job
	p.Ver = 0
	p.Idx = 0
	p.Off = off
	p.Vector = append(p.Vector[:0], vec...)
}

// Clone returns a deep copy of the packet, vector included. Copies
// are for holders that mutate or recycle a packet someone else still
// reads: receivers treat results as read-only, so a multicast result
// is one packet shared by every port, not one clone per port.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Vector = make([]int32, len(p.Vector))
	copy(q.Vector, p.Vector)
	return &q
}

// CopyFrom makes p an independent copy of src, reusing p's vector
// capacity: with GetPacket, the allocation-free counterpart of Clone.
func (p *Packet) CopyFrom(src *Packet) {
	vec := p.Vector
	*p = *src
	//switchml:allow hotpath -- guarded grow fallback: a pooled packet's vector reaches SlotElems capacity once, then is reused
	p.Vector = append(vec[:0], src.Vector...)
}

// WireSize returns the simulated on-the-wire size in bytes, using the
// paper's 52-byte header budget.
func (p *Packet) WireSize() int {
	return HeaderBytes + ElemBytes*len(p.Vector)
}

// String renders a compact description, useful in traces and tests.
func (p *Packet) String() string {
	return fmt.Sprintf("%s{w%d j%d v%d idx%d off%d n%d}",
		p.Kind, p.WorkerID, p.JobID, p.Ver, p.Idx, p.Off, len(p.Vector))
}

// MarshalledSize returns the length of the buffer Marshal will
// produce.
func (p *Packet) MarshalledSize() int {
	return marshalHeaderBytes + ElemBytes*len(p.Vector)
}

// Marshal serializes the packet into the self-describing byte format
// used by the real transport. The layout is fixed-width, big-endian:
//
//	offset size field
//	0      2    magic "SM"
//	2      1    kind
//	3      1    ver
//	4      2    worker id
//	6      2    job id
//	8      4    idx
//	12     8    off
//	20     4    crc32c (Castagnoli) of bytes [0,20) and the payload
//	24     4*n  vector elements
func (p *Packet) Marshal() []byte {
	return p.AppendMarshal(make([]byte, 0, p.MarshalledSize()))
}

// AppendMarshal appends the wire form of the packet to dst and
// returns the extended slice. When dst has sufficient spare capacity
// no allocation is performed, so senders can reuse one buffer across
// packets (typically sliced to dst[:0] before each call).
//
//switchml:hotpath
func (p *Packet) AppendMarshal(dst []byte) []byte {
	base := len(dst)
	size := p.MarshalledSize()
	if cap(dst)-base < size {
		//switchml:allow hotpath -- guarded grow fallback: pooled buffers retain MTU capacity, so steady state never enters
		grown := make([]byte, base, base+size)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+size]
	buf := dst[base:]
	_ = buf[marshalHeaderBytes-1] // one bounds check for the header stores
	binary.BigEndian.PutUint16(buf[0:2], magic)
	buf[2] = byte(p.Kind)
	buf[3] = p.Ver
	binary.BigEndian.PutUint16(buf[4:6], p.WorkerID)
	binary.BigEndian.PutUint16(buf[6:8], p.JobID)
	binary.BigEndian.PutUint32(buf[8:12], p.Idx)
	binary.BigEndian.PutUint64(buf[12:20], p.Off)
	encodeElems(buf[marshalHeaderBytes:], p.Vector)
	binary.BigEndian.PutUint32(buf[20:24], bodyChecksum(buf))
	return dst
}

// encodeElems writes vec big-endian into body, which holds at least
// ElemBytes*len(vec) bytes. Like core's addVec it runs 8 elements per
// block over fixed-size re-slices, so each block costs one bounds
// check instead of one per element, and the tail re-slices as it goes.
func encodeElems(body []byte, vec []int32) {
	for len(vec) >= 8 && len(body) >= 8*ElemBytes {
		b, v := body[:8*ElemBytes:8*ElemBytes], vec[:8:8]
		binary.BigEndian.PutUint32(b[0:], uint32(v[0]))
		binary.BigEndian.PutUint32(b[4:], uint32(v[1]))
		binary.BigEndian.PutUint32(b[8:], uint32(v[2]))
		binary.BigEndian.PutUint32(b[12:], uint32(v[3]))
		binary.BigEndian.PutUint32(b[16:], uint32(v[4]))
		binary.BigEndian.PutUint32(b[20:], uint32(v[5]))
		binary.BigEndian.PutUint32(b[24:], uint32(v[6]))
		binary.BigEndian.PutUint32(b[28:], uint32(v[7]))
		body, vec = body[8*ElemBytes:], vec[8:]
	}
	for len(vec) > 0 && len(body) >= ElemBytes {
		binary.BigEndian.PutUint32(body, uint32(vec[0]))
		body, vec = body[ElemBytes:], vec[1:]
	}
}

// decodeElems is encodeElems' inverse: it fills vec from the
// big-endian elements in body, which holds at least ElemBytes*len(vec)
// bytes.
func decodeElems(vec []int32, body []byte) {
	for len(vec) >= 8 && len(body) >= 8*ElemBytes {
		v, b := vec[:8:8], body[:8*ElemBytes:8*ElemBytes]
		v[0] = int32(binary.BigEndian.Uint32(b[0:]))
		v[1] = int32(binary.BigEndian.Uint32(b[4:]))
		v[2] = int32(binary.BigEndian.Uint32(b[8:]))
		v[3] = int32(binary.BigEndian.Uint32(b[12:]))
		v[4] = int32(binary.BigEndian.Uint32(b[16:]))
		v[5] = int32(binary.BigEndian.Uint32(b[20:]))
		v[6] = int32(binary.BigEndian.Uint32(b[24:]))
		v[7] = int32(binary.BigEndian.Uint32(b[28:]))
		vec, body = vec[8:], body[8*ElemBytes:]
	}
	for len(vec) > 0 && len(body) >= ElemBytes {
		vec[0] = int32(binary.BigEndian.Uint32(body))
		vec, body = vec[1:], body[ElemBytes:]
	}
}

// castagnoli is the CRC-32C table. Go computes CRC-32C with the
// SSE4.2/ARMv8 CRC instructions where available, never walking it.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// bodyChecksum computes the packet checksum, CRC-32C over the header
// (minus the checksum field itself) and the payload of a marshalled
// buffer.
func bodyChecksum(buf []byte) uint32 {
	crc := crc32.Update(0, castagnoli, buf[:20])
	return crc32.Update(crc, castagnoli, buf[marshalHeaderBytes:])
}

// PatchWorkerID rewrites the worker-id field of a marshalled packet
// in place, updating the checksum. Control broadcasts (reconfig,
// resume) that differ only in the destination worker are marshalled
// once and patched per peer instead of re-marshalled.
func PatchWorkerID(buf []byte, worker uint16) error {
	if len(buf) < marshalHeaderBytes {
		return ErrShortBuffer
	}
	binary.BigEndian.PutUint16(buf[4:6], worker)
	binary.BigEndian.PutUint32(buf[20:24], bodyChecksum(buf))
	return nil
}

// Unmarshal parses a packet previously produced by Marshal. It
// verifies the magic number, the payload alignment and the checksum;
// corrupted packets are rejected so callers can simply drop them, as
// the paper's workers do (§3.4: "A simple checksum can be used to
// detect corruption and discard corrupted packets").
func Unmarshal(buf []byte) (*Packet, error) {
	p := &Packet{}
	if err := UnmarshalInto(p, buf); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalInto parses a marshalled packet into p, reusing p.Vector's
// capacity so a receive loop can decode every datagram into one
// packet without allocating. On error p is left unmodified and the
// error is one of the package's fixed sentinels, so rejecting a flood
// of corrupted datagrams allocates nothing either. The same
// validation as Unmarshal applies.
//
//switchml:hotpath
func UnmarshalInto(p *Packet, buf []byte) error {
	if len(buf) < marshalHeaderBytes {
		return ErrShortBuffer
	}
	if binary.BigEndian.Uint16(buf[0:2]) != magic {
		return ErrBadMagic
	}
	payload := buf[marshalHeaderBytes:]
	if len(payload)%ElemBytes != 0 {
		return ErrBadLength
	}
	if bodyChecksum(buf) != binary.BigEndian.Uint32(buf[20:24]) {
		return ErrChecksum
	}
	k := Kind(buf[2])
	if k > KindAdoptJob {
		return ErrBadKind
	}
	p.Kind = k
	p.Ver = buf[3]
	p.WorkerID = binary.BigEndian.Uint16(buf[4:6])
	p.JobID = binary.BigEndian.Uint16(buf[6:8])
	p.Idx = binary.BigEndian.Uint32(buf[8:12])
	p.Off = binary.BigEndian.Uint64(buf[12:20])
	n := len(payload) / ElemBytes
	if cap(p.Vector) >= n {
		p.Vector = p.Vector[:n]
	} else {
		//switchml:allow hotpath -- guarded grow fallback: a pooled packet's vector reaches MTU capacity once, then is reused
		p.Vector = make([]int32, n)
	}
	decodeElems(p.Vector, payload)
	return nil
}

// Packet and buffer pools for the hot path. Senders get a packet (or
// a wire buffer), fill it, transmit, and put it back; steady-state
// traffic then recycles storage instead of allocating per packet.
// Putting is optional — paths that hand packets to asynchronous
// consumers (the simulator's in-flight links) simply never return
// them, and the pool falls back to allocation.
var (
	pktPool = sync.Pool{New: func() any { return &Packet{Vector: make([]int32, 0, DefaultElems)} }}
	bufPool = sync.Pool{New: func() any {
		b := make([]byte, 0, marshalHeaderBytes+ElemBytes*MTUElems)
		return &b
	}}
)

// GetPacket returns a pooled packet with zeroed protocol fields and
// an empty vector (capacity retained from prior use).
//
//switchml:acquire
func GetPacket() *Packet {
	p := pktPool.Get().(*Packet)
	v := p.Vector[:0]
	*p = Packet{Vector: v}
	return p
}

// PutPacket returns a packet to the pool. The caller must not retain
// any reference to p or its vector.
//
//switchml:release
func PutPacket(p *Packet) {
	if p == nil {
		return
	}
	pktPool.Put(p)
}

// GetBuf returns a pooled, empty wire buffer with at least one
// MTU-sized packet of capacity.
//
//switchml:acquire
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a wire buffer to the pool.
//
//switchml:release
func PutBuf(b *[]byte) {
	if b == nil {
		return
	}
	bufPool.Put(b)
}
