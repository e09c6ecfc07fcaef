// Degraded-mode operation for the UDP transport: the client half of
// the self-healing design. When the aggregator goes silent mid-tensor
// every worker detects the outage independently (no progress for
// FallbackConfig.SuspectAfter), agrees with its peers on a chunk-
// aligned handoff frontier, and finishes the tensor — and subsequent
// ones — by ring all-reduce over a direct worker-to-worker UDP mesh.
// While degraded, each round opens with a probe to the aggregator; the
// workers exchange their probe-answer streaks in the round's barrier
// sync, and once the collective minimum reaches the probation
// threshold they all fail back in the same round under a new job
// generation. The generation fence is carried by the probes
// themselves: a probe proposes epoch+1, and an aggregator seeing a
// newer generation wipes its pool before answering, so nothing
// aggregated before the outage can leak into post-failback slots.
//
// The mesh ring is reduce-scatter + all-gather with go-back-N ARQ:
// segments carry a per-round global sequence number, the receiver
// accepts them strictly in order and acks cumulatively, and the sender
// retransmits the window head on timeout or duplicate acks. Unlike
// the simulator's host fabric (which models a reliable kernel
// transport), real UDP loses mesh datagrams too — the ARQ is what
// makes the barrier handoff exact.
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"switchml/internal/netio"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// ErrAggregatorSilent is wrapped into errors caused by the aggregator
// (or the network path to it) going quiet — as opposed to bad input or
// a local failure. Callers can errors.Is for it and retry the step
// once the switch path is restored; the tensor was never partially
// aggregated across generations.
var ErrAggregatorSilent = errors.New("transport: aggregator unresponsive")

// errSilence is the internal verdict that flips the client into
// degraded mode mid-tensor. It never escapes AllReduceInt32.
var errSilence = errors.New("transport: silence threshold crossed")

// FallbackConfig enables hitless fallback to host ring all-reduce
// when the aggregator dies, and automatic failback when it returns.
type FallbackConfig struct {
	// Listen is the mesh socket's listen address (e.g. ":7001");
	// empty binds a wildcard ephemeral port, which multi-machine
	// deployments cannot pre-arrange — set it so peers can be listed
	// up front.
	Listen string
	// Peers holds each worker's mesh address, indexed by worker ID
	// (this worker's own entry is ignored). Leave nil and call
	// SetMeshPeers once every worker has bound its mesh socket and
	// published MeshAddr.
	Peers []string
	// SuspectAfter is how long the aggregator may yield no progress
	// mid-tensor before the worker degrades; zero selects 8×RTO. It
	// must exceed a worst-case aggregation pause (all slots in
	// retransmission backoff) or a slow network degrades spuriously —
	// which is safe but slower, since the probe fence forces the whole
	// job through a degraded round.
	SuspectAfter time.Duration
	// Probation is how many consecutive degraded rounds must see their
	// aggregator probe answered before the collective fails back; zero
	// selects 3. Negative pins the job on the mesh forever.
	Probation int
	// SegElems is the mesh datagram payload in elements; zero selects
	// 256 (a 1048-byte datagram, safely under any MTU worth using).
	SegElems int
	// Window is the go-back-N window in segments; zero selects 32.
	Window int
}

func (c *FallbackConfig) fillDefaults(rto time.Duration) {
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 8 * rto
	}
	if c.Probation == 0 {
		c.Probation = 3
	}
	if c.SegElems == 0 {
		c.SegElems = 256
	}
	if c.Window == 0 {
		c.Window = 32
	}
}

// FallbackStats is a snapshot of the degraded-path counters. All
// counters are maintained atomically, so the snapshot is safe to take
// from a monitoring goroutine while AllReduceInt32 runs.
type FallbackStats struct {
	// Degrades counts switch→mesh transitions.
	Degrades uint64
	// Probes / ProbeAcks count aggregator probes sent and answered.
	Probes, ProbeAcks uint64
	// Failbacks counts mesh→switch transitions.
	Failbacks uint64
	// HostRounds / HostElems count tensors (and their elements)
	// aggregated by the mesh ring.
	HostRounds, HostElems uint64
	// MeshRetransmits counts go-back-N retransmissions on the mesh.
	MeshRetransmits uint64
}

// fallback is the client's degraded-mode state. Everything except the
// atomic counters and the degraded flag belongs to the AllReduce
// goroutine.
type fallback struct {
	cfg   FallbackConfig
	mesh  *net.UDPConn
	peers []*net.UDPAddr
	// degraded is atomic only so monitoring goroutines may read it;
	// the AllReduce goroutine is the sole writer.
	degraded atomic.Bool
	// round numbers the degraded collectives; it stamps every mesh
	// datagram so stragglers from a finished round are recognized.
	round uint16
	// prevRecvTotal is the previous round's receive-schedule length,
	// echoed as a "round complete" ack to a stuck stale sender.
	prevRecvTotal int
	// probeSeq/probeAwait/streak implement the probation window:
	// streak counts consecutive rounds whose probe was answered.
	probeSeq   uint32
	probeAwait bool
	streak     int
	// nc is the batched socket view over mesh, staging the ring's
	// window-fill and go-back-N bursts for single-syscall flushes.
	// Only ring data segments go through it — barrier syncs, acks and
	// every mesh receive stay on the plain socket — so the
	// single-owner staging contract is the AllReduce goroutine's.
	nc *netio.Conn
	// syncWire / prevSyncWire are the marshalled barrier syncs of the
	// current and previous rounds, replayed whenever a peer shows it
	// never received them.
	syncWire, prevSyncWire []byte
	// sbuf/abuf are the mesh send and ack wire buffers.
	sbuf, abuf []byte

	degrades, probes, probeAcks, failbacks atomic.Uint64
	hostRounds, hostElems, meshRetx        atomic.Uint64
}

// MeshAddr returns the bound mesh socket address, or nil when the
// client has no fallback configured. Publish it (with a reachable
// host) to the other workers' SetMeshPeers.
func (c *Client) MeshAddr() *net.UDPAddr {
	if c.fb == nil {
		return nil
	}
	return c.fb.mesh.LocalAddr().(*net.UDPAddr)
}

// SetMeshPeers installs the worker-indexed mesh address table. Call
// it before the first AllReduce (it is not synchronized with one).
func (c *Client) SetMeshPeers(addrs []string) error {
	if c.fb == nil {
		return errors.New("transport: no fallback configured")
	}
	return c.fb.resolvePeers(addrs, int(c.cfg.Worker.ID))
}

func (f *fallback) resolvePeers(addrs []string, self int) error {
	if len(addrs) == 0 {
		return nil
	}
	peers := make([]*net.UDPAddr, len(addrs))
	for i, s := range addrs {
		if i == self || s == "" {
			continue
		}
		a, err := net.ResolveUDPAddr("udp", s)
		if err != nil {
			return fmt.Errorf("transport: resolve mesh peer %d %q: %w", i, s, err)
		}
		peers[i] = a
	}
	f.peers = peers
	return nil
}

// Degraded reports whether the client is currently running on the
// mesh. Safe for monitoring goroutines.
func (c *Client) Degraded() bool { return c.fb != nil && c.fb.degraded.Load() }

// FallbackStats snapshots the degraded-path counters (zero when no
// fallback is configured). Safe for monitoring goroutines.
func (c *Client) FallbackStats() FallbackStats {
	if c.fb == nil {
		return FallbackStats{}
	}
	f := c.fb
	return FallbackStats{
		Degrades:        f.degrades.Load(),
		Probes:          f.probes.Load(),
		ProbeAcks:       f.probeAcks.Load(),
		Failbacks:       f.failbacks.Load(),
		HostRounds:      f.hostRounds.Load(),
		HostElems:       f.hostElems.Load(),
		MeshRetransmits: f.meshRetx.Load(),
	}
}

// checkPeers verifies the mesh address table covers every peer before
// a degraded collective relies on it.
func (f *fallback) checkPeers(n, self int) error {
	if len(f.peers) < n {
		return fmt.Errorf("transport: degraded with %d of %d mesh peers configured: %w", len(f.peers), n, ErrAggregatorSilent)
	}
	for i := 0; i < n; i++ {
		if i != self && f.peers[i] == nil {
			return fmt.Errorf("transport: degraded without a mesh address for worker %d: %w", i, ErrAggregatorSilent)
		}
	}
	return nil
}

// enterFallback is the mid-tensor degrade: the switch path gave up on
// the current tensor, so agree on the frontier with the peers and
// finish the suffix on the mesh. The client stays degraded for
// subsequent tensors until the probation verdict fails it back.
func (c *Client) enterFallback(u []int32, deadline time.Time) ([]int32, error) {
	fb := c.fb
	n := c.cfg.Worker.Workers
	if err := fb.checkPeers(n, int(c.cfg.Worker.ID)); err != nil {
		return nil, err
	}
	fb.degraded.Store(true)
	fb.streak = 0
	fb.probeAwait = false
	// A pending membership fence dies with the aggregator that
	// proposed it; the joiner re-solicits after failback.
	c.fenceArmed = false
	fb.degrades.Add(1)
	c.gDegraded.Set(1)
	c.trace(telemetry.EvDegrade, -1)
	for i := range c.backoff {
		c.backoff[i] = 0
		c.retxed[i] = false
	}
	frontier := c.worker.FrontierOff()
	F, _, err := c.syncRound(frontier, deadline)
	if err != nil {
		return nil, err
	}
	local := F - c.worker.TensorBase()
	return c.meshFinish(u, F, int(local), deadline)
}

// degradedAllReduce runs one tensor while the job lives on the mesh:
// resolve last round's probe, send this round's, run the barrier sync
// (which also carries the failback vote), then either fail back to the
// switch or aggregate the whole tensor by mesh ring.
func (c *Client) degradedAllReduce(u []int32, deadline time.Time) ([]int32, error) {
	fb := c.fb
	n := c.cfg.Worker.Workers
	if err := fb.checkPeers(n, int(c.cfg.Worker.ID)); err != nil {
		return nil, err
	}
	c.drainProbeAcks()
	c.sendProbe()
	c.worker.StartHosted(u)
	frontier := c.worker.FrontierOff()
	F, minStreak, err := c.syncRound(frontier, deadline)
	if err != nil {
		return nil, err
	}
	if F != frontier {
		return nil, fmt.Errorf("transport: stream misaligned in degraded mode: local frontier %d, collective %d", frontier, F)
	}
	if fb.cfg.Probation >= 0 && minStreak >= fb.cfg.Probation {
		return c.failback(u, deadline)
	}
	return c.meshFinish(u, F, 0, deadline)
}

// meshFinish aggregates the tensor suffix u[local:] (global offset F)
// by mesh ring and installs the result through the barrier-handoff
// write.
func (c *Client) meshFinish(u []int32, F uint64, local int, deadline time.Time) ([]int32, error) {
	fb := c.fb
	buf := make([]int32, len(u)-local)
	copy(buf, u[local:])
	if err := c.meshRound(buf, F, deadline); err != nil {
		return nil, err
	}
	if err := c.worker.InstallHostAggregate(F, buf); err != nil {
		return nil, err
	}
	fb.hostRounds.Add(1)
	fb.hostElems.Add(uint64(len(buf)))
	c.trace(telemetry.EvTensorDone, -1)
	out := make([]int32, len(u))
	copy(out, c.worker.Aggregate())
	return out, nil
}

// failback returns the job to the switch path: the collective verdict
// said every worker's probes have been answered for the probation
// window, so all workers re-open the tensor from chunk zero under the
// generation the probes proposed (which the aggregator already
// adopted, wiping its pool) and drive it with switch packets again.
// If the switch flaps, the silence detector simply degrades again.
func (c *Client) failback(u []int32, deadline time.Time) ([]int32, error) {
	fb := c.fb
	fb.degraded.Store(false)
	fb.streak = 0
	fb.probeAwait = false
	fb.failbacks.Add(1)
	c.gDegraded.Set(0)
	newEpoch := c.epoch + 1
	pkts := c.worker.Resume(newEpoch, 0)
	c.epoch = newEpoch
	c.gEpoch.Set(int64(newEpoch))
	c.trace(telemetry.EvFailback, -1)
	// The progress clock last ticked before the outage; restart it or
	// the silence detector would re-degrade before the first result.
	now := time.Now()
	c.lastProgress = now
	for i := range c.backoff {
		c.backoff[i] = 0
		c.retxed[i] = false
	}
	for _, p := range pkts {
		c.send(p, false, now)
		packet.PutPacket(p)
	}
	out, err := c.switchLoop(u, deadline)
	if errors.Is(err, errSilence) {
		// Flapped again: walk the whole ladder before settling back on
		// the mesh.
		return c.degradeLadder(u, deadline)
	}
	return out, err
}

// sendProbe asks the aggregator whether it is back, proposing the
// post-failback generation. Probes ride the main connection; loss is
// absorbed by the probation streak (an unanswered probe resets it).
func (c *Client) sendProbe() {
	fb := c.fb
	fb.probeSeq++
	fb.probeAwait = true
	p := packet.NewControl(packet.KindProbe, c.cfg.Worker.ID, c.epoch+1, 0, nil)
	p.Idx = fb.probeSeq
	c.cbuf = p.AppendMarshal(c.cbuf[:0])
	if _, err := c.conn.Write(c.cbuf); err == nil {
		c.sent.Inc()
	}
	fb.probes.Add(1)
	c.trace(telemetry.EvProbe, int32(fb.probeSeq))
}

// drainProbeAcks empties the main connection, resolving the previous
// round's probe. Anything else that piled up while the job lived on
// the mesh (stale results, recovery directives from the old
// generation) is discarded — the probe fence makes it meaningless.
func (c *Client) drainProbeAcks() {
	fb := c.fb
	// A short real deadline, not an expired one: Go fails reads on an
	// already-passed deadline without delivering buffered datagrams, so
	// a zero-length poll would never see the queued ack.
	c.conn.SetReadDeadline(time.Now().Add(c.cfg.RTO / 8))
	for {
		n, err := c.conn.Read(c.rbuf)
		if err != nil {
			break
		}
		c.recvd.Inc()
		if packet.UnmarshalInto(&c.rp, c.rbuf[:n]) != nil {
			c.corrupt.Inc()
			continue
		}
		if c.rp.Kind == packet.KindProbeAck && fb.probeAwait && c.rp.Idx == fb.probeSeq {
			fb.probeAwait = false
			fb.streak++
			fb.probeAcks.Add(1)
			c.trace(telemetry.EvProbeAck, int32(c.rp.Idx))
		}
	}
	if fb.probeAwait {
		// Last round's probe went unanswered: the switch is still gone
		// (or flapping); either way the probation clock restarts.
		fb.probeAwait = false
		fb.streak = 0
	}
}

// syncRound is the degraded path's barrier: every worker broadcasts
// its frontier and probe streak for this round and collects all n-1
// peers' syncs, retransmitting its own until then. All workers see
// the same n values, so the frontier minimum (the handoff boundary)
// and the streak minimum (the failback vote) are collective verdicts
// with no extra agreement round.
func (c *Client) syncRound(frontier uint64, deadline time.Time) (F uint64, minStreak int, err error) {
	fb := c.fb
	n := c.cfg.Worker.Workers
	self := int(c.cfg.Worker.ID)
	fb.round++
	streak := fb.streak
	if streak > 255 {
		streak = 255
	}
	p := packet.NewControl(packet.KindFallbackSync, c.cfg.Worker.ID, fb.round, frontier, nil)
	p.Ver = uint8(streak)
	fb.prevSyncWire = append(fb.prevSyncWire[:0], fb.syncWire...)
	fb.syncWire = p.AppendMarshal(fb.syncWire[:0])

	F, minStreak = frontier, streak
	got := make([]bool, n)
	got[self] = true
	remaining := n - 1
	for w := range got {
		if w != self {
			c.meshWrite(fb.syncWire, fb.peers[w])
		}
	}
	lastTx := time.Now()
	for remaining > 0 {
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("transport: fallback barrier timed out with %d of %d peers silent: %w", remaining, n-1, ErrAggregatorSilent)
		}
		rd := lastTx.Add(c.cfg.RTO)
		if rd.After(deadline) {
			rd = deadline
		}
		fb.mesh.SetReadDeadline(rd)
		nb, _, rerr := fb.mesh.ReadFromUDP(c.rbuf)
		if rerr != nil {
			if ne, ok := rerr.(net.Error); ok && ne.Timeout() {
				for w := range got {
					if !got[w] {
						c.meshWrite(fb.syncWire, fb.peers[w])
					}
				}
				lastTx = time.Now()
				continue
			}
			return 0, 0, rerr
		}
		if packet.UnmarshalInto(&c.rp, c.rbuf[:nb]) != nil {
			continue
		}
		rp := &c.rp
		//switchml:dispatch
		switch rp.Kind {
		case packet.KindFallbackSync:
			w := int(rp.WorkerID)
			if w >= n || w == self {
				continue
			}
			switch int16(rp.JobID - fb.round) {
			case 0:
				if !got[w] {
					got[w] = true
					remaining--
					if rp.Off < F {
						F = rp.Off
					}
					if int(rp.Ver) < minStreak {
						minStreak = int(rp.Ver)
					}
				} else {
					// A repeated sync means the peer never saw ours.
					c.meshWrite(fb.syncWire, fb.peers[w])
				}
			case -1:
				// The peer is still finishing the previous round's
				// barrier and is missing our sync from back then.
				if len(fb.prevSyncWire) > 0 {
					c.meshWrite(fb.prevSyncWire, fb.peers[w])
				}
			}
		case packet.KindFallbackData:
			// Our ring predecessor finished the barrier already and
			// started streaming. Current-round data is dropped (its ARQ
			// re-sends once we join the ring); a stale round's straggler
			// gets the round-complete ack that frees it.
			if int16(rp.JobID-fb.round) < 0 {
				c.sendMeshAck(rp.JobID, fb.prevRecvTotal, int(rp.WorkerID))
			}
		default:
			// Stale or foreign traffic on the mesh socket; count the
			// drop so a confused peer is visible.
			c.unexpected.Inc()
		}
	}
	return F, minStreak, nil
}

// ringPlan precomputes one worker's mesh-ring schedule: which chunk
// is sent and received at each of the 2(n-1) steps, and the global
// segment sequence numbering on each side. Chunk boundaries are
// c*L/n, so the tables are identical arithmetic on every worker and
// the receive-side numbering matches the predecessor's send-side
// numbering exactly.
type ringPlan struct {
	n, L, segElems       int
	F                    uint64
	G                    int
	sendStart, recvStart []int // length G+1; [g] is step g's first seq
	sendChunk, recvChunk []int
}

func newRingPlan(n, rank, L, segElems int, F uint64) *ringPlan {
	G := 2 * (n - 1)
	pl := &ringPlan{
		n: n, L: L, segElems: segElems, F: F, G: G,
		sendStart: make([]int, G+1), recvStart: make([]int, G+1),
		sendChunk: make([]int, G), recvChunk: make([]int, G),
	}
	mod := func(x int) int { return ((x % n) + n) % n }
	for g := 0; g < G; g++ {
		if g < n-1 {
			pl.sendChunk[g] = mod(rank - g)
			pl.recvChunk[g] = mod(rank - g - 1)
		} else {
			j := g - (n - 1)
			pl.sendChunk[g] = mod(rank + 1 - j)
			pl.recvChunk[g] = mod(rank - j)
		}
		pl.sendStart[g+1] = pl.sendStart[g] + pl.segs(pl.sendChunk[g])
		pl.recvStart[g+1] = pl.recvStart[g] + pl.segs(pl.recvChunk[g])
	}
	return pl
}

func (pl *ringPlan) bound(c int) int    { return c * pl.L / pl.n }
func (pl *ringPlan) chunkLen(c int) int { return pl.bound(c+1) - pl.bound(c) }
func (pl *ringPlan) segs(c int) int {
	return (pl.chunkLen(c) + pl.segElems - 1) / pl.segElems
}

// stepOf returns the step a sequence number belongs to. G is tiny
// (2(n-1)), so a linear scan beats anything clever.
func stepOf(starts []int, seq int) int {
	g := 0
	for g+1 < len(starts)-1 && seq >= starts[g+1] {
		g++
	}
	return g
}

// segSpan returns a segment's element range within its chunk-relative
// schedule: buffer offset and length.
func (pl *ringPlan) segSpan(starts, chunks []int, seq int) (g, off, length int) {
	g = stepOf(starts, seq)
	c := chunks[g]
	seg := seq - starts[g]
	off = pl.bound(c) + seg*pl.segElems
	length = pl.chunkLen(c) - seg*pl.segElems
	if length > pl.segElems {
		length = pl.segElems
	}
	return g, off, length
}

// meshRound runs the ring all-reduce over buf (global offset F),
// leaving the full sum in buf on every worker. Reduce-scatter adds,
// all-gather overwrites; a segment is applied exactly once because
// the receiver only accepts the next expected sequence number.
func (c *Client) meshRound(buf []int32, F uint64, deadline time.Time) error {
	fb := c.fb
	n := c.cfg.Worker.Workers
	rank := int(c.cfg.Worker.ID)
	if n == 1 || len(buf) == 0 {
		fb.prevRecvTotal = 0
		return nil
	}
	pl := newRingPlan(n, rank, len(buf), fb.cfg.SegElems, F)
	nextID := (rank + 1) % n
	prevID := (rank + n - 1) % n
	totalSend := pl.sendStart[pl.G]
	totalRecv := pl.recvStart[pl.G]
	cumAck, nextSend, recvSeq := 0, 0, 0
	dupAcks := 0
	lastTx := time.Now()
	for cumAck < totalSend || recvSeq < totalRecv {
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: mesh ring timed out (%d/%d sent-acked, %d/%d received): %w",
				cumAck, totalSend, recvSeq, totalRecv, ErrAggregatorSilent)
		}
		for nextSend < totalSend && nextSend-cumAck < fb.cfg.Window && recvSeq >= pl.recvStart[stepOf(pl.sendStart, nextSend)] {
			c.sendSeg(pl, buf, nextSend, nextID)
			nextSend++
			lastTx = time.Now()
		}
		c.flushMesh()
		rd := lastTx.Add(c.cfg.RTO)
		if rd.After(deadline) {
			rd = deadline
		}
		fb.mesh.SetReadDeadline(rd)
		nb, _, rerr := fb.mesh.ReadFromUDP(c.rbuf)
		if rerr != nil {
			if ne, ok := rerr.(net.Error); ok && ne.Timeout() {
				if cumAck < nextSend {
					// Go-back-N: replay from the ack point (capped, to
					// keep a long outage from bursting).
					end := nextSend
					if end > cumAck+16 {
						end = cumAck + 16
					}
					for s := cumAck; s < end; s++ {
						c.sendSeg(pl, buf, s, nextID)
						fb.meshRetx.Add(1)
					}
					c.flushMesh()
				}
				lastTx = time.Now()
				continue
			}
			return rerr
		}
		if packet.UnmarshalInto(&c.rp, c.rbuf[:nb]) != nil {
			continue
		}
		rp := &c.rp
		//switchml:dispatch
		switch rp.Kind {
		case packet.KindFallbackData:
			if rp.JobID != fb.round {
				if int16(rp.JobID-fb.round) < 0 {
					c.sendMeshAck(rp.JobID, fb.prevRecvTotal, int(rp.WorkerID))
				}
				continue
			}
			if int(rp.Idx) == recvSeq {
				g, off, length := pl.segSpan(pl.recvStart, pl.recvChunk, recvSeq)
				if len(rp.Vector) != length || rp.Off != F+uint64(off) {
					return fmt.Errorf("transport: mesh segment %d malformed: off %d len %d, want %d len %d",
						recvSeq, rp.Off, len(rp.Vector), F+uint64(off), length)
				}
				if g < n-1 {
					for i, v := range rp.Vector {
						buf[off+i] += v
					}
				} else {
					copy(buf[off:off+length], rp.Vector)
				}
				recvSeq++
			}
			// Ack cumulatively — also for out-of-order data, where the
			// repeated ack doubles as a NACK.
			c.sendMeshAck(fb.round, recvSeq, prevID)
		case packet.KindFallbackAck:
			if rp.JobID != fb.round {
				continue
			}
			k := int(rp.Idx)
			switch {
			case k > cumAck:
				if k > nextSend {
					k = nextSend
				}
				cumAck = k
				dupAcks = 0
			case k == cumAck && cumAck < nextSend:
				dupAcks++
				if dupAcks >= 2 {
					c.sendSeg(pl, buf, cumAck, nextID)
					fb.meshRetx.Add(1)
					dupAcks = 0
					lastTx = time.Now()
				}
			}
		case packet.KindFallbackSync:
			// A peer stuck in this round's barrier never got our sync.
			if rp.JobID == fb.round && int(rp.WorkerID) < n && int(rp.WorkerID) != rank {
				c.meshWrite(fb.syncWire, fb.peers[rp.WorkerID])
			}
		default:
			// Stale or foreign traffic on the mesh socket; count the
			// drop so a confused peer is visible.
			c.unexpected.Inc()
		}
	}
	fb.prevRecvTotal = totalRecv
	return nil
}

// sendSeg transmits one ring segment to the next rank. The packet's
// vector aliases buf — safe, because marshalling copies it out before
// the call returns.
func (c *Client) sendSeg(pl *ringPlan, buf []int32, seq, nextID int) {
	fb := c.fb
	_, off, length := pl.segSpan(pl.sendStart, pl.sendChunk, seq)
	p := packet.Packet{
		Kind:     packet.KindFallbackData,
		WorkerID: c.cfg.Worker.ID,
		JobID:    fb.round,
		Idx:      uint32(seq),
		Off:      pl.F + uint64(off),
		Vector:   buf[off : off+length],
	}
	fb.sbuf = p.AppendMarshal(fb.sbuf[:0])
	// Staged: AppendTo copies, so sbuf is immediately reusable. The
	// window pump flushes the whole burst in one batched send.
	fb.nc.AppendTo(fb.sbuf, fb.peers[nextID].AddrPort())
}

// flushMesh pushes any mesh datagrams staged by the window pump to
// the kernel.
func (c *Client) flushMesh() { c.fb.nc.Flush() }

// meshWrite sends one datagram on the mesh socket, counting (not
// retrying) failures: the ring's go-back-N recovery owns repair.
func (c *Client) meshWrite(wire []byte, to *net.UDPAddr) {
	if _, err := c.fb.mesh.WriteToUDP(wire, to); err != nil {
		c.sendErrs.Inc()
	}
}

// sendMeshAck reports the cumulative receive progress of a round to
// its sender.
func (c *Client) sendMeshAck(round uint16, cum, peerID int) {
	fb := c.fb
	if peerID < 0 || peerID >= len(fb.peers) || fb.peers[peerID] == nil {
		return
	}
	p := packet.NewControl(packet.KindFallbackAck, c.cfg.Worker.ID, round, 0, nil)
	p.Idx = uint32(cum)
	fb.abuf = p.AppendMarshal(fb.abuf[:0])
	c.meshWrite(fb.abuf, fb.peers[peerID])
}
