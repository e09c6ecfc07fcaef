package transport

import (
	"net/netip"
	"time"

	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// Elastic membership: the aggregator-side half of graceful join and
// leave (the client half lives in elastic_client.go). Both changes
// commit only at a tensor boundary, so no slot ever mixes
// contributions from two memberships:
//
// Join runs a membership fence. The joiner solicits admission with
// KindJoin; the aggregator proposes the next generation by
// broadcasting a KindReconfig with Ver=1 (the elastic marker — Ver=0
// is the §5.6 eviction fence) carrying the future membership.
// Incumbents finish their in-flight tensor, then hold at the boundary
// and confirm with a Ver=1 KindReport carrying the boundary offset;
// collective tensors give every worker the same stream schedule, so
// the confirmed offsets agree. While incumbents hold, the joiner may
// fetch model state from one of them over the fallback mesh
// (KindStateReq/KindStateData). Once the joiner and every live
// incumbent have confirmed, the fence commits: the pool is wiped
// under the proposed generation with the joiner in the membership,
// and KindResume(gen, boundary) releases everyone. A §5.6 recovery
// starting mid-fence aborts the fence (crash recovery cannot wait);
// the joiner simply retries.
//
// Leave needs no hold. The leaver announces KindLeave carrying its
// drain boundary — the stream offset where its participation ends
// (the end of its last tensor) — and is marked draining, which
// excuses its coming silence from the failure detector. Survivors
// roll into the next tensor and stall (the pool still counts the
// leaver), which is the commit signal: once every other live worker
// has demonstrably passed the boundary (an update or fence confirm at
// or beyond it proves everything before it is complete), the leaver
// is retired as departed — not dead — and the standard §5.6
// reconfigure/report/resume handshake restarts the survivors from
// their frontier under the shrunken membership.
type memberFence struct {
	// gen is the proposed job generation (current epoch + 1).
	gen uint16
	// joiner is the worker being admitted.
	joiner int
	// confirmed marks workers holding at the boundary (for the joiner:
	// state fetched, ready to be released).
	confirmed []bool
	// boundary is the maximum offset confirmed by an incumbent — the
	// common tensor boundary everyone resumes from.
	boundary uint64
}

// handleJoin processes a joiner's admission solicitation. Joins are
// serialized: one fence at a time, never during §5.6 recovery and
// never while a leave is draining (the joiner retransmits KindJoin at
// its RTO, so a refused solicitation is simply retried).
func (a *Aggregator) handleJoin(p *packet.Packet, src netip.AddrPort) {
	if a.lv == nil {
		return // membership is static without a failure detector
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	lv := a.lv
	w := int(p.WorkerID)
	lv.job.setPeer(p.WorkerID, src)
	if !lv.tracker.Dead(w) && lv.tracker.LastSeen(w) >= 0 && (lv.fence == nil || lv.fence.joiner != w) {
		// Already a member: the commit's resume directive was lost.
		if lv.resumeReady.Load() {
			out := packet.NewControl(packet.KindResume, p.WorkerID, a.epochNow(), lv.frontier.Load(), nil).Marshal()
			a.writeCtrl(out, src)
		}
		return
	}
	if lv.recovering || lv.leaveArmed.Load() {
		return // recovery and drains first; the joiner retries
	}
	if lv.fence != nil {
		if lv.fence.joiner == w {
			a.sendFenceLocked() // push the directive again
		}
		return
	}
	lv.fence = &memberFence{
		gen:       a.epochNow() + 1,
		joiner:    w,
		confirmed: make([]bool, len(lv.job.peers)),
	}
	a.sendFenceLocked()
}

// handleLeave processes a drain announcement. The announcement is
// always honored (refusing would turn an announced exit into a
// false-positive crash) except when the leaver is the last live
// worker; the ack is the announcement echoed back, which the client
// retransmits until it sees.
func (a *Aggregator) handleLeave(p *packet.Packet, src netip.AddrPort) {
	if a.lv == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	lv := a.lv
	w := int(p.WorkerID)
	switch {
	case lv.tracker.Dead(w) || lv.tracker.Draining(w):
		// Retired or already draining: just ack again.
	case lv.tracker.AliveCount() <= 1:
		return // never drain the last member: no ack, the drain fails
	default:
		lv.tracker.MarkDraining(w)
		lv.leavePend[w] = true
		lv.leaveOff[w] = p.Off
		lv.leaveArmed.Store(true)
		a.traceCtrl(telemetry.EvDrainStart, int32(w), int64(p.Off))
	}
	lv.job.setPeer(p.WorkerID, src)
	ack := packet.NewControl(packet.KindLeave, p.WorkerID, a.epochNow(), p.Off, nil).Marshal()
	a.writeCtrl(ack, src)
}

// sendFenceLocked (re)broadcasts the fence directive — a Ver=1
// KindReconfig carrying the future membership — to every future
// member that has not confirmed yet. Marshalled once, worker id
// patched per peer, like the §5.6 control sends.
func (a *Aggregator) sendFenceLocked() {
	f, peers := a.lv.fence, a.lv.job.peers
	var vec []int32
	for w := range peers {
		if w == f.joiner || !a.lv.tracker.Dead(w) {
			vec = append(vec, int32(w))
		}
	}
	var wire []byte
	for w := range peers {
		if f.confirmed[w] || (w != f.joiner && a.lv.tracker.Dead(w)) {
			continue
		}
		ap := peers[w].Load()
		if ap == nil {
			continue
		}
		if wire == nil {
			pk := packet.NewControl(packet.KindReconfig, uint16(w), f.gen, 0, vec)
			pk.Ver = 1
			wire = pk.Marshal()
		} else if err := packet.PatchWorkerID(wire, uint16(w)); err != nil {
			continue
		}
		a.writeCtrl(wire, *ap)
	}
}

// handleFenceReport folds one Ver=1 boundary confirmation into the
// fence. When the joiner and every live incumbent that has ever
// spoken are holding, the fence commits.
func (a *Aggregator) handleFenceReport(p *packet.Packet, src netip.AddrPort) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lv := a.lv
	w := int(p.WorkerID)
	f := lv.fence
	if f == nil {
		// Committed (or aborted) already: a holder resending its
		// confirm missed the release — repeat it under the current
		// generation.
		if p.JobID == a.epochNow() && lv.resumeReady.Load() && !lv.tracker.Dead(w) {
			out := packet.NewControl(packet.KindResume, p.WorkerID, a.epochNow(), lv.frontier.Load(), nil).Marshal()
			a.writeCtrl(out, src)
		}
		return
	}
	if p.JobID != f.gen || (w != f.joiner && lv.tracker.Dead(w)) {
		return
	}
	lv.tracker.Touch(w, time.Now().UnixNano())
	lv.job.setPeer(p.WorkerID, src)
	f.confirmed[w] = true
	if w != f.joiner {
		if p.Off > f.boundary {
			f.boundary = p.Off
		}
		// A confirm at the boundary proves everything before it is
		// complete — it counts toward any pending drain commit, or a
		// holder that stopped sending updates could stall a leave.
		lv.bumpMaxOff(w, p.Off)
	}
	if !f.confirmed[f.joiner] {
		return
	}
	for i := range lv.job.peers {
		if i == f.joiner || lv.tracker.Dead(i) || lv.tracker.LastSeen(i) < 0 {
			continue
		}
		if !f.confirmed[i] {
			return
		}
	}
	a.commitFenceLocked()
}

// commitFenceLocked installs the proposed membership: pool wiped
// under the new generation with the joiner admitted, everyone
// released at the common boundary. resumeReady/frontier take the
// committed values so the standard lost-directive repair paths
// (stale-generation updates, repeated confirms) re-send the release.
func (a *Aggregator) commitFenceLocked() {
	lv := a.lv
	f := lv.fence
	lv.fence = nil
	active := make([]bool, len(lv.job.peers))
	for i := range active {
		active[i] = i == f.joiner || !lv.tracker.Dead(i)
	}
	if err := lv.job.sw.Reconfigure(active, f.gen); err != nil {
		return
	}
	a.epoch.Store(uint32(f.gen))
	lv.tracker.MarkAlive(f.joiner, time.Now().UnixNano())
	lv.recovering = false
	lv.resumeReady.Store(true)
	lv.frontier.Store(f.boundary)
	for i := range lv.reported {
		lv.reported[i] = false
	}
	a.traceCtrl(telemetry.EvWorkerJoin, int32(f.joiner), int64(f.gen))
	a.traceCtrl(telemetry.EvReconfigure, -1, int64(f.gen))
	a.traceCtrl(telemetry.EvResume, -1, int64(f.boundary))
	var wire []byte
	for i := range lv.job.peers {
		if !active[i] {
			continue
		}
		ap := lv.job.peers[i].Load()
		if ap == nil {
			continue
		}
		if wire == nil {
			wire = packet.NewControl(packet.KindResume, uint16(i), f.gen, f.boundary, nil).Marshal()
		} else if err := packet.PatchWorkerID(wire, uint16(i)); err != nil {
			continue
		}
		a.writeCtrl(wire, *ap)
	}
}

// elasticSweepLocked is the sweeper's membership pass: rebroadcast an
// open fence's directive (control datagrams are as losable as any
// other) and commit any drain whose boundary every other live worker
// has passed. The drain commit runs even while a join fence is open —
// a draining leaver will never confirm a fence, so the leave must win
// — and reuses the §5.6 recovery handshake, which aborts the fence as
// a side effect; the joiner retries after the survivors resume.
func (a *Aggregator) elasticSweepLocked() {
	lv := a.lv
	if lv.fence != nil {
		a.sendFenceLocked()
	}
	if !lv.leaveArmed.Load() || lv.recovering {
		return
	}
	committed := false
	for w := range lv.leavePend {
		if !lv.leavePend[w] || !a.drainCommittableLocked(w) {
			continue
		}
		lv.leavePend[w] = false
		lv.tracker.MarkDeparted(w)
		a.traceCtrl(telemetry.EvWorkerLeave, int32(w), int64(lv.leaveOff[w]))
		committed = true
	}
	if !committed {
		return
	}
	pending := false
	for _, p := range lv.leavePend {
		pending = pending || p
	}
	if !pending {
		lv.leaveArmed.Store(false)
	}
	a.startRecoveryLocked()
}

// drainCommittableLocked reports whether leaver w can be retired: at
// least one other live, non-draining worker remains, and every such
// worker has proven progress at or beyond the drain boundary. A
// worker sends an update at offset B only after every prior tensor
// completed for it, so passing the boundary certifies it no longer
// needs the leaver's help with anything the leaver contributed to.
func (a *Aggregator) drainCommittableLocked(w int) bool {
	lv := a.lv
	rest := 0
	for i := range lv.job.peers {
		if i == w || lv.tracker.Dead(i) || lv.tracker.Draining(i) || lv.tracker.LastSeen(i) < 0 {
			continue
		}
		if lv.maxOff[i].Load() < lv.leaveOff[w] {
			return false
		}
		rest++
	}
	return rest > 0
}

// Departed reports whether worker w left gracefully — distinct from
// Alive turning false by eviction, so monitoring can tell a clean
// exit from a crash.
func (a *Aggregator) Departed(w int) bool {
	if a.lv == nil {
		return false
	}
	return a.lv.tracker.Departed(w)
}

// Draining reports whether worker w has announced a graceful leave
// and is finishing its in-flight window.
func (a *Aggregator) Draining(w int) bool {
	if a.lv == nil {
		return false
	}
	return a.lv.tracker.Draining(w)
}
