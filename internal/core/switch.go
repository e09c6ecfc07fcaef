// Package core implements the SwitchML aggregation protocol: the
// switch-side logic of Algorithms 1 and 3 and the worker-side logic
// of Algorithms 2 and 4, as pure deterministic state machines.
//
// The state machines are transport-agnostic: they consume and produce
// packets without performing I/O or keeping timers. Hosts — the
// discrete-event simulator, the in-process loopback transport, and
// the real UDP transport — drive them and own retransmission timers,
// exactly as the paper keeps "protocol complexity at the end hosts"
// (§3.2).
//
//switchml:deterministic
package core

import (
	"fmt"

	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// SwitchConfig describes one job's aggregation pool on a switch.
type SwitchConfig struct {
	// Workers is n, the number of workers that must contribute to
	// each slot before it completes.
	Workers int
	// PoolSize is s, the number of aggregator slots per pool. With
	// loss recovery enabled the switch holds two pools of this size
	// (the active copy and the shadow copy).
	PoolSize int
	// SlotElems is k, the maximum number of 32-bit elements a slot
	// (and hence a packet) can hold.
	SlotElems int
	// LossRecovery selects Algorithm 3 (shadow copies + seen bitmaps)
	// when true, and the simpler Algorithm 1 (single pool, counter
	// only) when false. Algorithm 1 is only correct on lossless
	// fabrics; it exists for the paper's Infiniband/lossless-RoCE
	// scenario and for ablation.
	LossRecovery bool
	// JobID is stamped on sanity checks of incoming packets.
	JobID uint16
	// Codec converts between wire elements and accumulator values;
	// nil selects the identity (32-bit fixed point on the wire). The
	// float16 mode of §3.7 passes a PackedHalfCodec.
	Codec Codec
	// Metrics optionally registers the switch's counters in a shared
	// telemetry registry, labeled job="<JobID>"; nil keeps standalone
	// counters. Stats() reads the same counters either way, so hosts
	// may snapshot concurrently with packet handling.
	Metrics *telemetry.Registry
	// Tracer observes slot-level protocol events (SlotAggregated,
	// SlotComplete, ShadowRead); nil disables tracing.
	Tracer telemetry.Tracer
	// Now supplies Tracer timestamps in nanoseconds: virtual time
	// under the simulator, wall clock over UDP. nil stamps zero.
	Now func() int64
	// Quorum is the straggler-mitigation knob: when in [1, Workers),
	// a slot completes as soon as this many distinct workers have
	// contributed, instead of the full membership. Late updates from
	// the stragglers are handled per LatePolicy. Zero (or a value at or
	// above the active membership) selects full participation. Quorum
	// requires LossRecovery: Algorithm 1's counter-only slot release
	// cannot tell a late straggler from a new phase.
	Quorum int
	// LatePolicy selects what happens to a straggler's update arriving
	// after its slot completed at quorum.
	LatePolicy LatePolicy
}

// LatePolicy enumerates the quorum late-update policies.
type LatePolicy uint8

const (
	// LateDrop counts and discards late updates; the straggler still
	// receives the retained quorum result, so it keeps pace, but its
	// gradient for that chunk is lost.
	LateDrop LatePolicy = iota
	// LateReconcile folds a late update into the next aggregation
	// phase that opens on the same slot — the straggler's gradient
	// lands one step late instead of being dropped.
	LateReconcile
)

func (c *SwitchConfig) validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("core: switch needs at least 1 worker, got %d", c.Workers)
	}
	if c.PoolSize <= 0 {
		return fmt.Errorf("core: pool size must be positive, got %d", c.PoolSize)
	}
	if c.SlotElems <= 0 {
		return fmt.Errorf("core: slot elements must be positive, got %d", c.SlotElems)
	}
	if c.Quorum < 0 || c.Quorum > c.Workers {
		return fmt.Errorf("core: quorum %d out of range [0, %d]", c.Quorum, c.Workers)
	}
	if c.Quorum > 0 && c.Quorum < c.Workers && !c.LossRecovery {
		return fmt.Errorf("core: quorum needs loss recovery (shadow copies distinguish late stragglers from new phases)")
	}
	return nil
}

// slot is one aggregator: a vector accumulator plus completion
// tracking, in one version of the pool.
type slot struct {
	vector []int32
	// elems is the length of the aggregation in progress; the final
	// chunk of a tensor may be shorter than k.
	elems int
	// off is the stream offset of the aggregation in progress, kept
	// so retransmitted results carry the right offset.
	off int64
	// count counts contributions modulo n, exactly as Algorithm 3
	// line 8: count==0 right after an increment means "complete".
	count int
	// seen marks which workers contributed (Algorithm 3's bitmap).
	seen bitset
	// start stamps when the current aggregation phase opened (the
	// first contribution's timestamp), feeding the slot-fill latency
	// histogram; zero when no clock is configured.
	start int64
	// carry holds late straggler updates awaiting reconciliation into
	// the next phase that opens on this slot; nil unless the switch
	// runs quorum mode with LateReconcile.
	carry []int32
	// carried marks that carry holds a pending late update; lateSeen
	// marks which stragglers already reconciled into it, so a
	// retransmitted late update is not double-counted.
	carried  bool
	lateSeen bitset
}

// switchCounters are the switch's live counters, atomic so hosts may
// snapshot them while the dataplane runs; SwitchStats is their
// snapshot view.
type switchCounters struct {
	updates, completions, ignoredDuplicates *telemetry.Counter
	resultRetransmissions, staleUpdates     *telemetry.Counter
	rejected                                *telemetry.Counter
	// quorumCompletions counts slots completed before the full
	// membership contributed; lateDropped/lateReconciled count the
	// stragglers' subsequent updates per policy, and goneReplies the
	// empty unicast results that told a straggler its phase's retained
	// value was already evicted.
	quorumCompletions, lateDropped *telemetry.Counter
	lateReconciled, goneReplies    *telemetry.Counter
	// slotFill observes phase-open-to-completion latency per slot in
	// nanoseconds (only fed when the switch has a clock).
	slotFill *telemetry.Histogram
	// lastArrival[w] counts completions where worker w contributed
	// last — the straggler attribution of §7's tail analysis: the
	// worker whose packet closes the slot is the one everyone waited
	// for.
	lastArrival []*telemetry.Counter
}

// newSwitchCounters binds the counters into reg when non-nil (labeled
// by job id) and allocates standalone ones otherwise.
func newSwitchCounters(reg *telemetry.Registry, job uint16, workers int) switchCounters {
	ctr := switchCounters{lastArrival: make([]*telemetry.Counter, workers)}
	if reg == nil {
		ctr.updates, ctr.completions = &telemetry.Counter{}, &telemetry.Counter{}
		ctr.ignoredDuplicates, ctr.resultRetransmissions = &telemetry.Counter{}, &telemetry.Counter{}
		ctr.staleUpdates, ctr.rejected = &telemetry.Counter{}, &telemetry.Counter{}
		ctr.quorumCompletions, ctr.lateDropped = &telemetry.Counter{}, &telemetry.Counter{}
		ctr.lateReconciled, ctr.goneReplies = &telemetry.Counter{}, &telemetry.Counter{}
		ctr.slotFill = telemetry.NewHistogram(telemetry.LatencyBuckets)
		for w := range ctr.lastArrival {
			ctr.lastArrival[w] = &telemetry.Counter{}
		}
		return ctr
	}
	label := []string{"job", fmt.Sprintf("%d", job)}
	ctr.updates = reg.Counter("switch_updates_total", label...)
	ctr.completions = reg.Counter("switch_completions_total", label...)
	ctr.ignoredDuplicates = reg.Counter("switch_ignored_duplicates_total", label...)
	ctr.resultRetransmissions = reg.Counter("switch_result_retransmissions_total", label...)
	ctr.staleUpdates = reg.Counter("switch_stale_updates_total", label...)
	ctr.rejected = reg.Counter("switch_rejected_total", label...)
	ctr.quorumCompletions = reg.Counter("switch_quorum_completions_total", label...)
	ctr.lateDropped = reg.Counter("switch_quorum_late_dropped_total", label...)
	ctr.lateReconciled = reg.Counter("switch_quorum_late_reconciled_total", label...)
	ctr.goneReplies = reg.Counter("switch_quorum_gone_replies_total", label...)
	ctr.slotFill = reg.Histogram("switch_slot_fill_ns", telemetry.LatencyBuckets, label...)
	for w := range ctr.lastArrival {
		ctr.lastArrival[w] = reg.Counter("switch_last_contributor_total",
			"job", label[1], "worker", fmt.Sprintf("%d", w))
	}
	return ctr
}

// SwitchStats counts protocol events on the switch.
type SwitchStats struct {
	// Updates is the number of update packets processed.
	Updates uint64
	// Completions is the number of slot aggregations finished (each
	// produces one multicast result).
	Completions uint64
	// IgnoredDuplicates counts retransmitted updates for slots still
	// aggregating (seen bit already set, Algorithm 3 line 23).
	IgnoredDuplicates uint64
	// ResultRetransmissions counts unicast result replies to
	// retransmitted updates for already-complete slots (line 21).
	ResultRetransmissions uint64
	// StaleUpdates counts old-phase packets that overtook a worker's
	// later updates and were dropped to protect the slot (a hardening
	// beyond the paper, which assumes per-worker FIFO delivery).
	StaleUpdates uint64
	// Rejected counts malformed packets dropped by sanity checks.
	Rejected uint64
	// QuorumCompletions counts slots completed at the quorum threshold
	// before the full membership contributed.
	QuorumCompletions uint64
	// LateDropped / LateReconciled count straggler updates arriving
	// after a quorum completion, per the configured LatePolicy.
	LateDropped    uint64
	LateReconciled uint64
	// GoneReplies counts empty unicast results sent to stragglers
	// whose phase's retained value was already evicted; the worker
	// self-completes the chunk from its local update.
	GoneReplies uint64
}

// Response is the switch's reaction to one update packet.
type Response struct {
	// Pkt is the result packet, nil if the update was absorbed or
	// dropped.
	Pkt *packet.Packet
	// Multicast is true when Pkt must be delivered to every worker;
	// false means unicast to Pkt.WorkerID.
	Multicast bool
}

// Switch is the dataplane aggregation state machine for a single job.
// It is not safe for concurrent use; hosts serialize packet delivery,
// which models the switch pipeline processing one packet at a time.
type Switch struct {
	cfg   SwitchConfig
	pools [2][]slot
	ctr   switchCounters
	// active marks the workers currently participating in the job;
	// required is their count. Initially every worker in [0, Workers)
	// is active; the failure controller shrinks the membership with
	// Reconfigure (§5.6: the controller removes a failed worker and
	// the job resumes among survivors).
	active   bitset
	required int
	// scratch holds one packet's ingress-expanded values.
	scratch []int32
}

// unstamped marks a handler call without a caller-supplied clock
// stamp: the switch reads cfg.Now itself, at each point that needs
// the time.
const unstamped int64 = -1

// now returns the handler's timestamp: the caller's stamp when it
// supplied one (HandleIntoAt), else a read of the configured clock.
func (sw *Switch) now(stamp int64) int64 {
	if stamp != unstamped {
		return stamp
	}
	if sw.cfg.Now == nil {
		return 0
	}
	return sw.cfg.Now()
}

// trace emits a slot-level event for packet p.
func (sw *Switch) trace(t telemetry.EventType, p *packet.Packet, stamp int64) {
	if sw.cfg.Tracer == nil {
		return
	}
	e := telemetry.Ev(t, sw.now(stamp))
	e.Actor = "switch"
	e.Worker = int32(p.WorkerID)
	e.Slot = int32(p.Idx)
	e.Off = int64(p.Off)
	sw.cfg.Tracer.Emit(e)
}

// ratio is the accumulator-values-per-wire-element factor.
func (sw *Switch) ratio() int {
	if sw.cfg.Codec == nil {
		return 1
	}
	return sw.cfg.Codec.Ratio()
}

// ingressOverwrite decodes p's vector into the slot accumulator,
// replacing its contents. A pending late-straggler carry (quorum mode
// with LateReconcile) is folded into the opening phase here, so the
// straggler's gradient lands exactly one slot reuse late.
func (sw *Switch) ingressOverwrite(sl *slot, p *packet.Packet) {
	sl.elems = len(p.Vector)
	sl.off = int64(p.Off)
	if sw.cfg.Codec == nil {
		copy(sl.vector[:sl.elems], p.Vector)
	} else {
		sw.cfg.Codec.Ingress(sl.vector[:sw.ratio()*sl.elems], p.Vector)
	}
	if sl.carried {
		// The carried chunk and the opening one share a slot but may
		// differ in length (tensor tail); the overlap is reconciled and
		// the excess dropped with the rest of the carry.
		addVec(sl.vector[:sw.ratio()*sl.elems], sl.carry[:sw.ratio()*sl.elems])
		for i := range sl.carry {
			sl.carry[i] = 0
		}
		sl.carried = false
	}
	if sl.lateSeen != nil {
		for w := 0; w < sw.cfg.Workers; w++ {
			sl.lateSeen.clear(w)
		}
	}
}

// lateUpdate applies the configured LatePolicy to a straggler's
// update that arrived after its slot completed at quorum. Under
// LateReconcile the gradient is folded into the slot's carry, to be
// added when the next phase opens; lateSeen suppresses
// double-counting when the straggler retransmits.
func (sw *Switch) lateUpdate(sl *slot, p *packet.Packet, scratch []int32) {
	if !sw.quorumActive() {
		return
	}
	wid := int(p.WorkerID)
	if sl.carry == nil || sw.cfg.LatePolicy != LateReconcile {
		sw.ctr.lateDropped.Inc()
		return
	}
	if sl.lateSeen.get(wid) {
		sw.ctr.ignoredDuplicates.Inc()
		return
	}
	if len(p.Vector) != sl.elems {
		sw.ctr.staleUpdates.Inc()
		return
	}
	sl.lateSeen.set(wid)
	if sw.cfg.Codec == nil {
		addVec(sl.carry[:sl.elems], p.Vector)
	} else {
		vals := scratch[:sw.ratio()*sl.elems]
		sw.cfg.Codec.Ingress(vals, p.Vector)
		addVec(sl.carry[:sw.ratio()*sl.elems], vals)
	}
	sl.carried = true
	sw.ctr.lateReconciled.Inc()
}

// goneReply answers a straggler whose phase's retained value was
// already evicted: an empty unicast result for the requested offset.
// The worker recognizes the empty vector and self-completes the chunk
// from its local update — its gradient is lost for that step (it was
// already excluded by the quorum completion), but it stays in
// lockstep with the stream.
func (sw *Switch) goneReply(p *packet.Packet, out *packet.Packet) Response {
	sw.ctr.goneReplies.Inc()
	if out == nil {
		//switchml:allow hotpath -- nil-out fallback mirrors respond's allocating path
		out = &packet.Packet{}
	}
	vec := out.Vector
	*out = packet.Packet{
		Kind:     packet.KindResultUnicast,
		WorkerID: p.WorkerID,
		JobID:    p.JobID,
		Ver:      p.Ver,
		Idx:      p.Idx,
		Off:      p.Off,
		Vector:   vec[:0],
	}
	return Response{Pkt: out}
}

// egressInto encodes the slot accumulator into dst, reusing dst's
// capacity when sufficient. When the caller can borrow (HandleInto),
// this eliminates the per-completion result allocation.
func (sw *Switch) egressInto(dst []int32, sl *slot) []int32 {
	if cap(dst) >= sl.elems {
		dst = dst[:sl.elems]
	} else {
		//switchml:allow hotpath -- guarded grow fallback: borrowed response vectors reach SlotElems capacity once, then are reused
		dst = make([]int32, sl.elems)
	}
	if sw.cfg.Codec == nil {
		copy(dst, sl.vector[:sl.elems])
		return dst
	}
	sw.cfg.Codec.Egress(dst, sl.vector[:sw.ratio()*sl.elems])
	return dst
}

// respond builds the switch's reply into out (allocating a fresh
// packet when out is nil), copying the request's routing fields and
// encoding the slot accumulator into out's reused vector.
func (sw *Switch) respond(out *packet.Packet, p *packet.Packet, kind packet.Kind, off uint64, sl *slot) *packet.Packet {
	if out == nil {
		//switchml:allow hotpath -- nil-out fallback serves the allocating Handle wrapper; HandleInto callers always pass out
		out = &packet.Packet{}
	}
	vec := out.Vector
	*out = packet.Packet{
		Kind:     kind,
		WorkerID: p.WorkerID,
		JobID:    p.JobID,
		Ver:      p.Ver,
		Idx:      p.Idx,
		Off:      off,
	}
	out.Vector = sw.egressInto(vec[:0], sl)
	return out
}

// NewSwitch allocates the pools for one job.
func NewSwitch(cfg SwitchConfig) (*Switch, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sw := &Switch{cfg: cfg, ctr: newSwitchCounters(cfg.Metrics, cfg.JobID, cfg.Workers)}
	sw.active = newBitset(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		sw.active.set(i)
	}
	sw.required = cfg.Workers
	versions := 2
	if !cfg.LossRecovery {
		versions = 1
	}
	for v := 0; v < versions; v++ {
		sw.pools[v] = make([]slot, cfg.PoolSize)
		for i := range sw.pools[v] {
			sw.pools[v][i] = slot{
				vector: make([]int32, sw.ratio()*cfg.SlotElems),
				off:    -1,
				seen:   newBitset(cfg.Workers),
			}
			if cfg.Quorum > 0 && cfg.Quorum < cfg.Workers && cfg.LatePolicy == LateReconcile {
				sw.pools[v][i].carry = make([]int32, sw.ratio()*cfg.SlotElems)
				sw.pools[v][i].lateSeen = newBitset(cfg.Workers)
			}
		}
	}
	sw.scratch = make([]int32, sw.ratio()*cfg.SlotElems)
	return sw, nil
}

// Config returns the switch's configuration.
func (sw *Switch) Config() SwitchConfig { return sw.cfg }

// Stats returns a snapshot of the switch's counters. The counters
// are atomic, so the snapshot is safe to take concurrently with
// packet handling (each field is individually consistent).
func (sw *Switch) Stats() SwitchStats {
	return SwitchStats{
		Updates:               sw.ctr.updates.Value(),
		Completions:           sw.ctr.completions.Value(),
		IgnoredDuplicates:     sw.ctr.ignoredDuplicates.Value(),
		ResultRetransmissions: sw.ctr.resultRetransmissions.Value(),
		StaleUpdates:          sw.ctr.staleUpdates.Value(),
		Rejected:              sw.ctr.rejected.Value(),
		QuorumCompletions:     sw.ctr.quorumCompletions.Value(),
		LateDropped:           sw.ctr.lateDropped.Value(),
		LateReconciled:        sw.ctr.lateReconciled.Value(),
		GoneReplies:           sw.ctr.goneReplies.Value(),
	}
}

// MemoryBytes returns the register memory this job's pools occupy,
// for resource accounting against the p4sim SRAM model: vectors plus
// the seen bitmaps and counters.
func (sw *Switch) MemoryBytes() int {
	versions := 2
	if !sw.cfg.LossRecovery {
		versions = 1
	}
	perSlot := sw.ratio()*sw.cfg.SlotElems*4 + // vector registers
		(sw.cfg.Workers+7)/8 + // seen bitmap
		4 // count register
	return versions * sw.cfg.PoolSize * perSlot
}

// Handle processes one update packet per Algorithm 3 (or Algorithm 1
// when loss recovery is off) and returns the switch's response.
// Malformed packets are counted and dropped, never panicking: a
// dataplane must survive garbage.
func (sw *Switch) Handle(p *packet.Packet) Response {
	return sw.handleWith(p, sw.scratch, nil, unstamped)
}

// HandleInto is Handle with caller-borrowed response storage: when a
// reply is produced, Response.Pkt is out, its vector reusing out's
// capacity. Steady-state packet handling then allocates nothing. out
// must not alias p, and the reply must be consumed (marshalled or
// copied) before out is reused for the next packet.
//
//switchml:hotpath
func (sw *Switch) HandleInto(p *packet.Packet, out *packet.Packet) Response {
	return sw.handleWith(p, sw.scratch, out, unstamped)
}

// handleWith is the dataplane entry point; scratch is the
// codec-expansion buffer (unused when Codec is nil), out the optional
// borrowed response packet and stamp the caller's clock reading in
// cfg.Now's units, or unstamped to read cfg.Now where the time is
// needed (a phase opening, a completion, a trace event).
func (sw *Switch) handleWith(p *packet.Packet, scratch []int32, out *packet.Packet, stamp int64) Response {
	if !sw.admit(p) {
		sw.ctr.rejected.Inc()
		return Response{}
	}
	sw.ctr.updates.Inc()
	if !sw.cfg.LossRecovery {
		return sw.handleSimple(p, scratch, out, stamp)
	}
	return sw.handleRecovering(p, scratch, out, stamp)
}

// admit performs the dataplane sanity checks.
func (sw *Switch) admit(p *packet.Packet) bool {
	if p.Kind != packet.KindUpdate {
		return false
	}
	if int(p.WorkerID) >= sw.cfg.Workers || !sw.active.get(int(p.WorkerID)) {
		return false
	}
	if p.JobID != sw.cfg.JobID {
		return false
	}
	if int(p.Idx) >= sw.cfg.PoolSize {
		return false
	}
	if len(p.Vector) == 0 || len(p.Vector) > sw.cfg.SlotElems {
		return false
	}
	if p.Ver > 1 || (!sw.cfg.LossRecovery && p.Ver != 0) {
		return false
	}
	return true
}

// needed returns the contribution count that completes a slot: the
// quorum when straggler mitigation is on (and the membership is still
// larger than it), the full membership otherwise.
func (sw *Switch) needed() int {
	if q := sw.cfg.Quorum; q > 0 && q < sw.required {
		return q
	}
	return sw.required
}

// quorumActive reports whether slots currently complete short of the
// full membership.
func (sw *Switch) quorumActive() bool { return sw.needed() < sw.required }

// handleSimple is Algorithm 1: no duplicate suppression, no shadow
// copy. Correct only when the network never drops or duplicates.
func (sw *Switch) handleSimple(p *packet.Packet, scratch []int32, out *packet.Packet, stamp int64) Response {
	sl := &sw.pools[0][p.Idx]
	if sl.count == 0 {
		sw.ingressOverwrite(sl, p)
		sl.start = sw.now(stamp)
	} else {
		if !sw.accumulate(sl, p, scratch) {
			return Response{}
		}
	}
	sw.trace(telemetry.EvSlotAggregated, p, stamp)
	sl.count++
	if sl.count < sw.required {
		return Response{}
	}
	// Complete: emit the aggregate and release the slot (Algorithm 1
	// lines 8-10).
	resp := sw.respond(out, p, packet.KindResult, p.Off, sl)
	sl.count = 0
	sl.off = -1
	sw.ctr.completions.Inc()
	sw.observeCompletion(sl, int(p.WorkerID), stamp)
	sw.trace(telemetry.EvSlotComplete, p, stamp)
	return Response{Pkt: resp, Multicast: true}
}

// handleRecovering is Algorithm 3, extended with quorum-based
// straggler mitigation: a slot may complete at needed() < required
// contributions, in which case the stragglers' late updates are
// served the retained result and handled per LatePolicy, and
// stragglers whose phase has already been evicted get an empty
// "gone" unicast telling them to self-complete from their local
// update.
func (sw *Switch) handleRecovering(p *packet.Packet, scratch []int32, out *packet.Packet, stamp int64) Response {
	sl := &sw.pools[p.Ver][p.Idx]
	other := &sw.pools[1-p.Ver][p.Idx]
	wid := int(p.WorkerID)

	if sw.cfg.Quorum > 0 && sl.seen.get(wid) && sl.count == 0 && int64(p.Off) != sl.off {
		// Stale seen bit: the worker contributed to a phase other than
		// the one retained here. Quorum completions reuse slots without
		// the stragglers whose contributions would have cleared this
		// bit via the other pool, so the bit can linger both behind the
		// retained phase (p.Off > sl.off, the worker moved on) and
		// ahead of it (p.Off < sl.off, faster peers lapped the slot).
		// Either way the packet must not be mistaken for a
		// retransmission of the retained phase, or the worker deadlocks
		// being served a result for an offset it never asked about.
		sl.seen.clear(wid)
	}

	if !sl.seen.get(wid) {
		// First contribution from this worker for this slot+version
		// (Algorithm 3 lines 5-17).
		if sl.count == 0 {
			// This packet would open a new aggregation phase and
			// overwrite the slot. Stream offsets grow strictly
			// monotonically per slot, so a packet not beyond both
			// pools' last offsets is a stale duplicate that overtook
			// the worker's later updates (same-worker reordering,
			// which the single version bit cannot otherwise
			// distinguish). Serve the retained result if it matches
			// this pool's completed aggregation; otherwise drop it
			// rather than corrupt the slot.
			if int64(p.Off) <= sl.off || int64(p.Off) <= other.off {
				if int64(p.Off) == sl.off {
					// Under quorum this is a straggler whose slot
					// completed without it: apply the late-update
					// policy, then serve the retained result so it
					// keeps pace.
					sw.lateUpdate(sl, p, scratch)
					sw.ctr.resultRetransmissions.Inc()
					sw.trace(telemetry.EvShadowRead, p, stamp)
					return Response{Pkt: sw.respond(out, p, packet.KindResultUnicast, uint64(sl.off), sl)}
				}
				if sw.quorumActive() && int64(p.Off) < sl.off && int64(p.Off) != other.off {
					return sw.goneReply(p, out)
				}
				sw.ctr.staleUpdates.Inc()
				return Response{}
			}
		} else if int64(p.Off) < sl.off && int64(p.Off) != other.off {
			// A newer phase is already aggregating on this pool: the
			// straggler's phase was evicted before it contributed.
			// Only reachable under quorum, where fast workers reuse a
			// slot before a straggler's chunk resolves.
			if sw.quorumActive() {
				return sw.goneReply(p, out)
			}
			sw.ctr.staleUpdates.Inc()
			return Response{}
		}
		if sl.count == 0 && sw.cfg.Quorum > 0 {
			// Opening a new phase: reset the roll. Under full
			// participation every lingering seen bit was provably
			// cleared through the opposite pool's alternation, but
			// quorum completions reuse slots without the stragglers,
			// so bits from older phases survive — and the idle-slot
			// guard above cannot reach them once a peer has opened
			// the next phase. A survivor's bit would misclassify its
			// owner's genuine contribution as a retransmission,
			// silently dropped while the phase is open, wedging the
			// slot below the quorum.
			sl.seen.clearAll()
		}
		otherHad := other.seen.get(wid)
		sl.seen.set(wid)
		other.seen.clear(wid)
		if sl.count == 0 {
			// First contribution overall: overwrite, which doubles as
			// the slot reset (line 10).
			sw.ingressOverwrite(sl, p)
			sl.start = sw.now(stamp)
		} else {
			if !sw.accumulate(sl, p, scratch) {
				// Inconsistent chunk from a misbehaving worker: undo
				// the seen-bit changes and drop.
				sl.seen.clear(wid)
				if otherHad {
					other.seen.set(wid)
				}
				return Response{}
			}
		}
		sw.trace(telemetry.EvSlotAggregated, p, stamp)
		sl.count++
		if sl.count < sw.needed() {
			return Response{}
		}
		// Aggregation complete (lines 13-15): the slot becomes the
		// shadow copy, retaining its value for retransmissions.
		resp := sw.respond(out, p, packet.KindResult, p.Off, sl)
		if sl.count < sw.required {
			sw.ctr.quorumCompletions.Inc()
			sw.trace(telemetry.EvQuorumComplete, p, stamp)
		}
		sl.count = 0
		sw.ctr.completions.Inc()
		sw.observeCompletion(sl, wid, stamp)
		sw.trace(telemetry.EvSlotComplete, p, stamp)
		return Response{Pkt: resp, Multicast: true}
	}

	// Retransmission (lines 18-23).
	if sl.count == 0 {
		// The slot already completed; reply to just this worker with
		// the retained result (lines 19-21).
		sw.ctr.resultRetransmissions.Inc()
		sw.trace(telemetry.EvShadowRead, p, stamp)
		return Response{Pkt: sw.respond(out, p, packet.KindResultUnicast, uint64(sl.off), sl)}
	}
	// Still aggregating: the update was already applied, ignore.
	sw.ctr.ignoredDuplicates.Inc()
	return Response{}
}

// accumulate adds p's vector into the slot, verifying the chunk is
// consistent with the aggregation in progress.
func (sw *Switch) accumulate(sl *slot, p *packet.Packet, scratch []int32) bool {
	if len(p.Vector) != sl.elems || int64(p.Off) != sl.off {
		// The packet passed admission but does not belong to the
		// aggregation in progress: a stale or inconsistent chunk.
		sw.ctr.staleUpdates.Inc()
		return false
	}
	if sw.cfg.Codec == nil {
		addVec(sl.vector, p.Vector)
		return true
	}
	vals := scratch[:sw.ratio()*sl.elems]
	sw.cfg.Codec.Ingress(vals, p.Vector)
	addVec(sl.vector, vals)
	return true
}

// DebugSlot reports a slot's internal state for diagnostics: the
// contribution count, the offset of the aggregation in progress, and
// the seen bitmap's first word.
func (sw *Switch) DebugSlot(ver uint8, idx uint32) (count int, off int64, elems int, seen uint64) {
	sl := &sw.pools[ver][idx]
	return sl.count, sl.off, sl.elems, uint64(sl.seen[0])
}

// Required returns the number of contributions a slot needs to
// complete — the size of the current active membership.
func (sw *Switch) Required() int { return sw.required }

// Active reports whether worker wid is part of the current membership.
func (sw *Switch) Active(wid int) bool {
	return wid >= 0 && wid < sw.cfg.Workers && sw.active.get(wid)
}

// ActiveWorkers lists the current membership in id order.
func (sw *Switch) ActiveWorkers() []int {
	out := make([]int, 0, sw.required)
	for i := 0; i < sw.cfg.Workers; i++ {
		if sw.active.get(i) {
			out = append(out, i)
		}
	}
	return out
}

// JobID returns the job generation currently stamped on admissions.
func (sw *Switch) JobID() uint16 { return sw.cfg.JobID }

// Reconfigure installs a new worker membership and job generation,
// draining the pool: all slot state is reset, so partial aggregations
// that included a removed worker are discarded, and packets from the
// previous generation fail admission on their stale JobID. This is
// the switch half of the paper's §5.6 failure recovery — the
// controller removes a failed worker (or re-seats the full membership
// after a switch restart) and the survivors resume.
//
// active must have cfg.Workers entries with at least one set. A nil
// active keeps the current membership (switch-restart recovery, where
// only the generation changes).
func (sw *Switch) Reconfigure(active []bool, jobID uint16) error {
	if active != nil {
		if len(active) != sw.cfg.Workers {
			return fmt.Errorf("core: membership has %d entries for %d workers", len(active), sw.cfg.Workers)
		}
		n := 0
		for _, a := range active {
			if a {
				n++
			}
		}
		if n == 0 {
			return fmt.Errorf("core: reconfigure needs at least one active worker")
		}
		for i, a := range active {
			if a {
				sw.active.set(i)
			} else {
				sw.active.clear(i)
			}
		}
		sw.required = n
	}
	sw.cfg.JobID = jobID
	sw.Reset()
	return nil
}

// Reset clears all pool state, preparing the switch for a restarted
// job. The paper assumes worker failures are handled by the ML
// framework restarting the job (§3.2); on restart the new workers
// begin the stream at offset zero, which the monotonic-offset
// hardening would otherwise reject against the dead job's residue.
func (sw *Switch) Reset() {
	for v := range sw.pools {
		for i := range sw.pools[v] {
			sl := &sw.pools[v][i]
			for j := range sl.vector {
				sl.vector[j] = 0
			}
			sl.count = 0
			sl.elems = 0
			sl.off = -1
			for w := 0; w < sw.cfg.Workers; w++ {
				sl.seen.clear(w)
				if sl.lateSeen != nil {
					sl.lateSeen.clear(w)
				}
			}
			for j := range sl.carry {
				sl.carry[j] = 0
			}
			sl.carried = false
		}
	}
}
