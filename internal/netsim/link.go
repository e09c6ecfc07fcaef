package netsim

import (
	"fmt"

	"switchml/internal/telemetry"
)

// Message is anything that can travel over a link. WireSize is the
// size in bytes used for serialization-delay and statistics
// accounting; it should include all header overheads.
type Message interface {
	WireSize() int
}

// ReliableMessage marks messages carried by a reliable byte-stream
// transport (the hosts' kernel TCP stack) rather than the aggregation
// protocol's raw UDP. Links exempt such messages from their loss,
// corruption and duplication processes: the real transport retransmits
// below the level the simulator models, so loss surfaces as extra
// latency there, never as a missing message. Blackouts (SetDown) still
// apply — no transport survives a severed link.
type ReliableMessage interface {
	Message
	Reliable() bool
}

// Node receives messages delivered by links.
type Node interface {
	// Deliver is invoked inside the simulation loop when a message
	// arrives. Implementations may send on other links and schedule
	// events but must not block.
	Deliver(msg Message)
}

// Copier is a Node that may recycle a message once it has handled it.
// A link's duplication fault then delivers, as the second copy, an
// independent one that Copy makes when the message is sent, so the
// duplicate survives the first delivery's recycling. A plain Node gets
// the same message twice.
type Copier interface {
	Node
	Copy(msg Message) Message
}

// NodeFunc adapts a function to the Node interface.
type NodeFunc func(msg Message)

// Deliver implements Node.
func (f NodeFunc) Deliver(msg Message) { f(msg) }

// LinkStats counts traffic over one unidirectional link.
type LinkStats struct {
	// Sent is the number of messages handed to the link.
	Sent uint64
	// Dropped is the number of messages lost for any reason (loss
	// process, blackout, or corruption).
	Dropped uint64
	// Delivered is the number of messages handed to the destination,
	// including injected duplicates.
	Delivered uint64
	// Bytes is the total wire bytes of sent messages, including
	// dropped ones (they occupied the wire before being lost).
	Bytes uint64
	// MaxQueue is the maximum serialization backlog observed, as a
	// virtual-time span.
	MaxQueue Time
	// Blackholed counts messages dropped because the link was down
	// (included in Dropped).
	Blackholed uint64
	// Corrupted counts messages mangled in flight; the simulator
	// models the receiver's checksum discarding them, so they are also
	// included in Dropped.
	Corrupted uint64
	// Duplicated counts extra deliveries injected by the duplication
	// fault.
	Duplicated uint64
}

// Link is a unidirectional point-to-point link with a given bandwidth
// and propagation delay. Messages are serialized FIFO: a message
// handed to a busy link waits until the previous one finishes
// transmitting. Loss is applied independently per message, modelling
// the uniform random loss probability the paper injects per link in
// §5.5.
type Link struct {
	sim *Sim
	// name appears in debugging output.
	name string
	// bitsPerSec is the link bandwidth.
	bitsPerSec float64
	// prop is the one-way propagation delay.
	prop Time
	// loss is the drop process; nil means lossless.
	loss LossModel
	// down blackholes every message while set (link blackout fault).
	down bool
	// dupRate is the probability a delivered message is delivered
	// twice (duplication fault).
	dupRate float64
	// corruptRate is the probability a message is mangled in flight;
	// the receiver's checksum discards it, so it behaves as a counted
	// drop.
	corruptRate float64
	// dst receives delivered messages.
	dst Node
	// nextFree is the virtual time at which the transmitter becomes
	// idle.
	nextFree Time
	// arrivals holds the messages in flight. Arrival times follow
	// transmit order (FIFO serialization, fixed propagation), so one
	// lane carries them all.
	arrivals *Lane[Message]
	stats    LinkStats
}

// LinkConfig describes a link to be created.
type LinkConfig struct {
	// Name identifies the link in diagnostics.
	Name string
	// BitsPerSec is the bandwidth, e.g. 10e9 for 10 Gbps.
	BitsPerSec float64
	// Propagation is the one-way propagation delay.
	Propagation Time
	// LossRate is the per-message drop probability in [0,1),
	// modelling independent Bernoulli loss.
	LossRate float64
	// Loss, when non-nil, overrides LossRate with an arbitrary (and
	// possibly stateful, e.g. Gilbert–Elliott burst) loss process. The
	// model instance must be exclusive to this link.
	Loss LossModel
	// DupRate is the probability in [0,1) that a delivered message is
	// delivered twice (see Copier).
	DupRate float64
	// CorruptRate is the probability in [0,1) that a message is
	// mangled in flight and discarded by the receiver's checksum.
	CorruptRate float64
}

// NewLink creates a link inside sim delivering to dst.
func NewLink(sim *Sim, cfg LinkConfig, dst Node) *Link {
	if cfg.BitsPerSec <= 0 {
		panic(fmt.Sprintf("netsim: link %q bandwidth must be positive", cfg.Name))
	}
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		panic(fmt.Sprintf("netsim: link %q loss rate %v out of [0,1)", cfg.Name, cfg.LossRate))
	}
	if dst == nil {
		panic(fmt.Sprintf("netsim: link %q has no destination", cfg.Name))
	}
	if cfg.DupRate < 0 || cfg.DupRate >= 1 {
		panic(fmt.Sprintf("netsim: link %q dup rate %v out of [0,1)", cfg.Name, cfg.DupRate))
	}
	if cfg.CorruptRate < 0 || cfg.CorruptRate >= 1 {
		panic(fmt.Sprintf("netsim: link %q corrupt rate %v out of [0,1)", cfg.Name, cfg.CorruptRate))
	}
	loss := cfg.Loss
	if loss == nil && cfg.LossRate > 0 {
		loss = Bernoulli{P: cfg.LossRate}
	}
	l := &Link{
		sim:         sim,
		name:        cfg.Name,
		bitsPerSec:  cfg.BitsPerSec,
		prop:        cfg.Propagation,
		loss:        loss,
		dupRate:     cfg.DupRate,
		corruptRate: cfg.CorruptRate,
		dst:         dst,
	}
	l.arrivals = NewLane(sim, l.deliver)
	return l
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Stats returns a snapshot of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// SetLossRate changes the drop probability to an independent Bernoulli
// process; experiments use this to inject loss mid-run.
func (l *Link) SetLossRate(rate float64) {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("netsim: loss rate %v out of [0,1)", rate))
	}
	if rate == 0 {
		l.loss = nil
		return
	}
	l.loss = Bernoulli{P: rate}
}

// SetLossModel installs an arbitrary loss process (nil = lossless).
// The model instance must be exclusive to this link.
func (l *Link) SetLossModel(m LossModel) { l.loss = m }

// SetDown blacks the link out (every message is dropped) or restores
// it; fault scenarios use it for blackout windows. State transitions
// are traced as LinkDown/LinkUp events.
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	t := telemetry.EvLinkUp
	if down {
		t = telemetry.EvLinkDown
	}
	l.trace(t, l.sim.Now(), 0)
}

// Down reports whether the link is blacked out.
func (l *Link) Down() bool { return l.down }

// SetDupRate changes the duplication fault probability.
func (l *Link) SetDupRate(rate float64) {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("netsim: dup rate %v out of [0,1)", rate))
	}
	l.dupRate = rate
}

// SetCorruptRate changes the corruption fault probability.
func (l *Link) SetCorruptRate(rate float64) {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("netsim: corrupt rate %v out of [0,1)", rate))
	}
	l.corruptRate = rate
}

// SerializationDelay returns how long a message of the given size
// occupies the transmitter.
func (l *Link) SerializationDelay(bytes int) Time {
	return Time(float64(bytes*8) / l.bitsPerSec * 1e9)
}

// trace emits a packet event for this link at virtual time ts.
func (l *Link) trace(t telemetry.EventType, ts Time, size int) {
	if l.sim.tracer == nil {
		return
	}
	e := telemetry.Ev(t, int64(ts))
	e.Actor = l.name
	e.Size = int32(size)
	l.sim.tracer.Emit(e)
}

// Send enqueues msg for transmission. It returns the virtual time at
// which the message will finish serializing (even if it is then
// dropped), which callers can use for back-to-back pacing.
//
//switchml:hotpath
func (l *Link) Send(msg Message) Time {
	now := l.sim.Now()
	start := l.nextFree
	if start < now {
		start = now
	}
	if backlog := start - now; backlog > l.stats.MaxQueue {
		l.stats.MaxQueue = backlog
	}
	size := msg.WireSize()
	txDone := start + l.SerializationDelay(size)
	l.nextFree = txDone
	l.stats.Sent++
	l.stats.Bytes += uint64(size)
	l.trace(telemetry.EvPacketSent, now, size)

	if l.down {
		l.stats.Dropped++
		l.stats.Blackholed++
		l.trace(telemetry.EvPacketDropped, txDone, size)
		return txDone
	}
	rm, ok := msg.(ReliableMessage)
	reliable := ok && rm.Reliable()
	if !reliable && l.loss != nil && l.loss.Drop(l.sim.Rand()) {
		l.stats.Dropped++
		// Stamped at txDone: the message occupied the wire before the
		// loss process ate it.
		l.trace(telemetry.EvPacketDropped, txDone, size)
		return txDone
	}
	if !reliable && l.corruptRate > 0 && l.sim.Rand().Float64() < l.corruptRate {
		// The mangled frame reaches the receiver, fails the checksum
		// and is discarded — indistinguishable from a drop above the
		// link layer (§3.4), but counted separately.
		l.stats.Dropped++
		l.stats.Corrupted++
		l.trace(telemetry.EvPacketDropped, txDone, size)
		return txDone
	}
	arrival := txDone + l.prop
	l.arrivals.Push(arrival, msg)
	if !reliable && l.dupRate > 0 && l.sim.Rand().Float64() < l.dupRate {
		l.stats.Duplicated++
		if c, ok := l.dst.(Copier); ok {
			msg = c.Copy(msg)
		}
		l.arrivals.Push(arrival, msg)
	}
	return txDone
}

// deliver hands an arrived message to the destination.
//
//switchml:hotpath
func (l *Link) deliver(msg Message) {
	l.stats.Delivered++
	if l.sim.tracer != nil {
		l.trace(telemetry.EvPacketRecv, l.sim.now, msg.WireSize())
	}
	l.dst.Deliver(msg)
}

// Busy reports whether the transmitter has queued work beyond the
// current time.
func (l *Link) Busy() bool { return l.nextFree > l.sim.Now() }

// NextFree returns when the transmitter becomes idle.
func (l *Link) NextFree() Time { return l.nextFree }
