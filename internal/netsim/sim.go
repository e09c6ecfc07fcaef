// Package netsim is a deterministic discrete-event network simulator.
//
// It substitutes for the paper's hardware testbed (8-16 machines, a
// Tofino switch, 10/100 Gbps Ethernet): links model bandwidth
// (serialization delay with FIFO queueing), propagation delay, and
// independent Bernoulli packet loss; nodes are event-driven actors.
// All time is virtual, so experiments are reproducible bit-for-bit
// for a given seed and are independent of host speed.
//
// The scheduler is a binary heap of event sources. A source is either
// a one-shot callback scheduled with At/After — the control plane:
// fault scripts, detector sweeps, probes, samplers — or a Lane, a FIFO
// of typed events pushed in time order: link deliveries, host core
// run queues, a switch pipeline, a family of timers. Lanes carry the
// per-packet traffic without allocating, and only a lane's head sits
// in the heap. Every At and every lane push takes the next global
// sequence number, so equal-time events run in scheduling order
// whichever source holds them.
//
//switchml:deterministic
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"switchml/internal/telemetry"
)

// Time is a point in virtual time, in nanoseconds since the start of
// the simulation.
type Time int64

// Common durations in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a virtual time span to a time.Duration for
// display.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the time like time.Duration.
func (t Time) String() string { return time.Duration(t).String() }

// key is one heap entry: the (at, seq) key of a source's next event
// and the source's index in the handle table. Keys carry no pointers,
// so the sift swaps of the heap never pay GC write barriers; the
// callbacks they order live in the handle table instead.
type key struct {
	at  Time
	seq uint64 // Tie-break so equal-time events run FIFO.
	src int32  // Handle-table index; see source.
}

// source is one entry of the handle table: a one-shot event scheduled
// with At, or a lane. gen invalidates stale Timer handles once a
// one-shot event fires or is cancelled; the entry is recycled when its
// key leaves the heap. Lane entries are permanent.
type source struct {
	fn   func()     // One-shot callback; nil for lanes and once cancelled.
	lane laneSource // Non-nil for a lane.
	gen  uint32
}

// laneSource is the scheduler's view of a Lane, whatever its payload
// type.
type laneSource interface {
	// fire is called when the lane's heap key is the minimum. It runs
	// the head event (returning true), or — when the key is stale
	// because the head was cancelled — re-keys the lane without
	// running anything.
	fire() bool
	cancel(pos uint64) bool
	pending(pos uint64) bool
}

// Sim is a single-threaded discrete-event simulation. It is not safe
// for concurrent use; all actors run inside event callbacks.
type Sim struct {
	now Time
	// heap is a binary min-heap of event sources ordered by the (at,
	// seq) of each source's next event; free-listed handle-table
	// entries make scheduling allocation-free in steady state.
	heap []key
	srcs []source
	free []int32
	// seq is the next global sequence number. Every At and every Lane
	// push reserves one, so equal-time events run in scheduling order
	// whichever source holds them.
	seq uint64
	rng *rand.Rand
	// processed counts executed events, useful for run-away detection
	// in tests.
	processed uint64
	// tracer observes link-level packet events; nil disables tracing.
	tracer telemetry.Tracer
}

// NewSim returns a simulation whose random decisions (packet loss)
// derive from the given seed.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Processed returns how many events have executed.
func (s *Sim) Processed() uint64 { return s.processed }

// SetTracer installs a protocol event tracer; every link in the
// simulation emits PacketSent/PacketRecv/PacketDropped events to it,
// stamped with virtual time. nil turns tracing off.
func (s *Sim) SetTracer(t telemetry.Tracer) { s.tracer = t }

// Tracer returns the installed tracer, nil when tracing is off.
func (s *Sim) Tracer() telemetry.Tracer { return s.tracer }

// Timer is a handle to a scheduled event — one scheduled with At, or
// one pushed on a Lane — that can be cancelled. The zero value is a
// valid no-op handle (Cancel returns false), so hosts can keep Timers
// by value in per-slot arrays.
type Timer struct {
	s   *Sim
	src int32
	gen uint32
	// pos is 1 + the event's position in its lane, or 0 for an At
	// event.
	pos uint64
}

// Cancel withdraws the timer's event in O(1). The event stays queued
// and is discarded when it comes due, without running, moving Now or
// counting in Processed. Cancelling an already-fired,
// already-cancelled or zero Timer is a no-op. It reports whether the
// event was still pending.
func (t Timer) Cancel() bool {
	s := t.s
	if s == nil || int(t.src) >= len(s.srcs) {
		return false
	}
	src := &s.srcs[t.src]
	if t.pos != 0 {
		return src.lane.cancel(t.pos - 1)
	}
	if src.gen != t.gen {
		return false // already fired, cancelled, or entry recycled
	}
	src.fn = nil
	src.gen++
	return true
}

// Pending reports whether the timer's event has neither fired nor
// been cancelled.
func (t Timer) Pending() bool {
	s := t.s
	if s == nil || int(t.src) >= len(s.srcs) {
		return false
	}
	src := &s.srcs[t.src]
	if t.pos != 0 {
		return src.lane.pending(t.pos - 1)
	}
	return src.gen == t.gen
}

// At schedules fn to run at absolute virtual time at. Scheduling in
// the past panics: it indicates a causality bug in an actor.
//
//switchml:hotpath
func (s *Sim) At(at Time, fn func()) Timer {
	if at < s.now {
		//switchml:allow hotpath -- fatal causality-bug path; never taken by a correct actor
		panic(fmt.Sprintf("netsim: scheduling at %v before now %v", at, s.now))
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.srcs))
		//switchml:allow hotpath -- handle-table growth: entries are free-listed, so the table stops growing once the event population peaks
		s.srcs = append(s.srcs, source{})
	}
	s.srcs[slot].fn = fn
	gen := s.srcs[slot].gen
	s.push(key{at: at, seq: s.seq, src: slot})
	s.seq++
	return Timer{s: s, src: slot, gen: gen}
}

// After schedules fn to run d after the current time.
func (s *Sim) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// addLane registers a lane in the handle table and returns its
// permanent entry index. Lane entries never come from the free list,
// so a one-shot Timer can never name one.
func (s *Sim) addLane(l laneSource) int32 {
	s.srcs = append(s.srcs, source{lane: l})
	return int32(len(s.srcs) - 1)
}

// push inserts a heap key.
func (s *Sim) push(k key) {
	//switchml:allow hotpath -- heap growth: the heap keeps its capacity across pops, so steady state appends within capacity
	s.heap = append(s.heap, k)
	s.siftUp(len(s.heap) - 1)
}

// rekeyTop replaces the minimum key's (at, seq) with a later one and
// restores heap order; lanes advance this way when their head fires.
func (s *Sim) rekeyTop(at Time, seq uint64) {
	s.heap[0].at, s.heap[0].seq = at, seq
	s.siftDown(0)
}

// less orders heap entries by (at, seq) for FIFO ties.
func (s *Sim) less(i, j int) bool {
	if s.heap[i].at != s.heap[j].at {
		return s.heap[i].at < s.heap[j].at
	}
	return s.heap[i].seq < s.heap[j].seq
}

func (s *Sim) swap(i, j int) { s.heap[i], s.heap[j] = s.heap[j], s.heap[i] }

func (s *Sim) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *Sim) siftDown(i int) {
	n := len(s.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && s.less(right, left) {
			min = right
		}
		if !s.less(min, i) {
			return
		}
		s.swap(i, min)
		i = min
	}
}

// pop removes the minimum key, restoring heap order.
func (s *Sim) pop() {
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.siftDown(0)
	}
}

// Step executes the next pending event, advancing virtual time. It
// reports whether an event ran.
//
//switchml:hotpath
func (s *Sim) Step() bool { return s.step(Time(math.MaxInt64)) }

// step executes the next pending event if it is due by deadline.
// Cancelled events met on the way are discarded without running,
// moving the clock or counting as processed.
//
//switchml:hotpath
func (s *Sim) step(deadline Time) bool {
	for len(s.heap) > 0 && s.heap[0].at <= deadline {
		top := s.heap[0]
		src := &s.srcs[top.src]
		if src.lane != nil {
			if src.lane.fire() {
				return true
			}
			continue
		}
		s.pop()
		fn := src.fn
		//switchml:allow hotpath -- free-list growth is bounded by the handle table, which stops growing at the event-population peak
		s.free = append(s.free, top.src)
		if fn == nil {
			continue // cancelled; Cancel spent its handles
		}
		src.fn = nil
		src.gen++ // spend outstanding handles
		s.now = top.at
		s.processed++
		fn()
		return true
	}
	return false
}

// Run executes events until none remain.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to the deadline. Events after the deadline remain queued.
func (s *Sim) RunUntil(deadline Time) {
	for s.step(deadline) {
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor executes events for a span of virtual time from now.
func (s *Sim) RunFor(d Time) { s.RunUntil(s.now + d) }
