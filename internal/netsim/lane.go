package netsim

// Lane is a FIFO stream of events that all go to one handler: a link's
// deliveries, a host core's run queue, a pipeline stage, a family of
// timers sharing one timeout. Events are pushed in non-decreasing time
// and stored by value with a typed payload, so scheduling one
// allocates nothing — no closure, no handle entry. Only the lane's
// head sits in the scheduler's heap; when it fires, the lane is
// re-keyed in place to its next event, so a lane costs one heap entry
// however many events it holds.
//
// Each push reserves the simulation's next global sequence number at
// push time, exactly as At does, so events interleave with every other
// lane and with At events in (time, scheduling order) — the same
// order separate At calls would have produced.
//
// A pushed event can be cancelled through the Timer that Push returns.
// Cancellation is lazy: the event stays queued, marked, and is
// discarded when it reaches the head, without running, moving Now or
// counting in Processed. A cancelled head is dropped from the lane at
// once, leaving the lane's heap key stale (early); the scheduler
// re-keys the lane without running anything when that key surfaces.
type Lane[T any] struct {
	s   *Sim
	src int32
	fn  func(T)
	// q is a power-of-two ring of queued events; the head is at
	// absolute position head, and the lane holds n events.
	q    []laneEvent[T]
	head uint64
	n    int
	// last is the latest time pushed; pushes must not go below it.
	last Time
	// keyed marks that the lane holds a heap entry (possibly stale).
	keyed bool
}

type laneEvent[T any] struct {
	at   Time
	seq  uint64
	v    T
	dead bool // cancelled
}

// NewLane creates an empty lane in s whose events run fn with their
// payload.
func NewLane[T any](s *Sim, fn func(T)) *Lane[T] {
	l := &Lane[T]{s: s, fn: fn, q: make([]laneEvent[T], 16)}
	l.src = s.addLane(l)
	return l
}

// Last returns the latest time pushed so far (zero for a fresh lane).
// A caller whose next deadline may fall earlier checks it and falls
// back to Sim.At, which accepts any future time.
func (l *Lane[T]) Last() Time { return l.last }

// Push schedules an event carrying v at time at. at must not precede
// the current time or the lane's previous push.
//
//switchml:hotpath
func (l *Lane[T]) Push(at Time, v T) Timer {
	s := l.s
	if at < s.now || at < l.last {
		panic("netsim: lane push before the current time or the lane's previous push")
	}
	if l.n == len(l.q) {
		l.grow()
	}
	pos := l.head + uint64(l.n)
	l.q[pos&uint64(len(l.q)-1)] = laneEvent[T]{at: at, seq: s.seq, v: v}
	l.n++
	l.last = at
	if !l.keyed {
		l.keyed = true
		s.push(key{at: at, seq: s.seq, src: l.src})
	}
	s.seq++
	return Timer{s: s, src: l.src, pos: pos + 1}
}

// grow doubles the ring by appending a copy of it to itself. Events
// keep their absolute positions, which outstanding Timers hold: the
// event at position p sat at p mod n, and both p mod n and p mod n + n
// — one of which is p mod 2n — now hold it. The other copy is never
// read before a push overwrites it.
func (l *Lane[T]) grow() {
	//switchml:allow hotpath -- ring growth: the ring keeps its capacity, so it stops growing once the lane's backlog peaks
	l.q = append(l.q, l.q...)
}

// slot returns the ring entry at absolute position pos.
func (l *Lane[T]) slot(pos uint64) *laneEvent[T] {
	return &l.q[pos&uint64(len(l.q)-1)]
}

// dropDead discards cancelled events from the head of the lane.
func (l *Lane[T]) dropDead() {
	for l.n > 0 {
		e := l.slot(l.head)
		if !e.dead {
			return
		}
		*e = laneEvent[T]{}
		l.head++
		l.n--
	}
}

// fire implements laneSource.
func (l *Lane[T]) fire() bool {
	s := l.s
	if l.n == 0 {
		l.keyed = false
		s.pop()
		return false
	}
	h := l.slot(l.head)
	if h.seq != s.heap[0].seq {
		// Stale key: the event it was taken from was cancelled.
		s.rekeyTop(h.at, h.seq)
		return false
	}
	e := *h
	*h = laneEvent[T]{}
	l.head++
	l.n--
	l.dropDead()
	if l.n > 0 {
		h = l.slot(l.head)
		s.rekeyTop(h.at, h.seq)
	} else {
		l.keyed = false
		s.pop()
	}
	s.now = e.at
	s.processed++
	l.fn(e.v)
	return true
}

// cancel implements laneSource.
func (l *Lane[T]) cancel(pos uint64) bool {
	if pos < l.head || pos >= l.head+uint64(l.n) {
		return false
	}
	e := l.slot(pos)
	if e.dead {
		return false
	}
	var zero T
	e.v = zero
	e.dead = true
	if pos == l.head {
		l.dropDead()
	}
	return true
}

// pending implements laneSource.
func (l *Lane[T]) pending(pos uint64) bool {
	return pos >= l.head && pos < l.head+uint64(l.n) && !l.slot(pos).dead
}
