package netsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := NewSim(1)
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30 {
		t.Errorf("Now = %v, want 30", s.Now())
	}
}

func TestEqualTimeEventsRunFIFO(t *testing.T) {
	s := NewSim(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break)", i, v, i)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim(1)
	var fired []Time
	s.At(10, func() {
		fired = append(fired, s.Now())
		s.After(5, func() { fired = append(fired, s.Now()) })
	})
	s.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Errorf("fired = %v, want [10 15]", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewSim(1)
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(50, func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	s := NewSim(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestTimerCancel(t *testing.T) {
	s := NewSim(1)
	fired := false
	tm := s.At(10, func() { fired = true })
	if !tm.Cancel() {
		t.Error("first Cancel returned false")
	}
	if tm.Cancel() {
		t.Error("second Cancel returned true")
	}
	s.Run()
	if fired {
		t.Error("cancelled timer fired")
	}
	var zero Timer
	if zero.Cancel() {
		t.Error("zero timer Cancel returned true")
	}
	if zero.Pending() {
		t.Error("zero timer reports Pending")
	}
}

// TestTimerHandleRecycling checks that a handle to a fired event does
// not cancel an unrelated event that recycled its slot.
func TestTimerHandleRecycling(t *testing.T) {
	s := NewSim(1)
	stale := s.At(1, func() {})
	s.Run() // fires; the slot returns to the free list
	fired := false
	fresh := s.At(2, func() { fired = true })
	if stale.Cancel() {
		t.Error("stale handle cancelled a recycled slot")
	}
	if !fresh.Pending() {
		t.Error("fresh timer not pending")
	}
	s.Run()
	if !fired {
		t.Error("recycled-slot event did not fire")
	}
}

// TestSchedulingZeroAlloc asserts the steady-state schedule/fire
// cycle allocates nothing once the heap, handle table and lane rings
// are warm (the closure here captures nothing, so only the event
// machinery is measured): At events, and lane pushes, fires and
// cancels, including a cancelled head skipped without running.
func TestSchedulingZeroAlloc(t *testing.T) {
	s := NewSim(1)
	fn := func() {}
	fired := 0
	l := NewLane(s, func(int) { fired++ })
	for i := 0; i < 64; i++ { // warm the heap, slot table, free list and ring
		s.After(Time(i), fn)
		l.Push(s.Now()+Time(i), i)
	}
	s.Run()
	allocs := testing.AllocsPerRun(200, func() {
		tm := s.After(10, fn)
		s.After(5, fn)
		tm.Cancel()
		now := s.Now()
		head := l.Push(now+3, 1)
		l.Push(now+3, 2)
		mid := l.Push(now+7, 3)
		l.Push(now+9, 4)
		head.Cancel()
		mid.Cancel()
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("event scheduling allocates %.2f/op, want 0", allocs)
	}
	if want := 64 + 2*201; fired != want {
		t.Errorf("lane fired %d events, want %d", fired, want)
	}
}

// TestCancelMiddleOfHeap cancels events at heap interior positions
// and checks ordering of the survivors.
func TestCancelMiddleOfHeap(t *testing.T) {
	s := NewSim(1)
	var fired []Time
	timers := make([]Timer, 0, 10)
	for _, at := range []Time{50, 10, 40, 20, 30, 70, 60, 90, 80, 100} {
		at := at
		timers = append(timers, s.At(at, func() { fired = append(fired, at) }))
	}
	// Cancel 40, 70 and 100.
	for _, i := range []int{2, 5, 9} {
		if !timers[i].Cancel() {
			t.Fatalf("Cancel(%d) returned false", i)
		}
	}
	s.Run()
	want := []Time{10, 20, 30, 50, 60, 80, 90}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := NewSim(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if s.Now() != 25 {
		t.Errorf("Now = %v, want 25", s.Now())
	}
	s.Run()
	if len(fired) != 4 {
		t.Errorf("after Run, fired %v", fired)
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	s := NewSim(1)
	s.RunFor(2 * Millisecond)
	if s.Now() != 2*Millisecond {
		t.Errorf("Now = %v, want 2ms", s.Now())
	}
}

func TestDeterminism(t *testing.T) {
	type run struct {
		deliveries []Time
		processed  uint64
		now        Time
		stats      LinkStats
	}
	do := func(seed int64) run {
		s := NewSim(seed)
		sink := NodeFunc(func(Message) {})
		l := NewLink(s, LinkConfig{Name: "l", BitsPerSec: 1e9, Propagation: Microsecond, LossRate: 0.3}, sink)
		var r run
		l2 := NewLink(s, LinkConfig{Name: "l2", BitsPerSec: 1e9, Propagation: Microsecond, LossRate: 0.3, DupRate: 0.2},
			NodeFunc(func(Message) { r.deliveries = append(r.deliveries, s.Now()) }))
		// Timers on a lane, half of them cancelled, interleave with the
		// link lanes and the At events.
		timers := NewLane(s, func(i int) { r.deliveries = append(r.deliveries, -s.Now()) })
		for i := 0; i < 100; i++ {
			s.After(Time(i)*Microsecond, func() {
				l.Send(fixedSize(100))
				l2.Send(fixedSize(100))
				tm := timers.Push(s.Now()+3*Microsecond/2, i)
				if s.Rand().Intn(2) == 0 {
					tm.Cancel()
				}
			})
		}
		s.Run()
		r.processed, r.now, r.stats = s.Processed(), s.Now(), l2.Stats()
		return r
	}
	a, b := do(42), do(42)
	if len(a.deliveries) != len(b.deliveries) || a.processed != b.processed || a.now != b.now || a.stats != b.stats {
		t.Fatalf("non-deterministic run: %d/%d events, %d/%d processed, now %v/%v, stats %+v/%+v",
			len(a.deliveries), len(b.deliveries), a.processed, b.processed, a.now, b.now, a.stats, b.stats)
	}
	for i := range a.deliveries {
		if a.deliveries[i] != b.deliveries[i] {
			t.Fatalf("event %d at %v vs %v", i, a.deliveries[i], b.deliveries[i])
		}
	}
	if a.stats.Duplicated == 0 {
		t.Error("no duplicates injected; the duplication path is untested")
	}
	c := do(43)
	if len(c.deliveries) == len(a.deliveries) {
		same := true
		for i := range a.deliveries {
			if a.deliveries[i] != c.deliveries[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical loss patterns")
		}
	}
}

// fixedSize is a test message of a given wire size.
type fixedSize int

func (f fixedSize) WireSize() int { return int(f) }

func TestTimeString(t *testing.T) {
	if got := (1500 * Microsecond).String(); got != "1.5ms" {
		t.Errorf("String = %q, want 1.5ms", got)
	}
	if got := (2 * Second).Duration().Seconds(); got != 2 {
		t.Errorf("Duration().Seconds() = %v, want 2", got)
	}
}

func TestHeapPropertyQuick(t *testing.T) {
	// Events scheduled in arbitrary order always fire in time order,
	// whether they are At events or pushed on lanes (each lane fed in
	// non-decreasing time).
	f := func(times []uint16, onLane []bool) bool {
		s := NewSim(1)
		var fired []Time
		record := func(at Time) { fired = append(fired, at) }
		lanes := [3]*Lane[Time]{NewLane(s, record), NewLane(s, record), NewLane(s, record)}
		for i, at := range times {
			at := Time(at)
			if i < len(onLane) && onLane[i] {
				l := lanes[i%len(lanes)]
				if at < l.Last() {
					at = l.Last()
				}
				l.Push(at, at)
				continue
			}
			s.At(at, func() { record(at) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refEvent is one event of the reference scheduler.
type refEvent struct {
	at   Time
	seq  uint64
	id   int
	dead bool
}

// refSched is the naive reference the scheduler must agree with: one
// slice of events kept sorted by (at, seq), where every At and every
// lane push takes the next sequence number.
type refSched struct {
	now       Time
	seq       uint64
	evs       []refEvent // pending, sorted by (at, seq)
	processed uint64
}

func (r *refSched) schedule(at Time, id int) {
	e := refEvent{at: at, seq: r.seq, id: id}
	r.seq++
	i := sort.Search(len(r.evs), func(i int) bool {
		return r.evs[i].at > at || r.evs[i].at == at && r.evs[i].seq > e.seq
	})
	r.evs = append(r.evs, refEvent{})
	copy(r.evs[i+1:], r.evs[i:])
	r.evs[i] = e
}

func (r *refSched) find(id int) int {
	for i := range r.evs {
		if r.evs[i].id == id {
			return i
		}
	}
	return -1
}

func (r *refSched) cancel(id int) bool {
	if i := r.find(id); i >= 0 {
		r.evs = append(r.evs[:i], r.evs[i+1:]...)
		return true
	}
	return false
}

// step runs the earliest event due by deadline.
func (r *refSched) step(deadline Time, run func(id int)) bool {
	if len(r.evs) == 0 || r.evs[0].at > deadline {
		return false
	}
	e := r.evs[0]
	r.evs = r.evs[1:]
	r.now = e.at
	r.processed++
	run(e.id)
	return true
}

// schedAPI applies one random workload to a scheduler under test:
// the real Sim, or the reference.
type schedAPI interface {
	now() Time
	at(at Time, id int)
	push(lane int, at Time, id int)
	laneLast(lane int) Time
	cancel(id int) bool
	pending(id int) bool
	runUntil(deadline Time)
	run()
	processed() uint64
}

type simAPI struct {
	s      *Sim
	lanes  []*Lane[int]
	timers map[int]Timer
	fire   func(id int)
}

func newSimAPI() *simAPI {
	d := &simAPI{s: NewSim(1), timers: make(map[int]Timer)}
	for i := 0; i < 3; i++ {
		d.lanes = append(d.lanes, NewLane(d.s, func(id int) { d.fire(id) }))
	}
	return d
}

func (d *simAPI) now() Time                   { return d.s.Now() }
func (d *simAPI) at(at Time, id int)          { d.timers[id] = d.s.At(at, func() { d.fire(id) }) }
func (d *simAPI) push(l int, at Time, id int) { d.timers[id] = d.lanes[l].Push(at, id) }
func (d *simAPI) laneLast(l int) Time         { return d.lanes[l].Last() }
func (d *simAPI) cancel(id int) bool          { return d.timers[id].Cancel() }
func (d *simAPI) pending(id int) bool         { return d.timers[id].Pending() }
func (d *simAPI) runUntil(deadline Time)      { d.s.RunUntil(deadline) }
func (d *simAPI) run()                        { d.s.Run() }
func (d *simAPI) processed() uint64           { return d.s.Processed() }

type refAPI struct {
	r     refSched
	lasts []Time
	fire  func(id int)
}

func (d *refAPI) now() Time          { return d.r.now }
func (d *refAPI) at(at Time, id int) { d.r.schedule(at, id) }
func (d *refAPI) push(l int, at Time, id int) {
	d.r.schedule(at, id)
	d.lasts[l] = at
}
func (d *refAPI) laneLast(l int) Time { return d.lasts[l] }
func (d *refAPI) cancel(id int) bool  { return d.r.cancel(id) }
func (d *refAPI) pending(id int) bool { return d.r.find(id) >= 0 }
func (d *refAPI) processed() uint64   { return d.r.processed }
func (d *refAPI) run()                { d.runUntil(Time(math.MaxInt64)) }
func (d *refAPI) runUntil(deadline Time) {
	for d.r.step(deadline, d.fire) {
	}
	if deadline != Time(math.MaxInt64) && d.r.now < deadline {
		d.r.now = deadline
	}
}

// schedTrace drives one seeded random workload — At/After, lane
// pushes, cancels of both, RunUntil and Run, with callbacks that
// schedule and cancel in turn — and returns everything observable:
// each callback's id and Now, every Cancel and Pending answer, the
// clock after every RunUntil, and the final Processed and Now.
func schedTrace(seed int64, d schedAPI, setFire func(func(int))) []int64 {
	var out []int64
	rng := rand.New(rand.NewSource(seed))
	nextID := 0
	var ids []int
	// op performs one random scheduling action; intn supplies its
	// randomness.
	op := func(intn func(int) int) {
		switch k := intn(10); {
		case k < 3:
			d.at(d.now()+Time(intn(50)), nextID)
		case k < 7:
			l := intn(3)
			at := d.laneLast(l)
			if now := d.now(); at < now {
				at = now
			}
			d.push(l, at+Time(intn(20)), nextID)
		default:
			if len(ids) > 0 {
				id := ids[intn(len(ids))]
				out = append(out, -1, int64(id), b2i(d.pending(id)), b2i(d.cancel(id)), b2i(d.pending(id)))
			}
			return
		}
		ids = append(ids, nextID)
		nextID++
	}
	setFire(func(id int) {
		out = append(out, int64(id), int64(d.now()))
		// Callbacks act too, with randomness that depends only on the
		// event, so both schedulers see the same decisions when they
		// agree on the order.
		x := uint64(seed)<<32 ^ uint64(id)
		intn := func(n int) int {
			// splitmix64 step: cheap, and a pure function of the event.
			x += 0x9e3779b97f4a7c15
			z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return int((z ^ z>>31) % uint64(n))
		}
		for n := intn(3); n > 0; n-- {
			op(intn)
		}
	})
	for round := 0; round < 40; round++ {
		for n := rng.Intn(8); n > 0; n-- {
			op(rng.Intn)
		}
		if rng.Intn(4) == 0 {
			d.run()
		} else {
			d.runUntil(d.now() + Time(rng.Intn(40)))
		}
		out = append(out, -2, int64(d.now()), int64(d.processed()))
	}
	d.run()
	return append(out, -3, int64(d.now()), int64(d.processed()))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestSchedulerMatchesReference checks the heap-of-sources scheduler
// against the naive sorted-slice reference on seeded random
// workloads: the same callback order, the same Now at each callback,
// the same Cancel and Pending answers, the same clock after every
// RunUntil (a cancelled lane head must never run past a deadline or
// move the clock) and the same Processed count.
func TestSchedulerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		sd := newSimAPI()
		got := schedTrace(seed, sd, func(f func(int)) { sd.fire = f })
		rd := &refAPI{lasts: make([]Time, 3)}
		want := schedTrace(seed, rd, func(f func(int)) { rd.fire = f })
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace length %d, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: traces diverge at %d: got %v, reference %v", seed, i, got[max(0, i-6):i+1], want[max(0, i-6):i+1])
			}
		}
	}
}

// TestLaneCancelledHeadIsInvisible pins lazy cancellation at a
// deadline: a cancelled head due before the deadline neither runs nor
// lets a later event through, and a cancelled tail does not move the
// clock when the simulation drains.
func TestLaneCancelledHeadIsInvisible(t *testing.T) {
	s := NewSim(1)
	var fired []int
	l := NewLane(s, func(v int) { fired = append(fired, v) })
	head := l.Push(5, 1)
	l.Push(30, 2)
	tail := l.Push(40, 3)
	if !head.Cancel() || head.Cancel() || head.Pending() {
		t.Fatal("cancelling the head: want true once, then not pending")
	}
	s.RunUntil(20)
	if len(fired) != 0 || s.Now() != 20 || s.Processed() != 0 {
		t.Fatalf("after RunUntil(20): fired %v, now %v, processed %d", fired, s.Now(), s.Processed())
	}
	tail.Cancel()
	s.Run()
	if len(fired) != 1 || fired[0] != 2 || s.Now() != 30 || s.Processed() != 1 {
		t.Fatalf("after Run: fired %v, now %v, processed %d; want [2] at 30", fired, s.Now(), s.Processed())
	}
	if s.Step() {
		t.Error("Step ran an event on a drained simulation")
	}
}

// TestLanePushOutOfOrderPanics pins the lane's ordering contract.
func TestLanePushOutOfOrderPanics(t *testing.T) {
	s := NewSim(1)
	l := NewLane(s, func(int) {})
	l.Push(10, 0)
	defer func() {
		if recover() == nil {
			t.Error("pushing before the lane's last time did not panic")
		}
	}()
	l.Push(9, 0)
}

// TestLaneTimerHandlesSurviveGrowth checks that handles to queued
// events stay valid across ring growth.
func TestLaneTimerHandlesSurviveGrowth(t *testing.T) {
	s := NewSim(1)
	var fired []int
	l := NewLane(s, func(v int) { fired = append(fired, v) })
	var tms []Timer
	for i := 0; i < 100; i++ {
		tms = append(tms, l.Push(Time(i), i))
	}
	for i := 0; i < 100; i += 3 {
		if !tms[i].Cancel() {
			t.Fatalf("Cancel(%d) returned false", i)
		}
	}
	s.Run()
	want := 0
	for i := 0; i < 100; i++ {
		if i%3 != 0 {
			if fired[want] != i {
				t.Fatalf("fired %v", fired)
			}
			want++
		}
	}
	if len(fired) != want || tms[1].Pending() || tms[1].Cancel() {
		t.Fatalf("fired %d events, want %d; fired handles must be spent", len(fired), want)
	}
}

func TestProcessedCounter(t *testing.T) {
	s := NewSim(1)
	s.At(1, func() {})
	s.At(2, func() {})
	s.Run()
	if got := s.Processed(); got != 2 {
		t.Errorf("Processed = %d, want 2", got)
	}
}

func TestRunUntilSkipsCancelled(t *testing.T) {
	s := NewSim(1)
	tm := s.At(5, func() { t.Error("cancelled event ran") })
	s.At(10, func() {})
	tm.Cancel()
	s.RunUntil(20)
	if s.Now() != 20 {
		t.Errorf("Now = %v", s.Now())
	}
}
