package core

import "math/bits"

// count returns the number of set bits, the seen-bitmap population.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// observeCompletion feeds the completion-time instrumentation: the
// straggler-attribution counter for the worker whose packet closed
// the slot (the one every other worker waited for) and, when the
// switch has a clock, the phase-open-to-completion latency histogram.
// The fill time is clamped at zero: with per-burst stamps
// (HandleIntoAt) a phase opened by one shard's burst can be closed by
// another shard's burst that was stamped earlier.
func (sw *Switch) observeCompletion(sl *slot, wid int, stamp int64) {
	if wid >= 0 && wid < len(sw.ctr.lastArrival) {
		sw.ctr.lastArrival[wid].Inc()
	}
	if sw.cfg.Now != nil {
		sw.ctr.slotFill.Observe(float64(max(sw.now(stamp)-sl.start, 0)))
	}
}

// LastArrivals snapshots the per-worker last-contributor counters:
// out[w] is how many slot completions worker w closed. The counters
// are atomic, so the snapshot is safe concurrently with handling.
func (sw *Switch) LastArrivals() []uint64 {
	out := make([]uint64, len(sw.ctr.lastArrival))
	for w, c := range sw.ctr.lastArrival {
		out[w] = c.Value()
	}
	return out
}

// SlotState is one slot's introspection view.
type SlotState struct {
	Ver int `json:"ver"`
	Idx int `json:"idx"`
	// Count is the contribution count of the aggregation in progress
	// (0 means idle or complete-and-retained).
	Count int `json:"count"`
	// Off is the stream offset of the current or retained aggregation;
	// -1 when the slot has never been used (or was reset).
	Off   int64 `json:"off"`
	Elems int   `json:"elems"`
	// Seen is the first word of the contribution bitmap; SeenCount the
	// full population count.
	Seen      uint64 `json:"seen"`
	SeenCount int    `json:"seen_count"`
}

// PoolState is the switch's deep introspection document: per-version
// occupancy plus (optionally) every slot's state. It is what the
// flight recorder embeds in incident files and /debug/state serves.
type PoolState struct {
	JobID    uint16 `json:"job_id"`
	Workers  int    `json:"workers"`
	Required int    `json:"required"`
	PoolSize int    `json:"pool_size"`
	Versions int    `json:"versions"`
	// Busy[v] counts version-v slots mid-aggregation (count > 0);
	// Retained[v] counts completed slots holding a shadow-readable
	// result (count == 0, off >= 0).
	Busy     []int `json:"busy"`
	Retained []int `json:"retained"`
	// Occupancy is the busy fraction across all versions.
	Occupancy float64 `json:"occupancy"`
	// LastArrivals[w] is the straggler attribution: completions closed
	// by worker w.
	LastArrivals []uint64 `json:"last_arrivals"`
	// Slots is the full per-slot dump, present when requested.
	Slots []SlotState `json:"slots,omitempty"`
}

// versions returns how many pool copies the switch keeps.
func (sw *Switch) versions() int {
	if sw.cfg.LossRecovery {
		return 2
	}
	return 1
}

// slotState reads one slot's view; the caller must hold whatever lock
// guards the slot.
func (sw *Switch) slotState(v, i int) SlotState {
	sl := &sw.pools[v][i]
	return SlotState{
		Ver: v, Idx: i,
		Count: sl.count, Off: sl.off, Elems: sl.elems,
		Seen: uint64(sl.seen[0]), SeenCount: sl.seen.count(),
	}
}

// PoolState assembles the introspection document. Like Handle it is
// not safe for concurrent use — hosts serialize it with packet
// delivery (ShardedSwitch.PoolState does so per slot).
func (sw *Switch) PoolState(withSlots bool) PoolState {
	ps := sw.poolStateHeader()
	for v := 0; v < ps.Versions; v++ {
		for i := 0; i < sw.cfg.PoolSize; i++ {
			ps.tally(sw.slotState(v, i), withSlots)
		}
	}
	ps.finish()
	return ps
}

// poolStateHeader fills the membership-level fields.
func (sw *Switch) poolStateHeader() PoolState {
	return PoolState{
		JobID:        sw.cfg.JobID,
		Workers:      sw.cfg.Workers,
		Required:     sw.required,
		PoolSize:     sw.cfg.PoolSize,
		Versions:     sw.versions(),
		Busy:         make([]int, sw.versions()),
		Retained:     make([]int, sw.versions()),
		LastArrivals: sw.LastArrivals(),
	}
}

// tally folds one slot into the occupancy accounting.
func (ps *PoolState) tally(st SlotState, withSlots bool) {
	if st.Count > 0 {
		ps.Busy[st.Ver]++
	} else if st.Off >= 0 {
		ps.Retained[st.Ver]++
	}
	if withSlots {
		ps.Slots = append(ps.Slots, st)
	}
}

// finish derives the aggregate occupancy.
func (ps *PoolState) finish() {
	busy := 0
	for _, b := range ps.Busy {
		busy += b
	}
	if total := ps.Versions * ps.PoolSize; total > 0 {
		ps.Occupancy = float64(busy) / float64(total)
	}
}

// PoolState assembles the introspection document safely while shard
// goroutines handle packets: the membership is read-locked and each
// slot index is read under its own lock, so the per-slot views are
// individually consistent (the pool-wide picture is a moving target
// by design).
func (ss *ShardedSwitch) PoolState(withSlots bool) PoolState {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	ps := ss.sw.poolStateHeader()
	for i := 0; i < ss.sw.cfg.PoolSize; i++ {
		lk := &ss.locks[i]
		lk.mu.Lock()
		for v := 0; v < ps.Versions; v++ {
			ps.tally(ss.sw.slotState(v, i), withSlots)
		}
		lk.mu.Unlock()
	}
	ps.finish()
	return ps
}

// LastArrivals snapshots the straggler-attribution counters (atomic;
// no lock).
func (ss *ShardedSwitch) LastArrivals() []uint64 { return ss.sw.LastArrivals() }
