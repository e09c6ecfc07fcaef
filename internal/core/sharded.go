package core

import (
	"sync"

	"switchml/internal/packet"
)

// ShardedSwitch wraps a Switch for concurrent packet handling,
// mirroring the paper's multi-core aggregation host: Flow Director
// steers each slot's traffic to one core, so slots are independent
// and only membership changes need global coordination (Appendix B,
// "every CPU core ... uses a disjoint set of aggregation slots").
//
// Concurrency model:
//
//   - Each slot index owns a mutex covering both pool versions at
//     that index (Algorithm 3 reads the shadow copy of the same
//     index, never a different slot). Packets for different slots
//     aggregate fully in parallel.
//   - Membership and generation changes (Reconfigure, Reset) take a
//     write lock that excludes all packet handling; per-packet work
//     takes the read side, which is uncontended in steady state.
//   - The switch's counters are atomic, and codec scratch buffers
//     are pooled per call, so handlers share no mutable state beyond
//     the slot they lock.
type ShardedSwitch struct {
	sw *Switch
	// mu is the membership lock: Handle paths hold it for reading,
	// Reconfigure/Reset for writing.
	mu sync.RWMutex
	// locks[i] guards pools[0][i] and pools[1][i]. Each lock is padded
	// to its own cache line so adjacent slots do not false-share.
	locks []slotLock
	// scratch pools codec-expansion buffers; only used when the codec
	// is non-nil.
	scratch sync.Pool
}

// slotLock pads a mutex to a 64-byte cache line.
type slotLock struct {
	mu sync.Mutex
	_  [56]byte
}

// NewShardedSwitch allocates the pools for one job behind a
// concurrency-safe facade.
func NewShardedSwitch(cfg SwitchConfig) (*ShardedSwitch, error) {
	sw, err := NewSwitch(cfg)
	if err != nil {
		return nil, err
	}
	ss := &ShardedSwitch{
		sw:    sw,
		locks: make([]slotLock, cfg.PoolSize),
	}
	elems := sw.ratio() * cfg.SlotElems
	ss.scratch.New = func() any {
		b := make([]int32, elems)
		return &b
	}
	return ss, nil
}

// Switch returns the wrapped state machine. Callers must not invoke
// its Handle methods directly while shard goroutines are running.
func (ss *ShardedSwitch) Switch() *Switch { return ss.sw }

// Handle processes one update packet, locking only the packet's slot.
// It allocates the response packet; use HandleInto on the hot path.
func (ss *ShardedSwitch) Handle(p *packet.Packet) Response {
	return ss.HandleInto(p, nil)
}

// HandleInto processes one update packet with caller-borrowed
// response storage (see Switch.HandleInto). Safe for concurrent use:
// packets for distinct slot indices proceed in parallel.
//
//switchml:hotpath
func (ss *ShardedSwitch) HandleInto(p *packet.Packet, out *packet.Packet) Response {
	return ss.handle(p, out, unstamped)
}

// HandleIntoAt is HandleInto with the caller's clock stamp: now, in
// SwitchConfig.Now's units and non-negative, stands in for every clock
// read the packet would make (phase open, completion, trace events).
// A batched host reads the clock once per receive burst and stamps the
// whole burst with it, so the slot-fill histogram has burst
// resolution.
//
//switchml:hotpath
func (ss *ShardedSwitch) HandleIntoAt(p *packet.Packet, out *packet.Packet, now int64) Response {
	return ss.handle(p, out, now)
}

// handle is the locked dispatch behind HandleInto and HandleIntoAt.
func (ss *ShardedSwitch) handle(p *packet.Packet, out *packet.Packet, stamp int64) Response {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	// Admission rejects out-of-range indices inside handleWith; the
	// modulus only keeps the lock lookup in bounds until it does.
	lk := &ss.locks[int(p.Idx)%len(ss.locks)]
	var scratch []int32
	var sp *[]int32
	if ss.sw.cfg.Codec != nil {
		sp = ss.scratch.Get().(*[]int32)
		scratch = *sp
	}
	lk.mu.Lock()
	resp := ss.sw.handleWith(p, scratch, out, stamp)
	lk.mu.Unlock()
	if sp != nil {
		ss.scratch.Put(sp)
	}
	return resp
}

// Stats returns a snapshot of the switch counters (atomic; no lock).
func (ss *ShardedSwitch) Stats() SwitchStats { return ss.sw.Stats() }

// Config returns the switch configuration.
func (ss *ShardedSwitch) Config() SwitchConfig { return ss.sw.Config() }

// MemoryBytes returns the pools' register memory (see
// Switch.MemoryBytes).
func (ss *ShardedSwitch) MemoryBytes() int { return ss.sw.MemoryBytes() }

// Required returns the current required contribution count.
func (ss *ShardedSwitch) Required() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.sw.Required()
}

// Active reports whether worker wid is part of the current
// membership.
func (ss *ShardedSwitch) Active(wid int) bool {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.sw.Active(wid)
}

// ActiveWorkers lists the current membership in id order.
func (ss *ShardedSwitch) ActiveWorkers() []int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.sw.ActiveWorkers()
}

// JobID returns the current job generation.
func (ss *ShardedSwitch) JobID() uint16 {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.sw.JobID()
}

// Reconfigure installs a new membership and generation, excluding
// all packet handling for the duration (see Switch.Reconfigure).
func (ss *ShardedSwitch) Reconfigure(active []bool, jobID uint16) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.sw.Reconfigure(active, jobID)
}

// Reset clears all pool state, excluding all packet handling.
func (ss *ShardedSwitch) Reset() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.sw.Reset()
}

// DebugSlot reports a slot's internal state under its lock.
func (ss *ShardedSwitch) DebugSlot(ver uint8, idx uint32) (count int, off int64, elems int, seen uint64) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	lk := &ss.locks[int(idx)%len(ss.locks)]
	lk.mu.Lock()
	defer lk.mu.Unlock()
	return ss.sw.DebugSlot(ver, idx)
}
