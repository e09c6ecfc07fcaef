package transport

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync/atomic"

	"switchml/internal/core"
	"switchml/internal/telemetry"
)

// This file is the aggregator's job table, the multi-tenant scenario
// of §6 ("Multi-job"): every admitted job owns a disjoint pool, an
// admission check bounds total register memory, and datagrams are
// routed to their job's pool by the JobID field. Sockets, shards,
// counters, the injector and the kill switch stay aggregator-wide.
//
// The job id is also the generation: recovery, the elastic and probe
// fences and adoption all move it. A table of exactly one job
// therefore routes every datagram to that job whatever its JobID, and
// only a table of two or more routes by JobID — dispatching updates
// alone, since the control planes need the id space of one job.

// errJobsNeedStaticIDs refuses table changes on an aggregator whose
// failure detector fences generations.
var errJobsNeedStaticIDs = errors.New("transport: jobs cannot be admitted or released with Liveness set: generation fences need the id space of one job")

// aggJob is one admitted job: its aggregation pool and the worker
// addresses learned from its traffic.
type aggJob struct {
	id uint16
	sw *core.ShardedSwitch
	// now is the job's clock, SwitchConfig.Now (telemetry.WallClock
	// unless configured): the shard loops read it once per burst and
	// stamp the burst's packets with the reading.
	now func() int64
	// peers is the learned worker address table, indexed by worker
	// id. Entries are written at most once per address change.
	peers []atomic.Pointer[netip.AddrPort]
}

// setPeer records the worker's address, writing only on change so
// the steady-state path stays read-only and allocation-free.
func (j *aggJob) setPeer(w uint16, src netip.AddrPort) {
	if cur := j.peers[w].Load(); cur != nil && *cur == src {
		return
	}
	ap := src
	j.peers[w].Store(&ap)
}

// route picks a datagram's job from a table snapshot (see the file
// comment), or nil when no admitted job matches.
func route(tab []*aggJob, id uint16) *aggJob {
	if len(tab) == 1 {
		return tab[0]
	}
	return findJob(tab, id)
}

// findJob binary-searches the ascending table for an admitted id.
func findJob(tab []*aggJob, id uint16) *aggJob {
	if i := sort.Search(len(tab), func(i int) bool { return tab[i].id >= id }); i < len(tab) && tab[i].id == id {
		return tab[i]
	}
	return nil
}

// table returns the current job table snapshot, ascending by id.
func (a *Aggregator) table() []*aggJob { return *a.jobs.Load() }

// solo returns the job of a one-job table, or nil.
func (a *Aggregator) solo() *aggJob {
	if tab := a.table(); len(tab) == 1 {
		return tab[0]
	}
	return nil
}

// admitLocked builds a job's pool and installs it in a copy of the
// table. Callers hold mu (or own the aggregator exclusively).
func (a *Aggregator) admitLocked(cfg core.SwitchConfig) (*aggJob, error) {
	tab := a.table()
	if findJob(tab, cfg.JobID) != nil {
		return nil, fmt.Errorf("transport: job %d already admitted", cfg.JobID)
	}
	if len(tab) == 1 && tab[0].id != a.epochNow() {
		return nil, fmt.Errorf("transport: job %d has moved to generation %d; a second job would share its id space", tab[0].id, a.epochNow())
	}
	cfg.Metrics = a.reg
	cfg.Tracer = a.cfg.Tracer
	if cfg.Now == nil {
		cfg.Now = telemetry.WallClock
	}
	sw, err := core.NewShardedSwitch(cfg)
	if err != nil {
		return nil, err
	}
	if aggWireMTU(cfg.SlotElems) > aggWireMTU(a.cfg.Switch.SlotElems) {
		return nil, fmt.Errorf("transport: job %d's %d-element packets exceed the shard arenas sized for %d elements",
			cfg.JobID, cfg.SlotElems, a.cfg.Switch.SlotElems)
	}
	if budget, used := a.cfg.MemoryBudget, memoryBytes(tab); budget > 0 && used+sw.MemoryBytes() > budget {
		return nil, fmt.Errorf("transport: job %d needs %d bytes, only %d of %d available",
			cfg.JobID, sw.MemoryBytes(), budget-used, budget)
	}
	j := &aggJob{id: cfg.JobID, sw: sw, now: cfg.Now, peers: make([]atomic.Pointer[netip.AddrPort], cfg.Workers)}
	next := append(append(make([]*aggJob, 0, len(tab)+1), tab...), j)
	sort.Slice(next, func(x, y int) bool { return next[x].id < next[y].id })
	a.storeTableLocked(next)
	return j, nil
}

// storeTableLocked publishes a new table. A table back down to one job
// restarts the generation at its id: a multi-job table moves no
// generation, so that is where the remaining job's pool stands.
func (a *Aggregator) storeTableLocked(tab []*aggJob) {
	if len(tab) == 1 {
		a.epoch.Store(uint32(tab[0].id))
	}
	a.jobs.Store(&tab)
}

// AdmitJob allocates a pool for one more job, failing when the id is
// taken, the memory budget would be exceeded (the admission check of
// §6), the configuration is invalid, or a failure detector is attached.
func (a *Aggregator) AdmitJob(cfg core.SwitchConfig) error {
	if a.lv != nil {
		return errJobsNeedStaticIDs
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	_, err := a.admitLocked(cfg)
	return err
}

// ReleaseJob frees a job's pool. Its in-flight datagrams are counted
// as unroutable from the next burst on.
func (a *Aggregator) ReleaseJob(job uint16) error {
	if a.lv != nil {
		return errJobsNeedStaticIDs
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	tab := a.table()
	next := make([]*aggJob, 0, len(tab))
	for _, j := range tab {
		if j.id != job {
			next = append(next, j)
		}
	}
	if len(next) == len(tab) {
		return fmt.Errorf("transport: job %d not admitted", job)
	}
	a.storeTableLocked(next)
	return nil
}

// Jobs returns the admitted job ids in ascending order.
func (a *Aggregator) Jobs() []uint16 { return jobIDs(a.table()) }

func jobIDs(tab []*aggJob) []uint16 {
	ids := make([]uint16, len(tab))
	for i, j := range tab {
		ids[i] = j.id
	}
	return ids
}

// JobStats returns one admitted job's switch counters.
func (a *Aggregator) JobStats(job uint16) (core.SwitchStats, bool) {
	j := findJob(a.table(), job)
	if j == nil {
		return core.SwitchStats{}, false
	}
	return j.sw.Stats(), true
}

// MemoryBytes returns the admitted jobs' total register memory.
func (a *Aggregator) MemoryBytes() int { return memoryBytes(a.table()) }

func memoryBytes(tab []*aggJob) int {
	total := 0
	for _, j := range tab {
		total += j.sw.MemoryBytes()
	}
	return total
}
