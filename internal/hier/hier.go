// Package hier implements the multi-rack hierarchical composition of
// §6 ("Scaling beyond a rack"): workers attach to layer-1 (rack)
// switches, each rack switch aggregates its d downstream ports and
// forwards partial aggregates to the root switch, and the root
// completes the aggregation and multicasts results back down the
// tree.
//
// Loss recovery composes as the paper describes: a worker's
// retransmission is recognized as such at its rack switch (seen bit
// set), which re-forwards the partial aggregate upward, so a loss
// anywhere on the tree is always repaired by end-host timers alone.
package hier

import (
	"fmt"

	"switchml/internal/core"
	"switchml/internal/netsim"
	"switchml/internal/packet"
	"switchml/internal/rack"
)

// Config describes an aggregation tree. The common two-level rack
// deployment sets Racks and WorkersPerRack; deeper hierarchies (§6's
// layer-i composition with H > 2) set Levels instead.
type Config struct {
	// Racks is the number of layer-1 switches.
	Racks int
	// WorkersPerRack is d, the downstream ports per rack switch.
	WorkersPerRack int
	// Levels, when non-empty, describes the fanout at each tree
	// level, leaves first: {4, 2, 2} is 4 workers per leaf switch, 2
	// leaf switches per mid switch, 2 mid switches under the root —
	// 16 workers through 3 switch layers. Overrides Racks and
	// WorkersPerRack.
	Levels []int
	// PoolSize is s, identical at every layer so slot indices map 1:1
	// across the tree; zero uses the rack default tuning with the
	// tree's deeper RTT.
	PoolSize int
	// SlotElems is k; zero selects 32.
	SlotElems int
	// LinkBitsPerSec applies to every link (worker access and rack
	// uplinks); zero selects 10 Gbps.
	LinkBitsPerSec float64
	// Propagation per hop; zero selects 1 µs.
	Propagation netsim.Time
	// LossRate applies independently to every link.
	LossRate float64
	// RTO is the worker retransmission timeout; zero selects 1 ms.
	RTO netsim.Time
	// Seed drives the loss process.
	Seed int64
}

// Tree is a simulated multi-rack SwitchML deployment.
type Tree struct {
	cfg     Config
	sim     *netsim.Sim
	root    *rootNode
	racks   []*rackSwitch
	workers []*rack.WorkerHost
}

// Workers returns the total worker count.
func (t *Tree) Workers() int { return len(t.workers) }

// Sim exposes the simulation clock.
func (t *Tree) Sim() *netsim.Sim { return t.sim }

// NewTree builds the topology.
func NewTree(cfg Config) (*Tree, error) {
	if len(cfg.Levels) == 0 && (cfg.Racks <= 0 || cfg.WorkersPerRack <= 0) {
		return nil, fmt.Errorf("hier: racks and workers per rack must be positive (%d, %d)",
			cfg.Racks, cfg.WorkersPerRack)
	}
	if cfg.SlotElems == 0 {
		cfg.SlotElems = packet.DefaultElems
	}
	if cfg.LinkBitsPerSec == 0 {
		cfg.LinkBitsPerSec = 10e9
	}
	if cfg.Propagation == 0 {
		cfg.Propagation = netsim.Microsecond
	}
	if cfg.RTO == 0 {
		cfg.RTO = netsim.Millisecond
	}
	if cfg.PoolSize == 0 {
		// The tree RTT spans two extra hops; double the single-rack
		// BDP-derived pool.
		pkt := packet.HeaderBytes + packet.ElemBytes*cfg.SlotElems
		cfg.PoolSize = 2 * rack.TunePoolSize(cfg.LinkBitsPerSec, pkt, 8*cfg.Propagation)
	}

	levels := cfg.Levels
	if len(levels) == 0 {
		levels = []int{cfg.WorkersPerRack, cfg.Racks}
	}
	for i, f := range levels {
		if f <= 0 {
			return nil, fmt.Errorf("hier: level %d fanout must be positive, got %d", i, f)
		}
	}

	sim := netsim.NewSim(cfg.Seed)
	t := &Tree{cfg: cfg, sim: sim}

	link := func(name string, dst netsim.Node) *netsim.Link {
		return netsim.NewLink(sim, netsim.LinkConfig{
			Name: name, BitsPerSec: cfg.LinkBitsPerSec,
			Propagation: cfg.Propagation, LossRate: cfg.LossRate,
		}, dst)
	}

	// The root aggregates the top level's children.
	rootSw, err := core.NewSwitch(core.SwitchConfig{
		Workers:      levels[len(levels)-1],
		PoolSize:     cfg.PoolSize,
		SlotElems:    cfg.SlotElems,
		LossRecovery: true,
	})
	if err != nil {
		return nil, err
	}
	t.root = &rootNode{sim: sim, sw: rootSw, latency: 400 * netsim.Nanosecond}

	// Build switch layers top-down: parents[i] receives from its
	// children; each child owns an uplink to it and the parent owns a
	// downlink per child. The leaf layer then attaches workers.
	type parent interface {
		netsim.Node
		addChild(down *netsim.Link)
	}
	parents := []parent{t.root}
	for li := len(levels) - 1; li >= 1; li-- {
		fanout := levels[li]
		var next []parent
		for pi, par := range parents {
			for c := 0; c < fanout; c++ {
				sw, err := core.NewSwitch(core.SwitchConfig{
					Workers:      levels[li-1],
					PoolSize:     cfg.PoolSize,
					SlotElems:    cfg.SlotElems,
					LossRecovery: true,
				})
				if err != nil {
					return nil, err
				}
				rs := &rackSwitch{
					sim: sim, sw: sw, childIndex: uint16(c),
					latency: 400 * netsim.Nanosecond,
				}
				name := fmt.Sprintf("l%d.%d.%d", li, pi, c)
				rs.uplink = link(name+"->up", par)
				par.addChild(link("down->"+name, rs))
				t.racks = append(t.racks, rs)
				next = append(next, rs)
			}
		}
		parents = next
	}

	workerCfg := rack.Config{
		Workers:        levels[0],
		PoolSize:       cfg.PoolSize,
		SlotElems:      cfg.SlotElems,
		LinkBitsPerSec: cfg.LinkBitsPerSec,
		Propagation:    cfg.Propagation,
		RTO:            cfg.RTO,
		LossRecovery:   true,
		Seed:           cfg.Seed,
	}
	for pi, par := range parents {
		for w := 0; w < levels[0]; w++ {
			h, err := rack.NewWorkerHost(sim, workerCfg, uint16(w))
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("w%d.%d", pi, w)
			h.SetUplink(link(name+"->sw", par))
			par.addChild(link("sw->"+name, h))
			t.workers = append(t.workers, h)
		}
	}
	return t, nil
}

// Result summarizes one tree aggregation.
type Result struct {
	TAT             netsim.Time
	Retransmissions uint64
}

// AllReduceShared aggregates one tensor with identical contents on
// every worker across the whole tree.
func (t *Tree) AllReduceShared(u []int32) (Result, error) {
	us := make([][]int32, len(t.workers))
	for i := range us {
		us[i] = u
	}
	return t.AllReduce(us)
}

// AllReduce aggregates one tensor; updates[i] is worker i's
// contribution (workers are numbered rack-major).
func (t *Tree) AllReduce(updates [][]int32) (Result, error) {
	if len(updates) != len(t.workers) {
		return Result{}, fmt.Errorf("hier: got %d updates for %d workers", len(updates), len(t.workers))
	}
	start := t.sim.Now()
	remaining := len(t.workers)
	var last netsim.Time
	for i, h := range t.workers {
		h.Start(updates[i], func(tm netsim.Time) {
			remaining--
			if tm > last {
				last = tm
			}
		})
	}
	t.sim.Run()
	if remaining != 0 {
		return Result{}, fmt.Errorf("hier: %d workers unfinished", remaining)
	}
	res := Result{TAT: last - start}
	for _, h := range t.workers {
		res.Retransmissions += h.Worker().Stats().Retransmissions
	}
	return res, nil
}

// Aggregate returns worker i's output buffer.
func (t *Tree) Aggregate(i int) []int32 { return t.workers[i].Worker().Aggregate() }

// rackSwitch is a layer-1 switch: it aggregates its workers and acts
// as worker childIndex toward the root.
type rackSwitch struct {
	sim        *netsim.Sim
	sw         *core.Switch
	childIndex uint16
	latency    netsim.Time
	uplink     *netsim.Link
	downlinks  []*netsim.Link
}

func (rs *rackSwitch) addChild(down *netsim.Link) { rs.downlinks = append(rs.downlinks, down) }

// Deliver handles both updates from workers (from below) and results
// from the root (from above).
func (rs *rackSwitch) Deliver(msg netsim.Message) {
	p := msg.(*packet.Packet)
	switch p.Kind {
	case packet.KindUpdate:
		resp := rs.sw.Handle(p)
		if resp.Pkt == nil {
			return
		}
		if resp.Multicast {
			// Slot completed here: forward the partial aggregate
			// upward instead of multicasting down (§6).
			up := resp.Pkt
			up.Kind = packet.KindUpdate
			up.WorkerID = rs.childIndex
			rs.sim.After(rs.latency, func() { rs.uplink.Send(up) })
			return
		}
		// A retransmission for a slot we already completed: the final
		// result is not here yet (or was lost downstream), so re-push
		// our partial aggregate upward; the root will either absorb
		// it (still aggregating) or reply with the final result.
		up := resp.Pkt
		up.Kind = packet.KindUpdate
		up.WorkerID = rs.childIndex
		rs.sim.After(rs.latency, func() { rs.uplink.Send(up) })
	case packet.KindResult, packet.KindResultUnicast:
		// Final result from the root: multicast to the rack. Unicast
		// repair results also fan out; workers that already hold the
		// value deduplicate. Workers only read results, so every port
		// carries the same packet.
		rs.sim.After(rs.latency, func() {
			for _, dl := range rs.downlinks {
				dl.Send(p)
			}
		})
	}
}

// rootNode completes the aggregation of partial aggregates.
type rootNode struct {
	sim       *netsim.Sim
	sw        *core.Switch
	latency   netsim.Time
	downlinks []*netsim.Link
}

func (rn *rootNode) addChild(down *netsim.Link) { rn.downlinks = append(rn.downlinks, down) }

func (rn *rootNode) Deliver(msg netsim.Message) {
	p := msg.(*packet.Packet)
	resp := rn.sw.Handle(p)
	if resp.Pkt == nil {
		return
	}
	rn.sim.After(rn.latency, func() {
		if resp.Multicast {
			// One shared read-only packet: rack switches forward it
			// unchanged.
			for _, dl := range rn.downlinks {
				dl.Send(resp.Pkt)
			}
			return
		}
		rn.downlinks[resp.Pkt.WorkerID].Send(resp.Pkt)
	})
}
