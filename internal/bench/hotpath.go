package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"switchml/internal/core"
	"switchml/internal/packet"
	"switchml/internal/transport"
)

// HotpathResult is one micro-benchmark measurement of the per-packet
// path.
type HotpathResult struct {
	// Name identifies the measured path, e.g. "packet/marshal-pooled".
	Name string `json:"name"`
	// Ops is the number of operations timed.
	Ops int `json:"ops"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation (averaged; the
	// strict zero-allocation guarantee is asserted by tests, this
	// field records it in the baseline).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// PacketsPerSec is the operation throughput.
	PacketsPerSec float64 `json:"packets_per_sec"`
}

// HotpathReport is the machine-readable baseline written to
// BENCH_hotpath.json: every measurement plus the derived speedups the
// refactor is accountable for.
type HotpathReport struct {
	Schema     string          `json:"schema"`
	GoVersion  string          `json:"go"`
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	NumCPU     int             `json:"num_cpu"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Results    []HotpathResult `json:"results"`
	// Derived ratios: "cycle_speedup_pooled_vs_legacy" is the full
	// wire cycle (build+marshal+unmarshal+aggregate+marshal reply)
	// with pooled buffers and per-slot locks versus the allocating
	// path behind a global mutex; "shard_speedup_4x_vs_1x" is the
	// sharded switch's packet throughput with 4 concurrent handler
	// goroutines versus 1 (bounded by NumCPU — on a single-core host
	// it records lock overhead, not parallelism).
	Derived map[string]float64 `json:"derived"`
	Notes   []string           `json:"notes"`
}

// measureHot times f(ops) and returns wall time and heap allocations
// per operation. The GC runs first so the delta only counts f's own
// allocations.
func measureHot(name string, ops int, f func(ops int)) HotpathResult {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f(ops)
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	ns := float64(dur.Nanoseconds()) / float64(ops)
	pps := 0.0
	if dur > 0 {
		pps = float64(ops) / dur.Seconds()
	}
	return HotpathResult{Name: name, Ops: ops, NsPerOp: ns, AllocsPerOp: allocs, PacketsPerSec: pps}
}

// hotSwitch builds the benchmark switch: 4 workers, a 64-slot pool,
// k=32 elements (the paper's packet payload).
func hotSwitch() (core.SwitchConfig, error) {
	cfg := core.SwitchConfig{Workers: 4, PoolSize: 64, SlotElems: packet.DefaultElems, LossRecovery: true}
	return cfg, nil
}

// RunHotpath measures the zero-allocation per-packet path: the packet
// codec, the switch ingress, the full aggregation wire cycle (legacy
// allocating vs pooled), and the sharded switch's dispatch throughput
// as handler goroutines scale. The JSON artifact is the repository's
// performance baseline (BENCH_hotpath.json).
func RunHotpath(o Options) (*Table, error) {
	o.fill()
	// Iteration counts shrink with -scale like tensor sizes do, so
	// smoke runs stay fast; -scale 1 is the full baseline.
	iters := func(base int) int {
		n := base / o.Scale
		if n < 1000 {
			n = 1000
		}
		return n
	}
	codecOps := iters(5_000_000)
	switchOps := iters(2_000_000)
	shardOps := iters(2_000_000)

	var results []HotpathResult
	add := func(r HotpathResult) {
		fmt.Fprintf(o.Log, "hotpath: %-28s %10.1f ns/op  %6.3f allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
		results = append(results, r)
	}

	vec := make([]int32, packet.DefaultElems)
	for i := range vec {
		vec[i] = int32(i)
	}
	proto := packet.NewUpdate(1, 0, 0, 3, 96, vec)
	wire := proto.Marshal()

	// Packet codec: pooled (buffer reuse) vs allocating.
	add(measureHot("packet/marshal-pooled", codecOps, func(n int) {
		buf := make([]byte, 0, proto.MarshalledSize())
		for i := 0; i < n; i++ {
			buf = proto.AppendMarshal(buf[:0])
		}
	}))
	add(measureHot("packet/marshal-alloc", codecOps, func(n int) {
		for i := 0; i < n; i++ {
			_ = proto.Marshal()
		}
	}))
	add(measureHot("packet/unmarshal-pooled", codecOps, func(n int) {
		var p packet.Packet
		for i := 0; i < n; i++ {
			if err := packet.UnmarshalInto(&p, wire); err != nil {
				panic(err)
			}
		}
	}))
	add(measureHot("packet/unmarshal-alloc", codecOps, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := packet.Unmarshal(wire); err != nil {
				panic(err)
			}
		}
	}))

	cfg, err := hotSwitch()
	if err != nil {
		return nil, err
	}

	// Switch ingress: borrowed response storage vs allocating.
	runIngress := func(borrow bool) (HotpathResult, error) {
		sw, err := core.NewSwitch(cfg)
		if err != nil {
			return HotpathResult{}, err
		}
		name := "switch/ingress-alloc"
		if borrow {
			name = "switch/ingress-pooled"
		}
		var p, out packet.Packet
		return measureHot(name, switchOps, func(n int) {
			off := uint64(0)
			for i := 0; i < n; i += cfg.Workers {
				idx := uint32(i/cfg.Workers) % uint32(cfg.PoolSize)
				ver := uint8((i / cfg.Workers / cfg.PoolSize) % 2)
				for w := 0; w < cfg.Workers; w++ {
					p.SetUpdate(uint16(w), 0, ver, idx, off, vec)
					if borrow {
						sw.HandleInto(&p, &out)
					} else {
						sw.Handle(&p)
					}
				}
				off += uint64(cfg.SlotElems)
			}
		}), nil
	}
	for _, borrow := range []bool{true, false} {
		r, err := runIngress(borrow)
		if err != nil {
			return nil, err
		}
		add(r)
	}

	// Full wire cycle, the aggregator's datagram loop without the
	// socket: build the update, marshal, unmarshal, aggregate under a
	// lock, marshal the reply. Legacy = allocating codec + global
	// mutex; pooled = buffer reuse + per-slot locks.
	legacySw, err := core.NewSwitch(cfg)
	if err != nil {
		return nil, err
	}
	var legacyMu sync.Mutex
	add(measureHot("cycle/legacy", switchOps, func(n int) {
		off := uint64(0)
		for i := 0; i < n; i += cfg.Workers {
			idx := uint32(i/cfg.Workers) % uint32(cfg.PoolSize)
			ver := uint8((i / cfg.Workers / cfg.PoolSize) % 2)
			for w := 0; w < cfg.Workers; w++ {
				b := packet.NewUpdate(uint16(w), 0, ver, idx, off, vec).Marshal()
				q, err := packet.Unmarshal(b)
				if err != nil {
					panic(err)
				}
				legacyMu.Lock()
				resp := legacySw.Handle(q)
				legacyMu.Unlock()
				if resp.Pkt != nil {
					_ = resp.Pkt.Marshal()
				}
			}
			off += uint64(cfg.SlotElems)
		}
	}))
	pooledSS, err := core.NewShardedSwitch(cfg)
	if err != nil {
		return nil, err
	}
	add(measureHot("cycle/pooled", switchOps, func(n int) {
		var p, q, out packet.Packet
		sbuf := make([]byte, 0, proto.MarshalledSize())
		rbuf := make([]byte, 0, proto.MarshalledSize())
		off := uint64(0)
		for i := 0; i < n; i += cfg.Workers {
			idx := uint32(i/cfg.Workers) % uint32(cfg.PoolSize)
			ver := uint8((i / cfg.Workers / cfg.PoolSize) % 2)
			for w := 0; w < cfg.Workers; w++ {
				p.SetUpdate(uint16(w), 0, ver, idx, off, vec)
				sbuf = p.AppendMarshal(sbuf[:0])
				if err := packet.UnmarshalInto(&q, sbuf); err != nil {
					panic(err)
				}
				resp := pooledSS.HandleInto(&q, &out)
				if resp.Pkt != nil {
					rbuf = resp.Pkt.AppendMarshal(rbuf[:0])
				}
			}
			off += uint64(cfg.SlotElems)
		}
	}))

	// Sharded dispatch: G handler goroutines, shard g owning slots
	// idx ≡ g (mod G) — the Flow Director discipline. Total packet
	// count is constant across G, so throughput is comparable.
	runShards := func(g int) (HotpathResult, error) {
		ss, err := core.NewShardedSwitch(cfg)
		if err != nil {
			return HotpathResult{}, err
		}
		rounds := shardOps / (cfg.PoolSize * cfg.Workers)
		if rounds < 1 {
			rounds = 1
		}
		ops := rounds * cfg.PoolSize * cfg.Workers
		return measureHot(fmt.Sprintf("sharded/dispatch-%dg", g), ops, func(int) {
			var wg sync.WaitGroup
			for s := 0; s < g; s++ {
				s := s
				wg.Add(1)
				go func() {
					defer wg.Done()
					var p, out packet.Packet
					lvec := make([]int32, cfg.SlotElems)
					copy(lvec, vec)
					for r := 0; r < rounds; r++ {
						ver := uint8(r % 2)
						for idx := uint32(s); idx < uint32(cfg.PoolSize); idx += uint32(g) {
							off := uint64(r)*uint64(cfg.PoolSize*cfg.SlotElems) + uint64(idx)*uint64(cfg.SlotElems)
							for w := 0; w < cfg.Workers; w++ {
								p.SetUpdate(uint16(w), 0, ver, idx, off, lvec)
								ss.HandleInto(&p, &out)
							}
						}
					}
				}()
			}
			wg.Wait()
		}), nil
	}
	shardRes := map[int]HotpathResult{}
	for _, g := range []int{1, 2, 4} {
		r, err := runShards(g)
		if err != nil {
			return nil, err
		}
		shardRes[g] = r
		add(r)
	}

	// Batched UDP I/O: a real aggregator and W workers over loopback
	// sockets running the identical seeded job, once with netio at
	// burst ceiling 1 (one datagram per wakeup and per flush, in
	// whatever mode the host selects) and once at the default burst
	// ceiling (recvmmsg/sendmmsg bursts, GSO trains where the kernel
	// offers them). The one-datagram-per-syscall baseline is the same
	// run under SWITCHML_NO_MMSG=1. Ops counts worker update
	// datagrams, so Mpkt/s is the aggregation ingest rate.
	udpElems := 65536 / o.Scale
	if udpElems < 2048 {
		udpElems = 2048
	}
	const udpWorkers, udpRounds = 4, 3
	udpChunks := (udpElems + packet.DefaultElems - 1) / packet.DefaultElems
	udpOps := udpRounds * udpWorkers * udpChunks
	runUDP := func(name string, batch int) (HotpathResult, transport.AggDebugState, error) {
		var st transport.AggDebugState
		agg, err := transport.NewAggregator(transport.AggregatorConfig{
			Addr:   "127.0.0.1:0",
			Shards: 4,
			Batch:  batch,
			Switch: core.SwitchConfig{
				Workers: udpWorkers, PoolSize: 64,
				SlotElems: packet.DefaultElems, LossRecovery: true,
			},
		})
		if err != nil {
			return HotpathResult{}, st, err
		}
		defer agg.Close()
		clients := make([]*transport.Client, udpWorkers)
		for i := range clients {
			c, err := transport.NewClient(transport.ClientConfig{
				Aggregator: agg.Addr().String(),
				Batch:      batch,
				Worker: core.WorkerConfig{
					ID: uint16(i), Workers: udpWorkers, PoolSize: 64,
					SlotElems: packet.DefaultElems, LossRecovery: true,
				},
				RTO:     50 * time.Millisecond,
				Timeout: 60 * time.Second,
			})
			if err != nil {
				return HotpathResult{}, st, err
			}
			defer c.Close()
			clients[i] = c
		}
		update := make([]int32, udpElems)
		for i := range update {
			update[i] = int32(i % 97)
		}
		errs := make([]error, udpWorkers)
		res := measureHot(name, udpOps, func(int) {
			for r := 0; r < udpRounds; r++ {
				var wg sync.WaitGroup
				for i, c := range clients {
					i, c := i, c
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := c.AllReduceInt32(update); err != nil && errs[i] == nil {
							errs[i] = err
						}
					}()
				}
				wg.Wait()
			}
		})
		for _, err := range errs {
			if err != nil {
				return HotpathResult{}, st, err
			}
		}
		return res, agg.DebugState(false), nil
	}
	unb, _, err := runUDP("udp/agg-unbatched", 1)
	if err != nil {
		return nil, err
	}
	add(unb)
	bat, batSt, err := runUDP("udp/agg-batched", 0)
	if err != nil {
		return nil, err
	}
	add(bat)

	byName := func(name string) HotpathResult {
		for _, r := range results {
			if r.Name == name {
				return r
			}
		}
		return HotpathResult{}
	}
	derived := map[string]float64{}
	if p := byName("cycle/pooled"); p.NsPerOp > 0 {
		derived["cycle_speedup_pooled_vs_legacy"] = byName("cycle/legacy").NsPerOp / p.NsPerOp
	}
	if s1 := shardRes[1]; s1.NsPerOp > 0 && shardRes[4].NsPerOp > 0 {
		derived["shard_speedup_4x_vs_1x"] = s1.NsPerOp / shardRes[4].NsPerOp
	}
	if bat.NsPerOp > 0 {
		derived["udp_batched_speedup_4shards"] = unb.NsPerOp / bat.NsPerOp
	}
	derived["udp_batch_size"] = float64(batSt.Batch)
	derived["udp_batch_occupancy_p50"] = batSt.BatchOccupancyP50
	derived["udp_batch_occupancy_p99"] = batSt.BatchOccupancyP99

	report := &HotpathReport{
		Schema:     "switchml-hotpath-v1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Results:    results,
		Derived:    derived,
		Notes: []string{
			"pooled paths reuse caller storage (AppendMarshal/UnmarshalInto/HandleInto); alloc paths are the pre-refactor per-packet allocations",
			"cycle/* is the aggregator datagram loop without the socket: build, marshal, unmarshal, aggregate, marshal reply",
			"sharded/dispatch-Ng runs N handler goroutines over disjoint slot stripes (idx mod N); speedup above 1g requires num_cpu > 1",
			fmt.Sprintf("udp/agg-* is the full AllReduce over loopback sockets, %d workers x %d rounds x %d-element tensors, 4 aggregator shards; unbatched = netio at burst ceiling 1, batched = net_mode %q at batch %d (occupancy p50 %.1f, p99 %.1f datagrams/wakeup)",
				udpWorkers, udpRounds, udpElems, batSt.NetMode, batSt.Batch,
				batSt.BatchOccupancyP50, batSt.BatchOccupancyP99),
		},
	}
	artifact, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:       "hotpath",
		Title:    fmt.Sprintf("Zero-allocation hot path (k=%d, %d workers, %d slots)", cfg.SlotElems, cfg.Workers, cfg.PoolSize),
		Header:   []string{"path", "ns/op", "allocs/op", "Mpkt/s"},
		Artifact: artifact,
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Name,
			fmt.Sprintf("%.1f", r.NsPerOp),
			fmt.Sprintf("%.3f", r.AllocsPerOp),
			fmt.Sprintf("%.2f", r.PacketsPerSec/1e6),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("cycle speedup pooled vs legacy: %.2fx; shard 4g vs 1g: %.2fx (num_cpu=%d, gomaxprocs=%d)",
			derived["cycle_speedup_pooled_vs_legacy"], derived["shard_speedup_4x_vs_1x"],
			runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		"alloc rows keep the pre-refactor behaviour for comparison; tests assert the pooled rows are exactly 0 allocs/op",
		fmt.Sprintf("udp batched vs unbatched: %.2fx at 4 shards (mode %s, batch %d, occupancy p50 %.1f p99 %.1f)",
			derived["udp_batched_speedup_4shards"], batSt.NetMode, batSt.Batch,
			derived["udp_batch_occupancy_p50"], derived["udp_batch_occupancy_p99"]),
	)
	return t, nil
}
