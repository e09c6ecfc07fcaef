// Command switchml-sim runs one SwitchML aggregation on the
// deterministic rack simulator with fully custom parameters, for
// exploring the design space beyond the paper's configurations.
//
// Usage:
//
//	switchml-sim -workers 8 -gbps 10 -mb 100 [-pool 0] [-elems 32]
//	    [-loss 0.001] [-rto 1ms] [-cores 4] [-straggler-gbps 0] [-seed 1]
//	    [-trace out.json] [-burst pGB,pBG,lossG,lossB] [-crash 2@100us]
//	    [-switch-restart 500us] [-switch-kill 100us] [-switch-revive 5ms]
//	    [-standby 1] [-standby-kill 1@5ms] [-standby-revive 1@20ms]
//	    [-probe 200us] [-degraded-mode] [-no-fallback]
//	    [-steps 1] [-quorum 0] [-late-policy drop] [-detached 3,4]
//	    [-join-at 3@2] [-leave-at 1@4]
//	    [-sample 100us] [-series series.json] [-flight incident.json]
//
// Elastic membership is scripted with -steps > 1: -detached starts
// workers outside the job, -join-at "w@step" admits one during that
// step (committed at the next step boundary), and -leave-at "w@step"
// drains one out the same way. -quorum lets slots complete short of
// the membership, mitigating stragglers (-straggler-gbps) at the cost
// of late gradients, handled per -late-policy.
//
// It prints the tensor aggregation time, the achieved ATE/s against
// the analytic line rate, and the retransmission count. -trace
// records every protocol event (transmissions, drops, retransmits,
// slot completions, shadow reads) to a Chrome trace-event file that
// chrome://tracing or https://ui.perfetto.dev can open.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"switchml/internal/allreduce"
	"switchml/internal/core"
	"switchml/internal/faults"
	"switchml/internal/netsim"
	"switchml/internal/rack"
	"switchml/internal/telemetry"
)

func main() {
	workers := flag.Int("workers", 8, "number of workers (n)")
	gbps := flag.Float64("gbps", 10, "link rate in Gbps")
	mb := flag.Float64("mb", 100, "tensor size in MB")
	pool := flag.Int("pool", 0, "pool size s (0 = BDP tuning rule, §3.6)")
	elems := flag.Int("elems", 32, "elements per packet (k)")
	loss := flag.Float64("loss", 0, "per-link packet loss probability")
	rto := flag.Duration("rto", time.Millisecond, "retransmission timeout")
	cores := flag.Int("cores", 4, "worker CPU cores")
	stragglerGbps := flag.Float64("straggler-gbps", 0, "if > 0, worker 0's link rate in Gbps")
	seed := flag.Int64("seed", 1, "simulation seed")
	tracePath := flag.String("trace", "", "write a Chrome trace-event file of every protocol event")
	burst := flag.String("burst", "",
		"Gilbert–Elliott burst loss as \"pGoodToBad,pBadToGood,lossGood,lossBad\" (replaces -loss)")
	crash := flag.String("crash", "",
		"crash a worker mid-run as \"worker@time\", e.g. \"2@100us\"; the job recovers among the survivors")
	switchRestart := flag.Duration("switch-restart", 0,
		"restart the switch (wiping all register state) at this virtual time (0 = off)")
	degradedMode := flag.Bool("degraded-mode", false,
		"run the whole job on host ring all-reduce instead of the switch (the fallback baseline)")
	switchKill := flag.Duration("switch-kill", 0,
		"kill the switch's aggregation program at this virtual time (0 = off); the job degrades to host all-reduce")
	switchRevive := flag.Duration("switch-revive", 0,
		"revive a killed aggregation program at this virtual time (0 = never); the job probes and fails back")
	standbys := flag.Int("standby", 0,
		"warm-standby aggregation programs behind the same crossbar; a silent serving switch re-homes the job onto the next rung instead of degrading to the host mesh")
	standbyKill := flag.String("standby-kill", "",
		"kill a standby's aggregation program as \"rank@time\" (1-based rank, e.g. 1@5ms)")
	standbyRevive := flag.String("standby-revive", "",
		"revive a killed standby as \"rank@time\" (1-based rank)")
	probe := flag.Duration("probe", 0,
		"probe period while degraded (0 = SuspectAfter/4)")
	noFallback := flag.Bool("no-fallback", false,
		"disable degraded mode: a killed switch fails the run with a typed error instead")
	steps := flag.Int("steps", 1,
		"aggregation steps (the tensor is re-aggregated each step); membership changes commit at step boundaries")
	quorum := flag.Int("quorum", 0,
		"straggler quorum: slots complete once this many workers contributed (0 = full participation)")
	latePolicy := flag.String("late-policy", "drop",
		"fate of a straggler's update after its slot completed at quorum: drop | reconcile")
	detached := flag.String("detached", "",
		"comma-separated worker ids starting outside the membership (admit them with -join-at)")
	joinAt := flag.String("join-at", "",
		"gracefully admit workers as \"worker@step[,worker@step...]\"; requested during that step, committed at the next boundary")
	leaveAt := flag.String("leave-at", "",
		"gracefully drain workers as \"worker@step[,worker@step...]\"; the drain finishes the step, departure commits at the next boundary")
	samplePeriod := flag.Duration("sample", 0,
		"sample the run's metrics into time series at this virtual-time period (0 = off)")
	seriesPath := flag.String("series", "",
		"with -sample, write the sampled series as JSON to this file")
	flightPath := flag.String("flight", "",
		"arm a fault flight recorder: fault transitions dump a JSON incident (events, metric delta, per-slot state) to this file")
	flag.Parse()

	var ring *telemetry.Ring
	if *tracePath != "" {
		ring = telemetry.NewRing(1 << 20)
	}
	cfg := rack.Config{
		Workers:        *workers,
		LinkBitsPerSec: *gbps * 1e9,
		PoolSize:       *pool,
		SlotElems:      *elems,
		LossRate:       *loss,
		RTO:            netsim.Time(*rto),
		Cores:          *cores,
		LossRecovery:   true,
		Seed:           *seed,
	}
	if ring != nil {
		cfg.Tracer = ring
	}
	if *stragglerGbps > 0 {
		cfg.WorkerLinkBitsPerSec = make([]float64, *workers)
		cfg.WorkerLinkBitsPerSec[0] = *stragglerGbps * 1e9
	}
	if *burst != "" {
		var ge netsim.GEConfig
		if n, err := fmt.Sscanf(*burst, "%g,%g,%g,%g",
			&ge.PGoodToBad, &ge.PBadToGood, &ge.LossGood, &ge.LossBad); n != 4 || err != nil {
			log.Fatalf("-burst: want \"pGoodToBad,pBadToGood,lossGood,lossBad\", got %q", *burst)
		}
		cfg.BurstLoss = &ge
		cfg.LossRate = 0
	}
	cfg.Quorum = *quorum
	switch *latePolicy {
	case "drop":
		cfg.LatePolicy = core.LateDrop
	case "reconcile":
		cfg.LatePolicy = core.LateReconcile
	default:
		log.Fatalf("-late-policy: want drop or reconcile, got %q", *latePolicy)
	}
	if *detached != "" {
		for _, part := range strings.Split(*detached, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				log.Fatalf("-detached: bad worker id %q: %v", part, err)
			}
			cfg.Detached = append(cfg.Detached, w)
		}
	}
	var scenario faults.Scenario
	elastic := func(name, spec string, kind faults.ActionKind) {
		if spec == "" {
			return
		}
		for _, part := range strings.Split(spec, ",") {
			var w, s int
			if n, err := fmt.Sscanf(part, "%d@%d", &w, &s); n != 2 || err != nil {
				log.Fatalf("%s: want \"worker@step\" (e.g. 3@2), got %q", name, part)
			}
			if s < 1 || s > *steps {
				log.Fatalf("%s: step %d outside the %d-step run", name, s, *steps)
			}
			scenario.Actions = append(scenario.Actions,
				faults.Action{Kind: kind, Worker: w, Step: s})
		}
	}
	elastic("-join-at", *joinAt, faults.JoinWorker)
	elastic("-leave-at", *leaveAt, faults.LeaveWorker)
	if *crash != "" {
		var w int
		var at string
		if n, err := fmt.Sscanf(*crash, "%d@%s", &w, &at); n != 2 || err != nil {
			log.Fatalf("-crash: want \"worker@time\" (e.g. 2@100us), got %q", *crash)
		}
		d, err := time.ParseDuration(at)
		if err != nil {
			log.Fatalf("-crash: bad time in %q: %v", *crash, err)
		}
		scenario.Actions = append(scenario.Actions,
			faults.Action{Kind: faults.CrashWorker, Worker: w, At: netsim.Time(d)})
	}
	if *switchRestart > 0 {
		scenario.Actions = append(scenario.Actions,
			faults.Action{Kind: faults.RestartSwitch, At: netsim.Time(*switchRestart)})
	}
	if *switchKill > 0 {
		scenario.Actions = append(scenario.Actions,
			faults.Action{Kind: faults.KillSwitch, At: netsim.Time(*switchKill)})
	}
	if *switchRevive > 0 {
		scenario.Actions = append(scenario.Actions,
			faults.Action{Kind: faults.ReviveSwitch, At: netsim.Time(*switchRevive)})
	}
	standbyAction := func(name, spec string, kind faults.ActionKind) {
		if spec == "" {
			return
		}
		var rank int
		var at string
		if n, err := fmt.Sscanf(spec, "%d@%s", &rank, &at); n != 2 || err != nil {
			log.Fatalf("%s: want \"rank@time\" (e.g. 1@5ms), got %q", name, spec)
		}
		d, err := time.ParseDuration(at)
		if err != nil {
			log.Fatalf("%s: bad time in %q: %v", name, spec, err)
		}
		scenario.Actions = append(scenario.Actions,
			faults.Action{Kind: kind, Worker: rank, At: netsim.Time(d)})
	}
	standbyAction("-standby-kill", *standbyKill, faults.KillStandby)
	standbyAction("-standby-revive", *standbyRevive, faults.ReviveStandby)
	cfg.StandbySwitches = *standbys
	if len(scenario.Actions) > 0 {
		cfg.Faults = &scenario
	}
	cfg.NoFallback = *noFallback
	if *degradedMode {
		cfg.StartDegraded = true
		cfg.Health = &rack.HealthConfig{Probation: -1}
	}
	if *probe > 0 {
		if cfg.Health == nil {
			cfg.Health = &rack.HealthConfig{}
		}
		cfg.Health.ProbeEvery = netsim.Time(*probe)
	}
	cfg.SampleEvery = netsim.Time(*samplePeriod)
	var rec *telemetry.FlightRecorder
	if *flightPath != "" {
		if cfg.Metrics == nil {
			cfg.Metrics = telemetry.NewRegistry()
		}
		rec = telemetry.NewFlightRecorder(telemetry.FlightConfig{
			Path:     *flightPath,
			Registry: cfg.Metrics,
		})
		if ring != nil {
			cfg.Tracer = telemetry.Fanout(ring, rec)
		} else {
			cfg.Tracer = rec
		}
	}
	r, err := rack.NewRack(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if rec != nil {
		rec.SetState(func() any { return r.PoolState(true) })
	}
	n := int(*mb * 1e6 / 4)
	tensor := make([]int32, n)
	for i := range tensor {
		tensor[i] = 1
	}
	var res rack.Result
	for step := 1; step <= *steps; step++ {
		res, err = r.AllReduceShared(tensor)
		if err != nil {
			log.Fatalf("step %d: %v", step, err)
		}
	}
	// Pick a reporting worker that is inside the final membership.
	skip := make(map[int]bool, len(res.Failed)+len(res.Detached))
	for _, w := range res.Failed {
		skip[w] = true
	}
	for _, w := range res.Detached {
		skip[w] = true
	}
	survivor := 0
	for skip[survivor] {
		survivor++
	}
	members := int32(0)
	for i := 0; i < *workers; i++ {
		if r.Member(i) {
			members++
		}
	}
	switch {
	case *quorum > 0 && *quorum < int(members):
		// Quorum runs exclude straggler gradients per slot; there is no
		// single exact expectation to enforce here.
	case *steps == 1 && len(res.Detached) == 0:
		// With faults injected, some workers may be retired mid-run:
		// the first survivor's aggregate must then show full-membership
		// sums before the recovery frontier and survivor-only sums
		// after it.
		full := int32(*workers)
		surv := full - int32(len(res.Failed))
		boundary := -1
		for i, v := range r.Aggregate(survivor) {
			switch {
			case boundary < 0 && v == full:
			case v == surv:
				if boundary < 0 {
					boundary = i
				}
			default:
				log.Fatalf("aggregate[%d] = %d, want %d or %d: protocol bug", i, v, full, surv)
			}
		}
		if len(res.Failed) > 0 {
			fmt.Printf("failed workers    %v (survivor sums past element %d)\n", res.Failed, boundary)
		}
	case len(res.Failed) == 0:
		// Elastic runs commit membership at step boundaries, so the
		// final step's aggregate must be uniform at the member count —
		// a torn aggregate here means the fence failed.
		for i, v := range r.Aggregate(survivor) {
			if v != members {
				log.Fatalf("aggregate[%d] = %d, want %d (final membership): torn aggregate", i, v, members)
			}
		}
	}
	if len(res.Failed) > 0 && *steps > 1 {
		fmt.Printf("failed workers    %v\n", res.Failed)
	}
	if len(res.Left) > 0 || len(res.Detached) > 0 {
		fmt.Printf("membership        %d of %d at the end; left=%v detached=%v\n",
			members, *workers, res.Left, res.Detached)
	}
	ate := float64(n) / (float64(res.TAT) / 1e9)
	line := allreduce.SwitchMLLineRateATE(*gbps*1e9, *elems)
	fmt.Printf("workers=%d link=%.0fG pool=%d k=%d loss=%.4f%% rto=%v\n",
		*workers, *gbps, r.Config().PoolSize, *elems, *loss*100, *rto)
	fmt.Printf("TAT               %v\n", res.TAT)
	fmt.Printf("ATE/s             %.1fM (%.1f%% of line rate %.1fM)\n",
		ate/1e6, 100*ate/line, line/1e6)
	fmt.Printf("retransmissions   %d\n", res.Retransmissions)
	if *quorum > 0 {
		st := r.Switch().Stats()
		fmt.Printf("quorum            %d-of-%d: %d quorum completions, %d late dropped, %d late reconciled, %d gone replies\n",
			*quorum, members, st.QuorumCompletions, st.LateDropped, st.LateReconciled, st.GoneReplies)
	}
	fmt.Printf("simulator events  %d\n", r.Sim().Processed())
	if c := r.Counters(); c["failover_rehomes"] > 0 {
		fmt.Printf("failover ladder   %d re-homing(s); standbys absorbed %d updates (%d completions); home rank now %d\n",
			c["failover_rehomes"], c["standby_updates"], c["standby_completions"], r.HomeRank())
	}
	if c := r.Counters(); c["health_degrades"] > 0 || c["host_aggregated_elems"] > 0 {
		fmt.Printf("fabric handoffs   %d degrade(s), %d failback(s), %d/%d probes answered\n",
			c["health_degrades"], c["health_failbacks"], c["health_probe_acks"], c["health_probes"])
		fmt.Printf("host aggregation  %d of %d elements (%.1f%%)\n",
			c["host_aggregated_elems"], uint64(n),
			100*float64(c["host_aggregated_elems"])/float64(n))
	}
	if *samplePeriod > 0 {
		series := r.Series()
		fmt.Printf("sampled series    %d over the run\n", len(series))
		if *seriesPath != "" {
			data, err := json.MarshalIndent(series, "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*seriesPath, append(data, '\n'), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("series written    %s\n", *seriesPath)
		}
	}
	if rec != nil {
		// Dumped waits for incident files still being written.
		dumps, err := rec.Dumped()
		if err != nil {
			log.Fatalf("flight recorder: %v", err)
		}
		if dumps > 0 {
			fmt.Printf("flight incidents  %d (last at %s)\n", dumps, *flightPath)
		} else {
			fmt.Println("flight incidents  none (no fault transition fired)")
		}
	}
	if ring != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := telemetry.WriteChromeTrace(f, ring.Events()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println(telemetry.WriteChromeTraceFileNote(*tracePath, ring.Len(), ring.Overwritten()))
	}
}
