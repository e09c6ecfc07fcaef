// Command switchml-agg runs a software SwitchML aggregator — the §6
// "parameter aggregator" deployment model — on a UDP port.
//
// Usage:
//
//	switchml-agg -listen :5555 -workers 4 [-pool 64] [-elems 32]
//	    [-jobs 1] [-job-base 0] [-metrics :9100] [-debug :6060]
//	    [-liveness 500ms] [-absent 3] [-quorum 3] [-late-policy drop]
//	    [-down-after 2s] [-down-for 2s]
//
// -down-after / -down-for script a failover drill: the aggregation
// program goes silent (datagrams dropped, socket still bound — what a
// dead switch program looks like under a live crossbar) and
// optionally revives, driving workers armed with -standby and -mesh
// down and back up their failover ladder.
//
// It serves N pools (-jobs N) with job ids job-base..job-base+N-1 on
// one set of sockets and shards: one job by default, or one per tenant
// job or per core shard of sharded multi-core workers
// (switchml.DialSharded). Workers connect with matching parameters;
// the aggregator learns their addresses from their first packets, so
// no registration is needed. With more than one pool it routes model
// updates by job id and answers no control traffic, so -liveness (and
// with it -absent) needs -jobs 1.
//
// Elastic membership (needs -liveness): -absent lists worker ids that
// start outside the job and may join later (switchml-worker -join).
// -quorum N completes each slot once N of the current members
// contributed, with late straggler updates handled per -late-policy
// (drop or reconcile).
//
// -metrics exposes the switch counters as JSON over HTTP at /stats.
// -debug starts the introspection listener: /metrics (plain-text
// counter dump), /debug/vars (expvar) and /debug/pprof/ (profiles of
// the live aggregator).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"switchml"
)

func main() {
	listen := flag.String("listen", ":5555", "UDP listen address")
	workers := flag.Int("workers", 2, "number of workers per aggregation (n)")
	pool := flag.Int("pool", 64, "aggregator pool size (s)")
	elems := flag.Int("elems", 32, "elements per packet (k)")
	jobs := flag.Int("jobs", 1, "number of pools to serve (tenants or worker shards)")
	jobBase := flag.Uint("job-base", 0, "first job id")
	metrics := flag.String("metrics", "", "optional HTTP address exposing /stats")
	debug := flag.String("debug", "", "optional HTTP address exposing /metrics, expvar and pprof")
	liveness := flag.Duration("liveness", 0,
		"failure-detector silence threshold (0 = off; needs -jobs 1); workers silent this long are evicted and the job resumes among survivors")
	flightDir := flag.String("flight-dir", "",
		"arm a fault flight recorder: fault transitions dump JSON incident files (recent events, metric delta, per-slot state) into this directory")
	absent := flag.String("absent", "",
		"comma-separated worker ids that start outside the membership and may join later (requires -liveness)")
	quorum := flag.Int("quorum", 0,
		"complete each slot once this many members contributed (0 = full participation); stragglers handled per -late-policy")
	latePolicy := flag.String("late-policy", "drop",
		"fate of straggler updates arriving after quorum completion: drop or reconcile")
	batch := flag.Int("batch", 0,
		"per-shard I/O burst ceiling: datagrams per recvmmsg/sendmmsg (0 = 32; SWITCHML_NO_MMSG=1 forces one datagram per syscall)")
	downAfter := flag.Duration("down-after", 0,
		"failover drill: this long after startup, silently drop every datagram as a dead switch program would (0 = never)")
	downFor := flag.Duration("down-for", 0,
		"failover drill: revive the program this long after -down-after (0 = stay down)")
	flag.Parse()

	params := switchml.AggregatorParams{
		Workers:   *workers,
		PoolSize:  *pool,
		SlotElems: *elems,
		Quorum:    *quorum,
		Batch:     *batch,
	}
	switch *latePolicy {
	case "drop":
		params.LatePolicy = switchml.LateDrop
	case "reconcile":
		params.LatePolicy = switchml.LateReconcile
	default:
		log.Fatalf("switchml-agg: -late-policy must be drop or reconcile, got %q", *latePolicy)
	}
	if *absent != "" {
		for _, part := range strings.Split(*absent, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				log.Fatalf("switchml-agg: -absent: bad worker id %q", part)
			}
			params.Absent = append(params.Absent, w)
		}
		if *liveness <= 0 {
			log.Fatal("switchml-agg: -absent requires -liveness (elastic membership rides on the failure detector)")
		}
	}
	if *liveness > 0 {
		params.Liveness = &switchml.LivenessParams{SilenceAfter: *liveness}
	}
	if *flightDir != "" {
		params.Flight = &switchml.FlightParams{Dir: *flightDir}
	}

	params.JobID = uint16(*jobBase)
	agg, err := switchml.ListenAggregator(*listen, params)
	if err != nil {
		log.Fatal(err)
	}
	defer agg.Close()
	for j := 1; j < *jobs; j++ {
		if err := agg.AdmitJob(params.JobID+uint16(j), params); err != nil {
			log.Fatalf("switchml-agg: -jobs %d: %v", *jobs, err)
		}
	}
	statsFn := func() any { return agg.Stats() }
	if *jobs > 1 {
		statsFn = func() any {
			out := map[string]any{}
			for j := 0; j < *jobs; j++ {
				id := params.JobID + uint16(j)
				if st, ok := agg.JobStats(id); ok {
					out[fmt.Sprintf("job%d", id)] = st
				}
			}
			return out
		}
	}
	if *downAfter > 0 {
		time.AfterFunc(*downAfter, func() {
			fmt.Println("switchml-agg: drill: aggregation program down")
			agg.SetDown(true)
			if *downFor > 0 {
				time.AfterFunc(*downFor, func() {
					fmt.Println("switchml-agg: drill: aggregation program revived")
					agg.SetDown(false)
				})
			}
		})
	}
	fmt.Printf("switchml-agg: serving %d pool(s) for %d-worker jobs on %s (pool %d, k=%d)\n",
		*jobs, *workers, agg.Addr(), *pool, *elems)

	if *metrics != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(statsFn())
		})
		// Keep the server value in hand so the goroutine has a
		// shutdown path: the deferred srv.Close unblocks Serve.
		srv := &http.Server{Handler: mux}
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatalf("switchml-agg: metrics server: %v", err)
		}
		defer srv.Close()
		go srv.Serve(ln)
		fmt.Printf("switchml-agg: stats at http://%s/stats\n", ln.Addr())
	}
	if *debug != "" {
		bound, err := agg.ServeDebug(*debug)
		if err != nil {
			log.Fatalf("switchml-agg: debug server: %v", err)
		}
		fmt.Printf("switchml-agg: debug at http://%s/metrics and http://%s/debug/pprof/\n", bound, bound)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Println("switchml-agg: shutting down")
}
