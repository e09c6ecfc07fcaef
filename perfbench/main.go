// Command perfbench is the repository benchmark: it runs one workload
// against the public switchml API, checks every output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as a
// JSON object on its last line of standard output.
//
//	go run . -workload resnet50-step -seed 1 -seconds 10 -trace 0
//
// Workloads, metric units and the layer each per-layer metric belongs
// to are listed in metrics.go; README.md explains them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"switchml"
)

func main() {
	os.Exit(run())
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
}

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time of the run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced measurement and prints the per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1, write the recorded spans to <workload>.jsonl in this directory")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		return 2
	}
	res, err := measure(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		for _, e := range res.errs {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
		}
		return 1
	}
	return 0
}

// workload describes one of the benchmark's workloads.
type workload struct {
	name string
	// setups is how many times set-up is timed for setup_s.
	setups int
	// named are the workload's own names for its latency quantiles,
	// printed beside op_ms_p50 and op_ms_p90.
	named []namedQuantile
	make  func(seed int64) (runner, error)
}

var workloads = []workload{
	{name: "resnet50-step", setups: 5, named: []namedQuantile{{"step_ms_p50", 0.5, 1}, {"step_ms_p95", 0.95, 1}}, make: func(seed int64) (runner, error) {
		return newResnetStep(seed)
	}},
	{name: "small-tensor", setups: 9, named: []namedQuantile{{"tat_us_p50", 0.5, 1e3}, {"tat_us_p99", 0.99, 1e3}}, make: func(seed int64) (runner, error) {
		return &smallTensor{in: makeSmallInputs(seed)}, nil
	}},
	{name: "sim-loss", setups: 3, named: []namedQuantile{{"sim_wall_ms_p50", 0.5, 1}}, make: func(seed int64) (runner, error) {
		return &simLoss{in: makeSimInputs(seed), perSeed: map[int]switchml.SimResult{}}, nil
	}},
}

// namedQuantile reports the q-quantile of op latency, in ms times
// scale, under name.
type namedQuantile struct {
	name     string
	q, scale float64
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

// measure runs the workload once: inputs first, then the timed
// set-ups (each ending with a checked warm-up op), then the measured
// phase or phases.
func measure(o options) (*result, error) {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	r, err := wl.make(o.seed)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: wl.name, Seed: o.seed, Trace: o.trace, Metrics: map[string]float64{}}
	var setups []float64
	for i := 0; i < wl.setups; i++ {
		if i > 0 {
			r.close()
		}
		t0 := time.Now()
		if err := r.open(); err != nil {
			return nil, err
		}
		warm := r.run(time.Time{}, 1, nil, i == 0)
		setups = append(setups, time.Since(t0).Seconds())
		res.add(warm)
	}
	defer r.close()
	if res.Failed > 0 {
		res.finish()
		return res, nil
	}
	res.Metrics["setup_s"] = median(setups)
	if o.trace {
		if err := measureTraced(o, wl, r, res); err != nil {
			return nil, err
		}
	} else {
		measureUntraced(o, wl, r, res)
	}
	if sim, ok := r.(*simLoss); ok {
		if err := sim.completeRotation(); err != nil {
			return nil, err
		}
		res.Metrics["sim_tat_ms"] = sim.virtualTAT()
	}
	if res.Fingerprint, res.ShardDatagrams, err = hostFingerprint(r); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

func measureUntraced(o options, wl workload, r runner, res *result) {
	p := r.run(deadline(o.seconds), 0, nil, false)
	res.add(p)
	endToEnd(res.Metrics, wl, p)
	res.Metrics["peak_rss_mb"] = sampleProc().peakRSSMB()
}

// endToEnd fills the timing metrics of one phase.
func endToEnd(m map[string]float64, wl workload, p *phase) {
	m["ate_per_s"] = p.rate.perSecond()
	m["op_ms_p50"] = p.lat.quantileMs(0.5)
	m["op_ms_p90"] = p.lat.quantileMs(0.9)
	for _, n := range wl.named {
		m[n.name] = p.lat.quantileMs(n.q) * n.scale
	}
	m["op_samples"] = float64(p.lat.n)
	m["cpu_ms_per_op"] = ms(p.use.user+p.use.sys) / float64(p.ops)
	if p.use.hostTicks > 0 {
		m["host_steal_share"] = float64(p.use.steal) / float64(p.use.hostTicks)
	}
}

// hostFingerprint records what a comparison between two result sets
// must hold equal.
func hostFingerprint(r runner) (fingerprint, []uint64, error) {
	fp := fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		NoMMSG:     os.Getenv("SWITCHML_NO_MMSG"),
		NoGSO:      os.Getenv("SWITCHML_NO_GSO"),
		NetMode:    "none",
	}
	c := clusterOf(r)
	if c == nil {
		return fp, nil, nil
	}
	if c.debug == nil {
		if err := c.serveDebug(); err != nil {
			return fp, nil, err
		}
	}
	st, err := c.state()
	if err != nil {
		return fp, nil, err
	}
	modes := []string{"aggregator=" + st.agg.NetMode}
	for i, cl := range st.clients {
		modes = append(modes, fmt.Sprintf("worker%d=%s", i, cl.NetMode))
	}
	fp.NetMode = strings.Join(modes, ",")
	return fp, st.agg.ShardDatagrams, nil
}

func clusterOf(r runner) *cluster {
	switch r := r.(type) {
	case *resnetStep:
		return r.c
	case *smallTensor:
		return r.c
	}
	return nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// NetMode is the I/O strategy the aggregator and each client
	// selected ("none" for the simulator).
	NetMode string `json:"net_mode"`
	NoMMSG  string `json:"SWITCHML_NO_MMSG"`
	NoGSO   string `json:"SWITCHML_NO_GSO"`
}

// result is one run's outcome.
type result struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Trace       bool        `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	// ShardDatagrams is each aggregator shard's datagram count at the
	// end of the run: which shards the kernel steered the workers to.
	ShardDatagrams []uint64           `json:"agg_shard_datagrams,omitempty"`
	Correct        bool               `json:"correct"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Metrics        map[string]float64 `json:"metrics"`
	errs           []error
}

// add counts a phase's ops; every op of every phase, warm-ups
// included, was checked.
func (r *result) add(p *phase) {
	r.Attempted += p.ops
	r.Failed += p.failed
	r.errs = append(r.errs, p.errs...)
}

func (r *result) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if r.Attempted > 0 {
		r.Metrics["ops_failed_ratio"] = float64(r.Failed) / float64(r.Attempted)
	}
}

// print writes one human-readable line per measured metric, the full
// record (fingerprint included) on a "perfbench-result" line, and
// last the summary object with every metric of this mode: the
// end-to-end metrics untraced, the per-layer metrics traced (0 where
// the workload leaves a layer idle).
func (r *result) print(f *os.File) error {
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d ops attempted, %d failed\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	if r.ShardDatagrams != nil {
		fmt.Fprintf(w, "  aggregator shard datagrams %v\n", r.ShardDatagrams)
	}
	for _, m := range allMetrics() {
		if v, ok := r.Metrics[m.name]; ok {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	cat := endToEndMetrics
	if r.Trace {
		cat = perLayerMetrics
	}
	out := map[string]metricValue{}
	for _, m := range cat {
		out[m.name] = metricValue{Value: r.Metrics[m.name], Unit: m.unit}
	}
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "perfbench-result %s\n", full)
	summary, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", summary)
	return w.Flush()
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
