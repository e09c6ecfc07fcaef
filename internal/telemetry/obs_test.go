package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestQuantileEdges is the table-driven pin on the estimator's
// boundary behavior: empty histograms, q outside [0,1], NaN, and
// all-overflow distributions must all return defined values.
func TestQuantileEdges(t *testing.T) {
	nan := func() float64 { var z float64; return z / z }
	filled := func(vals ...float64) HistogramSnapshot {
		h := NewHistogram([]float64{10, 20, 40})
		for _, v := range vals {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	cases := []struct {
		name string
		s    HistogramSnapshot
		q    float64
		want float64
	}{
		{"empty", filled(), 0.5, 0},
		{"zero-value histogram", HistogramSnapshot{Count: 3, Sum: 30}, 0.5, 0},
		{"q below zero clamps to first occupied lower bound", filled(5, 5, 5), -1, 0},
		{"q zero is first occupied lower bound", filled(15, 15), 0, 10},
		{"q above one clamps to max", filled(5, 15, 35), 2, 40},
		{"q NaN reads as zero", filled(15, 15), nan(), 10},
		{"all overflow returns highest finite bound", filled(100, 200, 300), 0.5, 40},
		{"all overflow at q=1", filled(100), 1, 40},
		{"median interpolates", filled(5, 5, 5, 5), 0.5, 5},
		{"single bucket q=1 hits upper bound", filled(5, 5), 1, 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.s.Quantile(c.q); got != c.want {
				t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
			}
		})
	}
	// Interior sanity: the q=0.5 estimate of a two-bucket split lands
	// inside the histogram's range.
	s := filled(5, 15, 15, 35)
	if q := s.Quantile(0.5); q <= 0 || q > 40 {
		t.Errorf("interior median %v outside (0, 40]", q)
	}
}

// TestPrometheusGolden pins the exposition format byte-for-byte:
// sorted TYPE-grouped families, label-ordered series, cumulative
// histogram buckets.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rx_total", "worker", "0").Add(7)
	reg.Counter("rx_total", "worker", "1").Add(9)
	reg.Gauge("up").Set(1)
	h := reg.Histogram("rtt_ns", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE rtt_ns histogram
rtt_ns_bucket{le="10"} 1
rtt_ns_bucket{le="100"} 2
rtt_ns_bucket{le="+Inf"} 3
rtt_ns_sum 555
rtt_ns_count 3
# TYPE rx_total counter
rx_total{worker="0"} 7
rx_total{worker="1"} 9
# TYPE up gauge
up 1
`
	if b.String() != want {
		t.Errorf("WritePrometheus:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestSamplerSeries drives the sampler on a synthetic clock and
// checks rates, gauges, quantiles and probes land in the rings with
// the ring bound honored.
func TestSamplerSeries(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("pkts_total")
	g := reg.Gauge("inflight")
	h := reg.Histogram("rtt_ns", []float64{100, 1000})
	s := NewSampler(reg, SamplerConfig{Capacity: 4, Quantiles: []float64{0.5}})
	probeVal := 0.0
	s.AddProbe("occupancy", func() float64 { return probeVal })

	sec := int64(time.Second)
	g.Set(3)
	s.Sample(0) // prime
	c.Add(100)
	h.Observe(500)
	h.Observe(500)
	probeVal = 0.75
	s.Sample(1 * sec)

	d := s.Dump()
	rate := d["pkts_total:rate"]
	if rate.Kind != "rate" || len(rate.Points) != 1 {
		t.Fatalf("rate series = %+v, want 1 point", rate)
	}
	if rate.Points[0].V != 100 {
		t.Errorf("rate = %v pkts/s, want 100", rate.Points[0].V)
	}
	gauge := d["inflight"]
	if gauge.Kind != "gauge" || len(gauge.Points) != 2 || gauge.Points[1].V != 3 {
		t.Errorf("gauge series = %+v, want 2 points of 3", gauge)
	}
	p50 := d["rtt_ns:p50"]
	if p50.Kind != "quantile" || len(p50.Points) != 1 {
		t.Fatalf("quantile series = %+v, want 1 point", p50)
	}
	if v := p50.Points[0].V; v <= 100 || v > 1000 {
		t.Errorf("interval p50 = %v, want within (100, 1000]", v)
	}
	probe := d["occupancy"]
	if probe.Kind != "probe" || len(probe.Points) != 2 || probe.Points[1].V != 0.75 {
		t.Errorf("probe series = %+v, want second point 0.75", probe)
	}

	// Overflow the ring: capacity 4, so only the last 4 samples stay,
	// timestamps strictly increasing.
	for i := int64(2); i <= 10; i++ {
		s.Sample(i * sec)
	}
	pts := s.Dump()["inflight"].Points
	if len(pts) != 4 {
		t.Fatalf("ring kept %d points, want 4", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TS <= pts[i-1].TS {
			t.Fatalf("series timestamps not increasing: %v", pts)
		}
	}
	if pts[3].TS != 10*sec {
		t.Errorf("newest point at %d, want %d", pts[3].TS, 10*sec)
	}
}

// TestSamplerStartStop exercises the wall-clock ticker mode.
func TestSamplerStartStop(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("up").Set(1)
	s := NewSampler(reg, SamplerConfig{Capacity: 16})
	stop := s.Start(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if pts := s.Dump()["up"].Points; len(pts) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sampler never produced two points")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	n := len(s.Dump()["up"].Points)
	time.Sleep(5 * time.Millisecond)
	if m := len(s.Dump()["up"].Points); m != n {
		t.Errorf("sampler still running after stop: %d -> %d points", n, m)
	}
}

// TestSamplerPushZeroAlloc pins the per-sample ring write: pushing
// into an existing series must not allocate, the guarantee that keeps
// long-running sampling from churning the heap.
func TestSamplerPushZeroAlloc(t *testing.T) {
	rs := newRingSeries("gauge", 128)
	ts := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		ts++
		rs.push(ts, float64(ts))
	}); n != 0 {
		t.Errorf("ringSeries.push allocates %v per run, want 0", n)
	}
}

// TestFlightRecorderEmitZeroAlloc pins the recorder's passive path: a
// non-trigger event must record without allocating, since the
// recorder sits on the same fanout as packet-level traces.
func TestFlightRecorderEmitZeroAlloc(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 256})
	e := Ev(EvPacketSent, 1)
	if n := testing.AllocsPerRun(1000, func() { fr.Emit(e) }); n != 0 {
		t.Errorf("FlightRecorder.Emit allocates %v per run, want 0", n)
	}
}

// TestFlightRecorderTrigger checks an EvDegrade auto-dumps a schema-
// complete incident file with the trigger, pre/post metrics and deep
// state embedded.
func TestFlightRecorderTrigger(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	c := reg.Counter("pkts_total")
	c.Add(10)
	fr := NewFlightRecorder(FlightConfig{
		Capacity: 8,
		Dir:      dir,
		Registry: reg,
	})
	fr.SetState(func() any { return map[string]int{"busy": 3} })

	fr.Emit(Ev(EvPacketSent, 1))
	c.Add(5)
	deg := Ev(EvDegrade, 2)
	deg.Worker = 1
	fr.Emit(deg)

	dumped, err := fr.Dumped()
	if err != nil {
		t.Fatal(err)
	}
	if dumped != 1 {
		t.Fatalf("dumped = %d, want 1", dumped)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if len(files) != 1 {
		t.Fatalf("incident files = %v, want one", files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var inc Incident
	if err := json.Unmarshal(data, &inc); err != nil {
		t.Fatalf("incident not valid JSON: %v", err)
	}
	if inc.Schema != IncidentSchema {
		t.Errorf("schema = %q, want %q", inc.Schema, IncidentSchema)
	}
	if inc.Reason != "Degrade" || inc.Trigger == nil || inc.Trigger.Type != "Degrade" {
		t.Errorf("trigger = %+v reason %q, want Degrade", inc.Trigger, inc.Reason)
	}
	if len(inc.Events) != 2 {
		t.Errorf("events = %d, want 2", len(inc.Events))
	}
	if inc.Pre == nil || inc.Metrics == nil || inc.Delta == nil {
		t.Fatalf("metrics sections missing: pre=%v metrics=%v delta=%v",
			inc.Pre != nil, inc.Metrics != nil, inc.Delta != nil)
	}
	if inc.Delta.Counters["pkts_total"] != 5 {
		t.Errorf("delta pkts_total = %d, want 5", inc.Delta.Counters["pkts_total"])
	}
	if inc.Metrics.Counters["pkts_total"] != 15 {
		t.Errorf("metrics pkts_total = %d, want 15", inc.Metrics.Counters["pkts_total"])
	}
	if inc.State == nil {
		t.Error("deep state missing")
	}
}

// TestFlightRecorderDebounce checks the dump-storm guard: triggers
// inside the debounce window are recorded but not dumped.
func TestFlightRecorderDebounce(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(FlightConfig{
		Capacity: 8,
		Dir:      dir,
		Debounce: 100 * time.Millisecond,
	})
	fr.Emit(Ev(EvDegrade, 0))
	fr.Emit(Ev(EvFailback, int64(50*time.Millisecond))) // inside window
	fr.Emit(Ev(EvDegrade, int64(200*time.Millisecond))) // outside
	if dumped, _ := fr.Dumped(); dumped != 2 {
		t.Errorf("dumped = %d, want 2 (middle trigger debounced)", dumped)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if len(files) != 2 {
		t.Errorf("incident files = %v, want two", files)
	}
}

// TestFlightRecorderPathMode checks exact-path mode overwrites one
// file, the shape scripted experiments consume.
func TestFlightRecorderPathMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "incident.json")
	fr := NewFlightRecorder(FlightConfig{Capacity: 8, Path: path})
	fr.Emit(Ev(EvDegrade, 1))
	fr.Emit(Ev(EvFailback, 2))
	fr.Dumped() // wait for the queued writes
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var inc Incident
	if err := json.Unmarshal(data, &inc); err != nil {
		t.Fatal(err)
	}
	if inc.Reason != "Failback" {
		t.Errorf("last incident reason = %q, want Failback (overwrite)", inc.Reason)
	}
	if inc.Seq != 1 {
		t.Errorf("seq = %d, want 1", inc.Seq)
	}
}

// TestDebugMuxOpts exercises the full endpoint catalog over HTTP.
func TestDebugMuxOpts(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pkts_total").Add(4)
	smp := NewSampler(reg, SamplerConfig{Capacity: 8})
	smp.Sample(0)
	smp.Sample(int64(time.Second))
	dir := t.TempDir()
	fr := NewFlightRecorder(FlightConfig{Capacity: 8, Dir: dir, Registry: reg})
	fr.Emit(Ev(EvPacketSent, 1))
	mux := NewDebugMuxOpts(DebugOptions{
		Registry: reg,
		Sampler:  smp,
		Recorder: fr,
		State:    func() any { return map[string]string{"role": "test"} },
		Extra: map[string]http.HandlerFunc{
			"/debug/extra": func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) },
		},
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, b.String())
		}
		return b.String()
	}

	if body := get("/metrics"); !strings.Contains(body, "# TYPE pkts_total counter") {
		t.Errorf("/metrics missing TYPE line:\n%s", body)
	}
	var series map[string]SeriesData
	if err := json.Unmarshal([]byte(get("/debug/series")), &series); err != nil {
		t.Fatalf("/debug/series not JSON: %v", err)
	}
	if _, ok := series["pkts_total:rate"]; !ok {
		t.Errorf("/debug/series missing rate series: %v", series)
	}
	var inc Incident
	if err := json.Unmarshal([]byte(get("/debug/flightrecorder")), &inc); err != nil {
		t.Fatalf("/debug/flightrecorder not JSON: %v", err)
	}
	if inc.Schema != IncidentSchema || len(inc.Events) != 1 {
		t.Errorf("flightrecorder incident = %+v", inc)
	}
	var dump map[string]string
	if err := json.Unmarshal([]byte(get("/debug/flightrecorder?dump=1")), &dump); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dump["path"]); err != nil {
		t.Errorf("on-demand dump file: %v", err)
	}
	var state map[string]string
	if err := json.Unmarshal([]byte(get("/debug/state")), &state); err != nil || state["role"] != "test" {
		t.Errorf("/debug/state = %v (%v)", state, err)
	}
	if get("/debug/extra") != "ok" {
		t.Error("/debug/extra not mounted")
	}
}
