package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestCheckRejectsOneCorruptElement(t *testing.T) {
	in, err := makeResnetInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	want := in.want[0][3]
	got := append([]float32(nil), want...)
	if err := checkFloat(got, want); err != nil {
		t.Fatalf("exact result rejected: %v", err)
	}
	if err := selfTestFloat(got, want); err != nil {
		t.Fatal(err)
	}
	got[len(got)-1] = math.Nextafter32(got[len(got)-1], 1)
	if checkFloat(got, want) == nil {
		t.Fatal("float check accepted a result one ulp off")
	}

	small := makeSmallInputs(7)
	sum := append([]int32(nil), small.want[5]...)
	if err := selfTestInt(sum, small.want[5]); err != nil {
		t.Fatal(err)
	}
	sum[0]--
	if checkInt(sum, small.want[5]) == nil {
		t.Fatal("int check accepted a wrong sum")
	}
}

func TestInputsRepeatForASeed(t *testing.T) {
	a, b, c := makeSimInputs(3), makeSimInputs(3), makeSimInputs(4)
	if checkInt(a.tensor, b.tensor) != nil || a.seeds[0] != b.seeds[0] {
		t.Fatal("same seed gave different inputs")
	}
	if checkInt(a.tensor, c.tensor) == nil {
		t.Fatal("different seeds gave the same inputs")
	}
	for i, v := range a.tensor {
		if a.want[i] != v*simWorkers {
			t.Fatalf("want[%d] = %d, not %d workers x %d", i, a.want[i], simWorkers, v)
		}
	}
}

func TestResnetSchedule(t *testing.T) {
	sizes, err := resnetSizes()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, n := sizes[0], sizes[0], 0
	for _, s := range sizes {
		lo, hi, n = min(lo, s), max(hi, s), n+s
	}
	if len(sizes) != 18 || lo != 592 || hi != 365625 || n < 1_500_000 || n > 1_700_000 {
		t.Fatalf("schedule: %d tensors, sizes %d..%d, %d elements", len(sizes), lo, hi, n)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := median(xs[:4]); got != 2.5 {
		t.Fatalf("median of an even count = %v", got)
	}
	if xs[0] != 4 {
		t.Fatal("median reordered its input")
	}
}

func TestSelfTimeExcludesChildren(t *testing.T) {
	tr := newTracer(1, 16)
	l := tr.lane(0)
	l.spans = append(l.spans,
		span{name: spanStep, parent: -1, start: 0, end: 100},
		span{name: spanSubmit, parent: 0, start: 10, end: 20},
		span{name: spanWait, parent: 0, start: 15, end: 60},
		span{name: spanWait, parent: 0, start: 70, end: 80},
	)
	s := tr.summarize()
	if s.ops != 1 || s.rootNs != 100 || s.selfNs != 40 {
		t.Fatalf("ops %d root %v self %v, want 1 100 40", s.ops, s.rootNs, s.selfNs)
	}
}

func TestLaneDropsWholeOps(t *testing.T) {
	tr := newTracer(1, 5)
	l := tr.lane(0)
	for op := int64(0); op < 3; op++ {
		root := l.beginOp(spanCall, op, 1)
		l.end(l.begin(spanAllReduce, root, op))
		l.end(root)
	}
	if len(l.spans) != 4 || !l.full {
		t.Fatalf("%d spans recorded, full=%v; want two whole ops", len(l.spans), l.full)
	}
	var none *tracer
	if none.lane(0).beginOp(spanCall, 0, 1) != -1 {
		t.Fatal("nil tracer recorded a span")
	}
}

func TestReplayMatchesExactSums(t *testing.T) {
	in := makeSmallInputs(9)
	st, err := recordStream(in.vals[:4])
	if err != nil {
		t.Fatal(err)
	}
	per := chunks(smallElems)
	if len(st.updates) != 4*udpWorkers*per || st.nResult != 4*udpWorkers*per {
		t.Fatalf("%d updates, %d results; want %d each", len(st.updates), st.nResult, 4*udpWorkers*per)
	}
	if _, _, err := st.replayCodec(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.replayCore(); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	h := newLatencyHist()
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 0.5}, {0.9, 0.9}, {0.99, 0.99}} {
		if got := h.quantileMs(c.q); math.Abs(got-c.want)/c.want > 0.002 {
			t.Errorf("q%v = %v ms, want %v within 0.2%%", c.q, got, c.want)
		}
	}
	o := newLatencyHist()
	o.add(time.Hour) // beyond the last bucket: clamped, still counted
	h.merge(o)
	if h.n != 1001 || h.quantileMs(1) < 1e5 {
		t.Fatalf("merge: n %d, max %v ms", h.n, h.quantileMs(1))
	}
}

func TestRateWindowsMedian(t *testing.T) {
	var w rateWindows
	w.add(100, 500*time.Millisecond) // no window yet: overall rate
	if got := w.perSecond(); got != 200 {
		t.Fatalf("partial window rate %v, want 200", got)
	}
	w.add(100, 500*time.Millisecond) // closes window 1: 200/s
	w.add(1000, time.Second)         // window 2: 1000/s
	w.add(300, time.Second)          // window 3: 300/s
	if got := w.perSecond(); got != 300 {
		t.Fatalf("median window rate %v, want 300", got)
	}
	var all rateWindows
	all.merge(w)
	if all.perSecond() != 300 || all.elems != 1500 {
		t.Fatalf("merged: %v/s over %v elements", all.perSecond(), all.elems)
	}
}

// The catalog the program prints from and BENCHMARK.json must name the
// same metrics with the same units, in the same order.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec []struct{ Name, Unit string }
		cat  []metricDef
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, perLayerMetrics}} {
		if len(c.spec) != len(c.cat) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the catalog %d", len(c.spec), len(c.cat))
		}
		for i, m := range c.cat {
			if c.spec[i].Name != m.name || c.spec[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], catalog %s [%s]", i, c.spec[i].Name, c.spec[i].Unit, m.name, m.unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
