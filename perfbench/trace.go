package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run records spans from the benchmark's own code around
// each call into a layer of the program: name, start, end, parent and
// op id. Each goroutine that issues calls owns one lane, so recording
// needs no synchronisation; lanes are preallocated and kept in memory
// until the run ends. A nil lane records nothing (the untraced runs).

type spanName uint8

const (
	spanStep      spanName = iota // resnet50-step: one worker's step
	spanSubmit                    // Session.SubmitFloat32
	spanWait                      // Future.Wait
	spanCall                      // small-tensor: one worker's op
	spanAllReduce                 // Peer.AllReduceInt32
	spanSim                       // sim-loss: one op
	spanSimulate                  // SimulateRack
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op.step", "session.submit", "session.wait",
	"op.call", "peer.allreduce_int32",
	"op.sim", "sim.simulate_rack",
}

type span struct {
	name       spanName
	parent     int32 // index in the lane, -1 for an op's root span
	op         int64
	start, end int64 // ns since the tracer's epoch
}

type lane struct {
	epoch time.Time
	spans []span
	// full is set once an op did not fit: later ops are not recorded,
	// so no op is ever recorded with some of its children missing.
	full bool
}

type tracer struct {
	lanes []*lane
}

func newTracer(lanes, perLane int) *tracer {
	t, epoch := &tracer{}, time.Now()
	for i := 0; i < lanes; i++ {
		t.lanes = append(t.lanes, &lane{epoch: epoch, spans: make([]span, 0, perLane)})
	}
	return t
}

// lane returns lane i, or nil (record nothing) on a nil tracer.
func (t *tracer) lane(i int) *lane {
	if t == nil {
		return nil
	}
	return t.lanes[i]
}

// beginOp opens an op's root span, reserving room for its children.
func (l *lane) beginOp(n spanName, op int64, children int) int32 {
	if l == nil || l.full {
		return -1
	}
	if cap(l.spans)-len(l.spans) < children+1 {
		l.full = true
		return -1
	}
	return l.push(n, -1, op)
}

// begin opens a child span of parent; it records nothing when the
// op's root was not recorded.
func (l *lane) begin(n spanName, parent int32, op int64) int32 {
	if l == nil || parent < 0 {
		return -1
	}
	return l.push(n, parent, op)
}

func (l *lane) push(n spanName, parent int32, op int64) int32 {
	l.spans = append(l.spans, span{name: n, parent: parent, op: op, start: int64(time.Since(l.epoch))})
	return int32(len(l.spans) - 1)
}

func (l *lane) end(i int32) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].end = int64(time.Since(l.epoch))
}

// traceSummary is what the per-layer metrics need from the spans.
type traceSummary struct {
	// durations in ns of every recorded span, by name
	durations [numSpanNames][]float64
	// ops is the number of recorded root spans; rootNs their total
	// duration and selfNs the part of it no child span covers.
	ops            int
	rootNs, selfNs float64
}

func (t *tracer) summarize() traceSummary {
	var s traceSummary
	for _, l := range t.lanes {
		children := map[int32][][2]int64{}
		for _, sp := range l.spans {
			s.durations[sp.name] = append(s.durations[sp.name], float64(sp.end-sp.start))
			if sp.parent >= 0 {
				children[sp.parent] = append(children[sp.parent], [2]int64{sp.start, sp.end})
			}
		}
		for i, sp := range l.spans {
			if sp.parent >= 0 {
				continue
			}
			dur := sp.end - sp.start
			s.ops++
			s.rootNs += float64(dur)
			s.selfNs += float64(dur - covered(children[int32(i)]))
		}
	}
	return s
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for li, l := range t.lanes {
		for _, sp := range l.spans {
			rec := struct {
				Name   string `json:"name"`
				Lane   int    `json:"lane"`
				Op     int64  `json:"op"`
				Parent int32  `json:"parent"`
				Start  int64  `json:"start_ns"`
				End    int64  `json:"end_ns"`
			}{spanNames[sp.name], li, sp.op, sp.parent, sp.start, sp.end}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
