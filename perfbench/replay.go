package main

import (
	"fmt"
	"time"

	"switchml/internal/core"
	"switchml/internal/packet"
	"switchml/internal/quant"
)

// The replay harness pushes a UDP workload's own tensors and update
// stream through the exported functions of internal/quant,
// internal/packet and internal/core, with the workload's worker count,
// pool size and slot size, and times each layer alone. It runs only
// in the traced run, after the timed phases.

const replayReps = 7

// stream is one recorded run of the aggregation protocol over a
// sequence of rounds (one tensor per worker each).
type stream struct {
	rounds [][][]int32 // [round][worker]
	// updates in switch arrival order, and their wire encodings
	updates []*packet.Packet
	wire    [][]byte
	// results[w][round] are the results worker w consumed, in order
	results [][][]*packet.Packet
	nResult int
}

func newCore() (*core.Switch, []*core.Worker, error) {
	sw, err := core.NewSwitch(core.SwitchConfig{
		Workers: udpWorkers, PoolSize: udpPoolSize, SlotElems: udpSlotElems, LossRecovery: true,
	})
	if err != nil {
		return nil, nil, err
	}
	var ws []*core.Worker
	for w := 0; w < udpWorkers; w++ {
		wk, err := core.NewWorker(core.WorkerConfig{
			ID: uint16(w), Workers: udpWorkers, PoolSize: udpPoolSize, SlotElems: udpSlotElems, LossRecovery: true,
		})
		if err != nil {
			return nil, nil, err
		}
		ws = append(ws, wk)
	}
	return sw, ws, nil
}

// recordStream runs the protocol in memory, every update delivered in
// FIFO order, and records what crossed each layer boundary. It checks
// every worker's aggregate against the exact sum.
func recordStream(rounds [][][]int32) (*stream, error) {
	sw, ws, err := newCore()
	if err != nil {
		return nil, err
	}
	st := &stream{rounds: rounds, results: make([][][]*packet.Packet, len(ws))}
	var out packet.Packet
	for r, tensors := range rounds {
		var q []*packet.Packet
		for w := range ws {
			st.results[w] = append(st.results[w], nil)
			q = append(q, ws[w].Start(tensors[w])...)
		}
		done := 0
		for len(q) > 0 {
			p := q[0]
			q = q[1:]
			st.updates = append(st.updates, p.Clone())
			st.wire = append(st.wire, p.Marshal())
			resp := sw.HandleInto(p, &out)
			packet.PutPacket(p)
			if resp.Pkt == nil {
				continue
			}
			for w := range ws {
				if !resp.Multicast && int(resp.Pkt.WorkerID) != w {
					continue
				}
				st.results[w][r] = append(st.results[w][r], resp.Pkt.Clone())
				st.nResult++
				next, fin := ws[w].HandleResult(resp.Pkt)
				if next != nil {
					q = append(q, next)
				}
				if fin {
					done++
				}
			}
		}
		if done != len(ws) {
			return nil, fmt.Errorf("replay: round %d completed on %d of %d workers", r, done, len(ws))
		}
		want := make([]int32, len(tensors[0]))
		for _, t := range tensors {
			for i, v := range t {
				want[i] += v
			}
		}
		for w := range ws {
			if err := checkInt(ws[w].Aggregate(), want); err != nil {
				return nil, fmt.Errorf("replay: round %d worker %d: %w", r, w, err)
			}
		}
	}
	return st, nil
}

// medianNs runs f reps times and returns the median duration in ns.
func medianNs(reps int, f func() time.Duration) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		xs = append(xs, float64(f()))
	}
	return median(xs)
}

// replayCodec times packet.AppendMarshal and packet.UnmarshalInto over
// the stream's updates; ns per packet.
func (st *stream) replayCodec() (marshal, unmarshal float64, err error) {
	n := float64(len(st.updates))
	buf := make([]byte, 0, 2048)
	marshal = medianNs(replayReps, func() time.Duration {
		t0 := time.Now()
		for _, p := range st.updates {
			buf = p.AppendMarshal(buf[:0])
		}
		return time.Since(t0)
	}) / n
	var pk packet.Packet
	unmarshal = medianNs(replayReps, func() time.Duration {
		t0 := time.Now()
		for _, b := range st.wire {
			if e := packet.UnmarshalInto(&pk, b); e != nil && err == nil {
				err = fmt.Errorf("replay: unmarshal: %w", e)
			}
		}
		return time.Since(t0)
	}) / n
	return marshal, unmarshal, err
}

// replayCore times core.Switch.HandleInto over the recorded updates
// (ns per update) and core.Worker.Start/HandleResult over each
// worker's recorded results (ns per result), each on fresh state.
func (st *stream) replayCore() (switchNs, workerNs float64, err error) {
	var out packet.Packet
	switchNs = medianNs(replayReps, func() time.Duration {
		sw, _, e := newCore()
		if e != nil {
			err = e
			return 0
		}
		t0 := time.Now()
		for _, p := range st.updates {
			sw.HandleInto(p, &out)
		}
		return time.Since(t0)
	}) / float64(len(st.updates))
	workerNs = medianNs(replayReps, func() time.Duration {
		_, ws, e := newCore()
		if e != nil {
			err = e
			return 0
		}
		t0 := time.Now()
		for r, tensors := range st.rounds {
			for w, wk := range ws {
				for _, p := range wk.Start(tensors[w]) {
					packet.PutPacket(p)
				}
				for _, res := range st.results[w][r] {
					if next, _ := wk.HandleResult(res); next != nil {
						packet.PutPacket(next)
					}
				}
			}
		}
		return time.Since(t0)
	}) / float64(st.nResult)
	return switchNs, workerNs, err
}

// replayQuant times FixedPoint.Quantize over worker 0's gradients of
// one step and FixedPoint.Dequantize over that step's sums; ns per
// element.
func replayQuant(fp *quant.FixedPoint, grads [][]float32, sums [][]int32) (q, dq float64) {
	elems := 0
	qdst := make([][]int32, len(grads))
	fdst := make([][]float32, len(grads))
	for t, g := range grads {
		elems += len(g)
		qdst[t] = make([]int32, len(g))
		fdst[t] = make([]float32, len(g))
	}
	q = medianNs(replayReps, func() time.Duration {
		t0 := time.Now()
		for t, g := range grads {
			fp.Quantize(qdst[t], g)
		}
		return time.Since(t0)
	}) / float64(elems)
	dq = medianNs(replayReps, func() time.Duration {
		t0 := time.Now()
		for t, s := range sums {
			fp.Dequantize(fdst[t], s)
		}
		return time.Since(t0)
	}) / float64(elems)
	return q, dq
}
