package main

import (
	"fmt"
	"time"

	"switchml"
)

// simLoss is the sim-loss workload: sequential SimulateRack calls on
// one goroutine.
type simLoss struct {
	in     *simInputs
	nextOp int
	// perSeed holds the result (aggregate dropped) of the first call
	// with each simulator seed of the rotation.
	perSeed map[int]switchml.SimResult
}

func (s *simLoss) params(op int) switchml.SimParams {
	return switchml.SimParams{
		Workers:  simWorkers,
		LinkGbps: 10,
		LossRate: 0.01,
		RTO:      time.Millisecond,
		Seed:     s.in.seeds[op%simSeeds],
	}
}

// The simulator has no connection to set up; its set-up is the first
// call itself.
func (s *simLoss) open() error { return nil }
func (s *simLoss) close()      {}

func (s *simLoss) run(deadline time.Time, count int, tr *tracer, selfTest bool) *phase {
	l := tr.lane(0)
	p, p0 := &phase{lat: newLatencyHist()}, sampleProc()
	for count > 0 && p.ops < count || count == 0 && time.Now().Before(deadline) {
		op := s.nextOp
		s.nextOp++
		root := l.beginOp(spanSim, int64(op), 1)
		t0 := time.Now()
		sp := l.begin(spanSimulate, root, int64(op))
		res, err := switchml.SimulateRack(s.params(op), s.in.tensor)
		l.end(sp)
		d := time.Since(t0)
		if err == nil {
			err = checkInt(res.Aggregate, s.in.want)
			if err == nil && selfTest && p.ops == 0 {
				err = selfTestInt(res.Aggregate, s.in.want)
			}
		}
		l.end(root)
		p.ops++
		p.rate.add(simElems, d)
		p.lat.add(d)
		if err != nil {
			p.fail(fmt.Errorf("op %d (sim seed %d): %w", op, s.params(op).Seed, err))
			continue
		}
		// The virtual metrics cover one rotation of simulator seeds,
		// each taken from the first op that runs it, so they are exact
		// for the benchmark's seed argument.
		if _, ok := s.perSeed[op%simSeeds]; !ok {
			res.Aggregate = nil
			s.perSeed[op%simSeeds] = res
		}
	}
	p.use = usageBetween(p0, sampleProc())
	return p
}
