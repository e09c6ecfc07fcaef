package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"switchml"
	"switchml/internal/transport"
)

// cluster is the two-peer UDP job: one aggregator and udpWorkers
// peers on loopback, all with the library's default settings.
type cluster struct {
	agg   *switchml.Aggregator
	peers []*switchml.Peer
	// sess[w] is worker w's Session (resnet50-step only).
	sess []*switchml.Session
	// debug addresses, set by serveDebug: aggregator first.
	debug []string
}

func openCluster(withSessions bool) (*cluster, error) {
	agg, err := switchml.ListenAggregator("127.0.0.1:0", switchml.AggregatorParams{Workers: udpWorkers})
	if err != nil {
		return nil, fmt.Errorf("listen aggregator: %w", err)
	}
	c := &cluster{agg: agg}
	for w := 0; w < udpWorkers; w++ {
		p, err := switchml.DialAggregator(agg.Addr(), switchml.PeerParams{ID: w, Workers: udpWorkers, Scale: gradScale})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("dial aggregator: %w", err)
		}
		c.peers = append(c.peers, p)
		if withSessions {
			s, err := switchml.NewSession(p, 0)
			if err != nil {
				c.close()
				return nil, fmt.Errorf("open session: %w", err)
			}
			c.sess = append(c.sess, s)
		}
	}
	return c, nil
}

func (c *cluster) close() {
	for _, s := range c.sess {
		s.Close()
	}
	for _, p := range c.peers {
		p.Close()
	}
	c.agg.Close()
}

// serveDebug starts the debug listeners of the aggregator and every
// peer, the only public window onto their transport counters.
func (c *cluster) serveDebug() error {
	addr, err := c.agg.ServeDebug("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("aggregator debug listener: %w", err)
	}
	c.debug = []string{addr}
	for _, p := range c.peers {
		addr, err := p.ServeDebug("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("peer debug listener: %w", err)
		}
		c.debug = append(c.debug, addr)
	}
	return nil
}

// udpState is one reading of /debug/state from every endpoint.
type udpState struct {
	agg     transport.AggDebugState
	clients []transport.ClientDebugState
	stats   switchml.AggregatorStats
}

func getJSON(addr string, v any) error {
	resp, err := http.Get("http://" + addr + "/debug/state")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s/debug/state: %s", addr, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *cluster) state() (udpState, error) {
	st := udpState{stats: c.agg.Stats(), clients: make([]transport.ClientDebugState, len(c.peers))}
	if err := getJSON(c.debug[0], &st.agg); err != nil {
		return st, err
	}
	for i := range c.peers {
		if err := getJSON(c.debug[1+i], &st.clients[i]); err != nil {
			return st, err
		}
	}
	return st, nil
}

// phase is the outcome of running a workload's op for a while.
type phase struct {
	ops, failed int
	// lat holds the op latencies: the slowest worker's step
	// (resnet50-step), each worker's call (small-tensor) or each
	// SimulateRack call (sim-loss).
	lat *latencyHist
	// rate collects the elements completed over the timed wall time.
	rate rateWindows
	errs []error
	use  usage
}

// merge adds q's ops and accounting to p.
func (p *phase) merge(q *phase) {
	p.ops += q.ops
	p.failed += q.failed
	if p.lat == nil {
		p.lat = newLatencyHist()
	}
	p.lat.merge(q.lat)
	p.rate.merge(q.rate)
	p.errs = append(p.errs, q.errs...)
	p.use = p.use.plus(q.use)
}

func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err)
	}
}

// runner drives one workload's op; it is implemented by the three
// workloads.
type runner interface {
	// open builds the program's side of the workload (bind, dial,
	// session) — the set-up the setup_s metric times.
	open() error
	// run executes ops until the deadline passes, or exactly count
	// ops when count > 0; selfTest additionally proves the output
	// check rejects a corrupted result.
	run(deadline time.Time, count int, tr *tracer, selfTest bool) *phase
	close()
}

// resnetStep is the resnet50-step workload.
type resnetStep struct {
	in     *resnetInputs
	c      *cluster
	nextOp int64
	// futs/outs[w] are worker w's per-step scratch.
	futs [][]*switchml.Future
	outs [][][]float32
}

func newResnetStep(seed int64) (*resnetStep, error) {
	in, err := makeResnetInputs(seed)
	if err != nil {
		return nil, err
	}
	r := &resnetStep{in: in}
	for w := 0; w < udpWorkers; w++ {
		r.futs = append(r.futs, make([]*switchml.Future, len(in.sizes)))
		r.outs = append(r.outs, make([][]float32, len(in.sizes)))
	}
	return r, nil
}

func (r *resnetStep) open() (err error) {
	r.c, err = openCluster(true)
	return err
}

func (r *resnetStep) close() { r.c.close() }

func (r *resnetStep) run(deadline time.Time, count int, tr *tracer, selfTest bool) *phase {
	p, p0 := &phase{lat: newLatencyHist()}, sampleProc()
	for count > 0 && p.ops < count || count == 0 && time.Now().Before(deadline) {
		op := r.nextOp
		r.nextOp++
		start := time.Now()
		ends := make([]time.Time, udpWorkers)
		errs := make([]error, udpWorkers)
		var wg sync.WaitGroup
		for w := 0; w < udpWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ends[w], errs[w] = r.worker(w, op, tr.lane(w), selfTest && p.ops == 0)
			}(w)
		}
		wg.Wait()
		slowest := ends[0]
		for _, e := range ends[1:] {
			if e.After(slowest) {
				slowest = e
			}
		}
		d := slowest.Sub(start)
		p.ops++
		p.rate.add(float64(r.in.elems), d)
		p.lat.add(d)
		for _, err := range errs {
			if err != nil {
				p.fail(err)
				break
			}
		}
	}
	p.use = usageBetween(p0, sampleProc())
	return p
}

// worker runs one step on worker w: submit every gradient back to
// front (ResNet's emission order), wait for all, then check each
// result bit for bit. It returns when the last result arrived.
func (r *resnetStep) worker(w int, op int64, l *lane, selfTest bool) (time.Time, error) {
	set := int(op % resnetSets)
	grads := r.in.grads[set][w]
	futs, outs := r.futs[w], r.outs[w]
	root := l.beginOp(spanStep, op, 2*len(grads))
	var firstErr error
	n := 0
	for t, g := range grads {
		sp := l.begin(spanSubmit, root, op)
		f, err := r.c.sess[w].SubmitFloat32(g)
		l.end(sp)
		if err != nil {
			firstErr = fmt.Errorf("submit tensor %d: %w", t, err)
			break
		}
		futs[t] = f
		n++
	}
	for t := 0; t < n; t++ {
		sp := l.begin(spanWait, root, op)
		out, err := futs[t].Wait()
		l.end(sp)
		outs[t] = out
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("tensor %d: %w", t, err)
		}
	}
	end := time.Now()
	l.end(root)
	if firstErr != nil {
		return end, fmt.Errorf("step %d worker %d: %w", op, w, firstErr)
	}
	want := r.in.want[set]
	for t := range outs {
		if err := checkFloat(outs[t], want[t]); err != nil {
			return end, fmt.Errorf("step %d worker %d tensor %d: %w", op, w, t, err)
		}
	}
	if selfTest {
		return end, selfTestFloat(outs[0], want[0])
	}
	return end, nil
}

// smallTensor is the small-tensor workload.
type smallTensor struct {
	in     *smallInputs
	c      *cluster
	nextOp int
}

func (s *smallTensor) open() (err error) {
	s.c, err = openCluster(false)
	return err
}

func (s *smallTensor) close() { s.c.close() }

// gate hands out op indices to the workers so both issue exactly the
// same calls: a worker that started an op the other never joins would
// block until its timeout.
type gate struct {
	mu      sync.Mutex
	started [udpWorkers]int
	stopAt  int
}

func (g *gate) next(w int) (int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.started[w] >= g.stopAt {
		return 0, false
	}
	i := g.started[w]
	g.started[w]++
	return i, true
}

// stop lets every worker finish the op the furthest one started.
func (g *gate) stop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.stopAt = 0
	for _, n := range g.started {
		if n > g.stopAt {
			g.stopAt = n
		}
	}
}

func (s *smallTensor) run(deadline time.Time, count int, tr *tracer, selfTest bool) *phase {
	g := &gate{stopAt: count}
	if count == 0 {
		g.stopAt = int(^uint(0) >> 1)
	}
	// Each worker records its call latencies and the ops it saw fail;
	// an op fails when either worker's call does.
	lats := make([]*latencyHist, udpWorkers)
	fails := make([]map[int]error, udpWorkers)
	done := make([]atomic.Int64, udpWorkers)
	base := s.nextOp
	p0 := sampleProc()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < udpWorkers; w++ {
		lats[w], fails[w] = newLatencyHist(), map[int]error{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := tr.lane(w)
			for {
				i, ok := g.next(w)
				if !ok {
					return
				}
				op := base + i
				set := op % smallSets
				root := l.beginOp(spanCall, int64(op), 1)
				t0 := time.Now()
				sp := l.begin(spanAllReduce, root, int64(op))
				out, err := s.c.peers[w].AllReduceInt32(s.in.vals[set][w])
				l.end(sp)
				lats[w].add(time.Since(t0))
				if err == nil {
					err = checkInt(out, s.in.want[set])
					if err == nil && selfTest && i == 0 {
						err = selfTestInt(out, s.in.want[set])
					}
				}
				l.end(root)
				if err != nil {
					fails[w][i] = fmt.Errorf("op %d worker %d: %w", op, w, err)
				}
				done[w].Add(1)
			}
		}(w)
	}
	// An op is done once both workers finished their call.
	doneOps := func() int64 {
		n := done[0].Load()
		for w := range done[1:] {
			n = min(n, done[w+1].Load())
		}
		return n
	}
	p := &phase{lat: newLatencyHist()}
	last, lastAt := int64(0), start
	for count == 0 && time.Now().Before(deadline) {
		next := lastAt.Add(rateWindow)
		if next.After(deadline) {
			next = deadline
		}
		time.Sleep(time.Until(next))
		n, at := doneOps(), time.Now()
		p.rate.add(float64((n-last)*smallElems), at.Sub(lastAt))
		last, lastAt = n, at
	}
	if count == 0 {
		g.stop()
	}
	wg.Wait()
	p.use = usageBetween(p0, sampleProc())
	p.rate.add(float64((doneOps()-last)*smallElems), time.Since(lastAt))
	p.ops = g.started[0]
	s.nextOp += p.ops
	failed := map[int]error{}
	for w := range lats {
		p.lat.merge(lats[w])
		for i, err := range fails[w] {
			if _, ok := failed[i]; !ok {
				failed[i] = err
			}
		}
	}
	for _, err := range failed {
		p.fail(err)
	}
	return p
}
