package switchml

import (
	"fmt"
	"sync"
	"time"

	"switchml/internal/core"
	"switchml/internal/packet"
	"switchml/internal/quant"
	"switchml/internal/transport"
)

// This file implements the multi-core worker of the paper's
// Appendix B over UDP: "we use multiple CPU cores ... Every CPU core
// runs an I/O loop that processes every batch of packets in a
// run-to-completion fashion and uses a disjoint set of aggregation
// slots ... we partition the tensor into as many contiguous memory
// regions as the number of cores", with Flow Director steering each
// core's traffic to its own queue. Here each shard owns a socket, a
// worker state machine, and a disjoint aggregator pool (a job id per
// shard, admitted with Aggregator.AdmitJob), which is the same
// no-shared-state property.

// ShardedPeer is a multi-core worker endpoint: the tensor is
// partitioned into contiguous regions, each streamed by its own
// socket and state machine to its own aggregator pool, concurrently.
type ShardedPeer struct {
	peers []*transport.Client
	scale *quant.FixedPoint
}

// ShardedPeerParams configures DialSharded.
type ShardedPeerParams struct {
	// ID is this worker's rank.
	ID int
	// Workers is n.
	Workers int
	// Shards is the core count; each shard gets its own socket,
	// worker state machine and pool. Zero selects 4 (§5.1).
	Shards int
	// JobBase is the first shard's job id; shard s uses JobBase+s.
	// The aggregator must serve every one of those jobs.
	JobBase uint16
	// PoolSize is s per shard (default 64).
	PoolSize int
	// SlotElems is k (default 32).
	SlotElems int
	// Scale enables float32 all-reduce.
	Scale float64
	// RTO and Timeout as in PeerParams.
	RTO     time.Duration
	Timeout time.Duration
}

// DialSharded connects a multi-core worker to an Aggregator serving
// jobs JobBase..JobBase+Shards-1.
func DialSharded(addr string, params ShardedPeerParams) (*ShardedPeer, error) {
	if params.Shards == 0 {
		params.Shards = 4
	}
	if params.Shards < 0 {
		return nil, fmt.Errorf("switchml: shard count must be positive, got %d", params.Shards)
	}
	poolSize, slotElems := params.PoolSize, params.SlotElems
	if poolSize == 0 {
		poolSize = 64
	}
	if slotElems == 0 {
		slotElems = packet.DefaultElems
	}
	sp := &ShardedPeer{}
	if params.Scale != 0 {
		fx, err := quant.NewFixedPoint(params.Scale)
		if err != nil {
			return nil, err
		}
		sp.scale = fx
	}
	for s := 0; s < params.Shards; s++ {
		c, err := transport.NewClient(transport.ClientConfig{
			Aggregator: addr,
			Worker: core.WorkerConfig{
				ID:           uint16(params.ID),
				Workers:      params.Workers,
				PoolSize:     poolSize,
				SlotElems:    slotElems,
				LossRecovery: true,
				JobID:        params.JobBase + uint16(s),
			},
			RTO:     params.RTO,
			Timeout: params.Timeout,
		})
		if err != nil {
			sp.Close()
			return nil, err
		}
		sp.peers = append(sp.peers, c)
	}
	return sp, nil
}

// Close releases all shard sockets.
func (sp *ShardedPeer) Close() error {
	var first error
	for _, p := range sp.peers {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shards returns the shard count.
func (sp *ShardedPeer) Shards() int { return len(sp.peers) }

// AllReduceInt32 sums u across all workers, splitting the tensor into
// contiguous per-shard regions aggregated concurrently.
func (sp *ShardedPeer) AllReduceInt32(u []int32) ([]int32, error) {
	if len(u) == 0 {
		return nil, nil
	}
	out := make([]int32, len(u))
	shards := len(sp.peers)
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for s := 0; s < shards; s++ {
		lo, hi := s*len(u)/shards, (s+1)*len(u)/shards
		if lo == hi {
			continue
		}
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sp.peers[s].AllReduceInt32(u[lo:hi])
			if err != nil {
				errs[s] = fmt.Errorf("switchml: shard %d: %w", s, err)
				return
			}
			copy(out[lo:hi], res)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AllReduceFloat32 sums u across all workers via fixed-point
// quantization (requires Scale).
func (sp *ShardedPeer) AllReduceFloat32(u []float32) ([]float32, error) {
	if sp.scale == nil {
		return nil, errNoScale
	}
	q := make([]int32, len(u))
	if sat := sp.scale.Quantize(q, u); sat > 0 {
		return nil, fmt.Errorf("switchml: %d elements saturated during quantization; lower the scale (see MaxSafeScale)", sat)
	}
	sum, err := sp.AllReduceInt32(q)
	if err != nil {
		return nil, err
	}
	out := make([]float32, len(u))
	sp.scale.Dequantize(out, sum)
	return out, nil
}

var _ Collective = (*ShardedPeer)(nil)
