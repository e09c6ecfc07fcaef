package main

import (
	"fmt"
	"math/rand"

	"switchml/internal/ml"
	"switchml/internal/quant"
)

// Shape of the two-peer UDP job: the library's default pool and slot
// size, two workers in one process.
const (
	udpWorkers   = 2
	udpPoolSize  = 64
	udpSlotElems = 32

	// resnetShrink scales ResNet-50's gradient schedule down so one
	// step stays near 1.6 M elements.
	resnetShrink = 16
	// gradSigma is the standard deviation of the seeded gradients.
	gradSigma = 0.01
	// gradScale is the fixed-point factor (PeerParams.Scale): 2^20
	// resolves 1e-6 and keeps two workers' sums of |g| < 1 far from
	// saturation.
	gradScale = 1 << 20
	// resnetSets distinct input steps rotate, so a stale result from
	// the previous step cannot pass the check.
	resnetSets = 2

	smallElems = 256
	smallSets  = 64

	simWorkers = 8
	simElems   = 256 << 10
	// simSeeds distinct SimParams.Seed values rotate; the virtual
	// metrics are taken over exactly one rotation, so they are exact
	// for a given seed argument whatever the wall-clock speed.
	simSeeds = 32
)

// resnetSizes is ResNet-50's gradient schedule (internal/ml, emission
// order: output side first) scaled by 1/resnetShrink.
func resnetSizes() ([]int, error) {
	spec, err := ml.ByName("resnet50")
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(spec.GradTensors))
	for i, n := range spec.GradTensors {
		sizes[i] = n / resnetShrink
	}
	return sizes, nil
}

// resnetInputs are the generated gradients of every step set and the
// expected per-tensor results.
type resnetInputs struct {
	sizes []int
	elems int
	// grads[set][worker][tensor]
	grads [][][][]float32
	// want[set][tensor] is Dequantize(Σ_w Quantize(grads[set][w][t])),
	// the bit-exact result every worker must receive.
	want [][][]float32
	// quantized[set][worker][tensor] feeds the replay harness.
	quantized [][][][]int32
	fp        *quant.FixedPoint
}

func makeResnetInputs(seed int64) (*resnetInputs, error) {
	sizes, err := resnetSizes()
	if err != nil {
		return nil, err
	}
	fp, err := quant.NewFixedPoint(gradScale)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &resnetInputs{sizes: sizes, fp: fp}
	for _, n := range sizes {
		in.elems += n
	}
	for s := 0; s < resnetSets; s++ {
		var gs [][][]float32
		var qs [][][]int32
		for w := 0; w < udpWorkers; w++ {
			var gw [][]float32
			var qw [][]int32
			for _, n := range sizes {
				g := make([]float32, n)
				for i := range g {
					g[i] = float32(rng.NormFloat64() * gradSigma)
				}
				q := make([]int32, n)
				if sat := fp.Quantize(q, g); sat > 0 {
					return nil, fmt.Errorf("inputs: %d gradients saturate at scale %v", sat, float64(gradScale))
				}
				gw = append(gw, g)
				qw = append(qw, q)
			}
			gs = append(gs, gw)
			qs = append(qs, qw)
		}
		want := make([][]float32, len(sizes))
		for t, n := range sizes {
			acc := make([]int32, n)
			for w := 0; w < udpWorkers; w++ {
				for i, v := range qs[w][t] {
					acc[i] += v
				}
			}
			want[t] = make([]float32, n)
			fp.Dequantize(want[t], acc)
		}
		in.grads = append(in.grads, gs)
		in.quantized = append(in.quantized, qs)
		in.want = append(in.want, want)
	}
	return in, nil
}

// smallInputs are the int32 tensors of the small-tensor workload and
// their exact sums.
type smallInputs struct {
	// vals[set][worker], want[set]
	vals [][][]int32
	want [][]int32
}

func makeSmallInputs(seed int64) *smallInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &smallInputs{}
	for s := 0; s < smallSets; s++ {
		var vs [][]int32
		want := make([]int32, smallElems)
		for w := 0; w < udpWorkers; w++ {
			v := make([]int32, smallElems)
			for i := range v {
				v[i] = int32(rng.Intn(1<<24)) - 1<<23
				want[i] += v[i]
			}
			vs = append(vs, v)
		}
		in.vals = append(in.vals, vs)
		in.want = append(in.want, want)
	}
	return in
}

// simInputs are the sim-loss tensor (identical on every worker, as
// SimulateRack requires), its expected aggregate and the rotation of
// simulator seeds.
type simInputs struct {
	tensor []int32
	want   []int32
	seeds  []int64
}

func makeSimInputs(seed int64) *simInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &simInputs{tensor: make([]int32, simElems), want: make([]int32, simElems)}
	for i := range in.tensor {
		in.tensor[i] = int32(rng.Intn(1<<24)) - 1<<23
		in.want[i] = in.tensor[i] * simWorkers
	}
	for i := 0; i < simSeeds; i++ {
		in.seeds = append(in.seeds, rng.Int63())
	}
	return in
}
