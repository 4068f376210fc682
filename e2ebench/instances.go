package main

import (
	"fmt"
	"math"

	"repro/histtest/client"
	"repro/internal/benchhot"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/histdp"
	"repro/internal/intervals"
	"repro/internal/lowerbound"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// instance is one one-sample tester input with certified ground truth:
// a yes-instance is an exact k-histogram, a far instance carries a
// certified lower bound on its TV distance to H_k that is at least ε.
type instance struct {
	name  string
	d     *dist.PiecewiseConstant
	k     int
	eps   float64
	far   bool    // ground truth: reject
	bound float64 // far instances: the certified distance lower bound
	// adkDefect marks the documented ADK false reject (see README): a
	// wrong verdict of the adk engine on this instance is counted in
	// wrong_verdicts but is expected at this commit.
	adkDefect bool
}

// spec renders the instance as the wire HistogramSpec histd samples from.
func (in *instance) spec() *client.HistogramSpec {
	pieces := in.d.Pieces()
	s := &client.HistogramSpec{N: in.d.N(), Masses: make([]float64, len(pieces))}
	for j, p := range pieces {
		if j > 0 {
			s.Cuts = append(s.Cuts, p.Iv.Lo)
		}
		s.Masses[j] = p.Mass
	}
	return s
}

// sampler builds the alias-table prototype exactly as histd does for a
// wire spec, so forks of it reproduce served draws bit for bit.
func samplerOf(s *client.HistogramSpec) (*oracle.Sampler, error) {
	p := intervals.FromBoundaries(s.N, s.Cuts)
	total := 0.0
	for _, m := range s.Masses {
		total += m
	}
	norm := make([]float64, len(s.Masses))
	for i, m := range s.Masses {
		norm[i] = m / total
	}
	pc, err := dist.FromWeights(p, norm)
	if err != nil {
		return nil, err
	}
	return oracle.NewSampler(pc, rng.New(0)), nil
}

// certify checks the instance's ground truth and fails set-up when it
// does not hold.
func (in *instance) certify() error {
	if !in.far {
		if in.d.PieceCount() > in.k {
			return fmt.Errorf("%s: yes-instance has %d pieces > k = %d", in.name, in.d.PieceCount(), in.k)
		}
		return nil
	}
	if in.bound < in.eps {
		return fmt.Errorf("%s: certified distance %.4f < eps %.4f", in.name, in.bound, in.eps)
	}
	return nil
}

func piecewise(n int, cuts []int, masses []float64) *dist.PiecewiseConstant {
	d, err := dist.FromWeights(intervals.FromBoundaries(n, cuts), masses)
	if err != nil {
		panic(err) // constant inputs: only a bug gets here
	}
	return d
}

// verdictInstances are the four one-sample instances of the verdict
// workload. The Paninski member is drawn from the workload seed; the
// others are fixed.
func verdictInstances(seed uint64) ([]*instance, error) {
	far := gen.FarFromHk(rng.New(3), 10_000, 2, 0.9, 32)
	farLB, _, err := histdp.DistanceToHk(far, 2, intervals.FullDomain(far.N()))
	if err != nil {
		return nil, err
	}
	const panEps, panC = 1.0 / 6, 6
	pan, err := lowerbound.Paninski(rng.New(seed), 4096, panEps, panC)
	if err != nil {
		return nil, err
	}
	ins := []*instance{
		{name: "eight", d: benchhot.EightHistogram(100_000), k: 8, eps: 0.8},
		{name: "prefix", d: piecewise(1000, []int{250}, []float64{1, 0}), k: 4, eps: 0.5, adkDefect: true},
		{name: "far", d: far, k: 2, eps: 0.3, far: true, bound: farLB},
		{name: "paninski", d: pan.ToPiecewiseConstant(), k: 4, eps: panEps, far: true, bound: lowerbound.PaninskiDistanceLB(panEps, panC)},
	}
	for _, in := range ins {
		if err := in.certify(); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// quad is the well-separated 4-histogram over [0, 1000) behind the
// dataset and stream workloads; quadFar shifts its masses so that the
// pair is 0.4 apart in TV (exact, both are piecewise constant on the
// same cuts).
var (
	quadCuts   = []int{250, 500, 750}
	quadMasses = []float64{0.4, 0.1, 0.3, 0.2}
	quadFarM   = []float64{0.1, 0.4, 0.2, 0.3}
)

// tv returns the exact TV distance between two distributions that are
// piecewise constant on the same cuts.
func tv(a, b []float64, n int, cuts []int) float64 {
	da, db := piecewise(n, cuts, a), piecewise(n, cuts, b)
	s := 0.0
	for _, iv := range da.Partition().Intervals() {
		s += math.Abs(da.IntervalMass(iv) - db.IntervalMass(iv))
	}
	return s / 2
}
