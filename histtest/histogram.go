package histtest

import (
	"fmt"
	"sync"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/histbuild"
	"repro/internal/histdp"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// Histogram is a public handle on a piecewise-constant distribution over
// [0, n): k buckets, each spreading its probability mass uniformly over a
// contiguous interval. It is both a workload generator for the tester and
// the sketch type produced by the histogram constructions.
type Histogram struct {
	pc *dist.PiecewiseConstant

	// samplerOnce guards proto, the lazily built alias-table prototype
	// shared (immutably) by every Sampler fork of this histogram.
	samplerOnce sync.Once
	proto       *oracle.Sampler
}

// NewHistogram builds a histogram over [0, n) with buckets delimited by
// the interior cut points (ascending, in (0, n)) and the given bucket
// masses (len(masses) == len(cuts)+1; masses are normalized to sum to 1).
func NewHistogram(n int, cuts []int, masses []float64) (*Histogram, error) {
	if n < 1 {
		return nil, fmt.Errorf("histtest: domain size %d must be positive", n)
	}
	p := intervals.FromBoundaries(n, cuts)
	if p.Count() != len(masses) {
		return nil, fmt.Errorf("histtest: %d masses for %d buckets", len(masses), p.Count())
	}
	total := 0.0
	for _, m := range masses {
		if m < 0 {
			return nil, fmt.Errorf("histtest: negative bucket mass %v", m)
		}
		total += m
	}
	if total <= 0 {
		return nil, fmt.Errorf("histtest: zero total mass")
	}
	norm := make([]float64, len(masses))
	for i, m := range masses {
		norm[i] = m / total
	}
	pc, err := dist.FromWeights(p, norm)
	if err != nil {
		return nil, err
	}
	return &Histogram{pc: pc}, nil
}

// Uniform returns the uniform histogram over [0, n) (one bucket).
func Uniform(n int) *Histogram { return &Histogram{pc: dist.Uniform(n)} }

// Random returns a uniformly random k-histogram over [0, n): k−1 distinct
// breakpoints and Dirichlet bucket masses, with exactly k distinct levels.
// Deterministic in seed — handy for writing reproducible benchmarks and
// demos against the tester.
func Random(n, k int, seed uint64) (*Histogram, error) {
	if k < 1 || k > n {
		return nil, fmt.Errorf("histtest: k = %d out of [1, %d]", k, n)
	}
	return &Histogram{pc: gen.KHistogram(rng.New(seed), n, k)}, nil
}

// N returns the domain size.
func (h *Histogram) N() int { return h.pc.N() }

// Buckets returns the number of buckets in the representation.
func (h *Histogram) Buckets() int { return h.pc.PieceCount() }

// Complexity returns the smallest k for which the histogram is a
// k-histogram (merging equal adjacent levels).
func (h *Histogram) Complexity() int { return histdp.HistogramComplexity(h.pc) }

// Prob returns the probability of element i.
func (h *Histogram) Prob(i int) float64 { return h.pc.Prob(i) }

// Selectivity returns the probability mass of the value range [lo, hi) —
// the range-query selectivity estimate when the histogram is used as a
// database sketch.
func (h *Histogram) Selectivity(lo, hi int) float64 {
	return histbuild.Selectivity(h.pc, lo, hi)
}

// Mean returns the expected element index under h.
func (h *Histogram) Mean() float64 { return dist.Mean(h.pc) }

// Quantile returns the smallest element i with CDF(i) >= q, q in [0, 1].
func (h *Histogram) Quantile(q float64) int { return dist.Quantile(h.pc, q) }

// Entropy returns the Shannon entropy of h in bits.
func (h *Histogram) Entropy() float64 { return dist.Entropy(h.pc) }

// Modality returns the number of monotone "modes" of h's pmf (see the
// paper's remark that the Theorem 1.2 lower bound extends to k-modal
// distributions).
func (h *Histogram) Modality() int { return dist.Modality(h.pc) }

// Sampler returns a deterministic sample source drawing i.i.d. from h.
// The alias tables are built once per Histogram and shared immutably
// across all returned sources (each fork draws from its own seeded RNG,
// so distinct sources remain independent and reproducible — the draw
// stream per seed is identical to a freshly built sampler's).
func (h *Histogram) Sampler(seed uint64) Source {
	h.samplerOnce.Do(func() {
		// The prototype's RNG is never drawn from; forks rebind their own.
		h.proto = oracle.NewSampler(h.pc, rng.New(0))
	})
	s := h.proto.Fork(rng.New(seed))
	return s.Draw
}

// DistanceToClass brackets the total-variation distance from h to the
// class of k-histograms: lower <= dTV(h, H_k) <= upper (the two coincide
// up to the distribution-normalization slack of the projection DP).
func (h *Histogram) DistanceToClass(k int) (lower, upper float64, err error) {
	return histdp.DistanceToHk(h.pc, k, intervals.FullDomain(h.pc.N()))
}

// DistanceCurve returns the distance from h to H_k for every k = 1..kMax
// (index k-1) — the scree curve behind "how many bins does this
// distribution need": the curve drops to ~0 at h's true complexity.
func (h *Histogram) DistanceCurve(kMax int) ([]float64, error) {
	return histdp.DistanceCurve(h.pc, kMax, intervals.FullDomain(h.pc.N()))
}

// TotalVariation returns the total-variation distance between two
// histograms over the same domain.
func TotalVariation(a, b *Histogram) (float64, error) {
	if a.N() != b.N() {
		return 0, fmt.Errorf("histtest: domains %d and %d differ", a.N(), b.N())
	}
	return dist.TV(a.pc, b.pc), nil
}

// BuildMethod names a histogram construction algorithm for BuildHistogram.
type BuildMethod string

// The supported construction methods.
const (
	// BuildEquiWidth uses equal-length buckets.
	BuildEquiWidth BuildMethod = "equiwidth"
	// BuildEquiDepth uses equal-mass buckets.
	BuildEquiDepth BuildMethod = "equidepth"
	// BuildMaxDiff places boundaries at the largest value jumps.
	BuildMaxDiff BuildMethod = "maxdiff"
	// BuildVOptimal minimizes the squared error [JKM+98].
	BuildVOptimal BuildMethod = "voptimal"
)

// BuildHistogram constructs a k-bucket histogram sketch from a dataset of
// values in [0, n), using the requested construction (V-optimal, equi-depth,
// equi-width, or MaxDiff).
func BuildHistogram(samples []int, n, k int, method BuildMethod) (*Histogram, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("histtest: empty dataset")
	}
	counts := oracle.NewCounts(n, samples)
	pc, err := histbuild.BuildFromSamples(counts, k, histbuild.Method(method))
	if err != nil {
		return nil, err
	}
	return &Histogram{pc: pc}, nil
}

// SamplerFor is a convenience wrapper: a deterministic Source for any
// histogram (equivalent to h.Sampler(seed)).
func SamplerFor(h *Histogram, seed uint64) Source { return h.Sampler(seed) }
