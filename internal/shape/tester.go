package shape

import (
	"fmt"
	"math"

	"repro/internal/chisq"
	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/learn"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// BirgeDecomposition returns the oblivious partition of [0, n) into
// intervals of geometrically growing lengths ⌈(1+gamma)^j⌉ (Birgé's
// decomposition): every monotone non-increasing distribution is
// O(gamma)-close in total variation to its flattening over it, and the
// number of intervals is O(log(gamma·n)/gamma). For non-decreasing
// distributions use the mirrored partition (see mirror).
func BirgeDecomposition(n int, gamma float64) *intervals.Partition {
	if gamma <= 0 || gamma > 1 {
		panic(fmt.Sprintf("shape: Birgé gamma %v must be in (0, 1]", gamma))
	}
	// Boundaries at the distinct values of ⌊(1+γ)^j⌋: singleton intervals
	// over the head (where a monotone density may change fastest), lengths
	// growing geometrically toward the tail.
	var cuts []int
	x := 1.0
	prev := 0
	for {
		b := int(math.Floor(x))
		if b >= n {
			break
		}
		if b > prev {
			cuts = append(cuts, b)
			prev = b
		}
		x *= 1 + gamma
	}
	return intervals.FromBoundaries(n, cuts)
}

// mirror reflects a partition of [0, n) (interval [a, b) becomes
// [n−b, n−a)).
func mirror(p *intervals.Partition) *intervals.Partition {
	n := p.N()
	cuts := make([]int, 0, p.Count()-1)
	for _, c := range p.Boundaries() {
		cuts = append(cuts, n-c)
	}
	return intervals.FromBoundaries(n, cuts)
}

// MonotoneParams are the constants of TestMonotone; see PracticalMonotone
// for the calibrated preset.
type MonotoneParams struct {
	// GammaDivisor sets the Birgé parameter γ = ε/GammaDivisor.
	GammaDivisor float64
	// LearnDivisor runs the Laplace learner at ε/LearnDivisor.
	LearnDivisor float64
	// LearnC scales the learner's O(K/ε²) budget.
	LearnC float64
	// CheckTolDivisor accepts the PAV check at distance ε/CheckTolDivisor.
	CheckTolDivisor float64
	// TestEpsFactor runs the final identity test at ε' = TestEpsFactor·ε.
	TestEpsFactor float64
	// Chi are the identity-test constants.
	Chi chisq.Params
}

// PracticalMonotone returns calibrated constants: the learner and Birgé
// errors together stay a comfortable factor under the identity test's χ²
// acceptance budget (AcceptFactor·ε'²), and the triangle inequality
// ε' + ε/CheckTol + learner-TV < ε gives soundness.
func PracticalMonotone() MonotoneParams {
	return MonotoneParams{
		// The identity test at ε' = ε/2 accepts while χ²(D‖D̂) stays under
		// ~0.1·ε'²/2 = ε²/80. Birgé flattening contributes ≈ s²γ² for a
		// power-law-like density (γ = ε/20 → ≤ ε²/123 at s ≤ 1.8) and the
		// learner (ε/16)²/2 = ε²/512; together well under budget.
		GammaDivisor:    20,
		LearnDivisor:    16,
		LearnC:          2,
		CheckTolDivisor: 8,
		TestEpsFactor:   0.5,
		Chi:             chisq.Params{MFactor: 60, TruncFactor: 1.0 / 50, AcceptFactor: 1.0 / 10},
	}
}

// MonotoneResult reports one TestMonotone invocation.
type MonotoneResult struct {
	Accept bool
	// CheckDistance is the PAV distance of the learned hypothesis to the
	// monotone class.
	CheckDistance float64
	// Samples is the total sample consumption.
	Samples int64
	// Stage reports what decided ("check", "identity", or "" on accept).
	Stage string
}

// TestMonotone decides whether the distribution behind o is monotone
// (non-increasing when decreasing is true, non-decreasing otherwise) or
// ε-far from every such distribution — the [ADK15]-style testing-by-
// learning specialization whose generalization to H_k is the paper's
// Algorithm 1. Because the Birgé decomposition is oblivious (no unknown
// breakpoints exist for monotone distributions), NO sieve is needed:
//
//  1. flatten over the Birgé partition (γ = ε/12): monotone D is
//     O(γ)-close in TV and O(γ²)-close in χ² to its flattening;
//  2. learn the flattening with the add-one estimator;
//  3. check the hypothesis is close to monotone (PAV projection);
//  4. identity-test D against the hypothesis (Theorem 3.2).
func TestMonotone(o oracle.Oracle, r *rng.RNG, decreasing bool, eps float64, params MonotoneParams) (*MonotoneResult, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("shape: eps = %v must be in (0, 1]", eps)
	}
	n := o.N()
	start := o.Samples()

	part := BirgeDecomposition(n, eps/params.GammaDivisor)
	if !decreasing {
		part = mirror(part)
	}
	dhat, _ := learn.Learn(o, r, part, eps/params.LearnDivisor, params.LearnC)

	checkDist, _ := Monotone(dhat, decreasing)
	res := &MonotoneResult{CheckDistance: checkDist}
	if checkDist > eps/params.CheckTolDivisor {
		res.Stage = "check"
		res.Samples = o.Samples() - start
		return res, nil
	}

	id := chisq.TestWith(o, r, dhat, intervals.FullDomain(n), params.TestEpsFactor*eps, params.Chi, oracle.CountExact)
	res.Samples = o.Samples() - start
	if !id.Accept {
		res.Stage = "identity"
		return res, nil
	}
	res.Accept = true
	return res, nil
}

// FlatteningGamma bounds the χ² distance between a monotone distribution
// and its flattening over the Birgé decomposition with parameter gamma:
// within each interval the density varies by at most a (1+gamma) factor,
// so the per-interval χ² is at most gamma²·(interval mass). Exposed for
// tests and the documentation of TestMonotone's calibration.
func FlatteningGamma(d dist.Distribution, p *intervals.Partition) float64 {
	flat := dist.Flatten(d, p)
	return dist.ChiSq(d, flat)
}
