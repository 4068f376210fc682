package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/chisq"
	"repro/internal/intervals"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/stats"
)

// cdklEngine is a practical embodiment of the CDKL'22 near-optimal
// histogram tester (Canonne–Diakonikolas–Kontonis–Liu, "Near-Optimal
// Bounds for Testing Histogram Distributions", arXiv 2207.06596). Where
// the ADK engine spends the bulk of its budget sieving untrustworthy
// intervals before a final test on the surviving sub-domain, CDKL'22
// observes that the sieve is unnecessary: a legal k-histogram can
// disagree with its partition flattening on at most k−1 "breakpoint"
// intervals, so a per-interval statistic that simply DISCOUNTS its k−1
// largest positive entries is already complete — and a far distribution
// cannot hide its distance in k−1 intervals whose individual mass the
// partition caps at ~1/b.
//
// The pipeline:
//
//  1. Partition — learn.ApproxPart exactly as the ADK engine (Prop 3.4),
//     so the two engines are compared on identical partition machinery.
//  2. Learn — the add-one estimator yields D̂, flat within intervals.
//  3. Check — histdp.ProjectTV verifies D̂ is within ε/FlatCheckTolDivisor
//     of H_k on the FULL domain. No sieving happened, so the tolerance is
//     looser than the ADK engine's: a legal k-histogram's learned
//     flattening legitimately carries ~(k−1)/b of breakpoint distance.
//  4. Trimmed flatness test — ONE fresh Poissonized batch at mean
//     m = Chi.MFactor·√n/ε_f² (ε_f = FlatEpsFactor·ε) scores every
//     interval with the same truncated-χ² statistic the ADK sieve uses
//     (chisq.ZPerIntervalInto against D̂); the k−1 largest positive Z_j
//     are dropped and the trimmed sum is compared against the standard
//     Chi.AcceptFactor·m·ε_f² cutoff.
//
// Soundness composes as in the ADK analysis: accept means D̂'s flattening
// is ε/FlatCheckTolDivisor-close to H_k (stage 3) AND D is ε_f-close to
// D̂ off the trimmed intervals (stage 4), whose total D̂-mass is at most
// (k−1)/b plus any heavy singletons the partition isolated exactly.
// Completeness needs no median amplification because there is only one
// accept/reject comparison per run — the single batch is its own
// decision, which is also why Workers is trivially a no-op here and the
// Trace is bit-identical at every worker count.
type cdklEngine struct{}

// Name implements Engine.
func (cdklEngine) Name() string { return "cdkl22" }

// ExpectedSamples implements Engine: partition + learn + one flatness
// batch. No sieve term is the engine's entire advantage — compare
// adkEngine.ExpectedSamples, whose sieve term multiplies a same-order
// batch by reps×(rounds+1). The sum is a float64 saturating at
// math.MaxInt64.
func (cdklEngine) ExpectedSamples(n, k int, eps float64, cfg Config) int64 {
	flatM := cfg.Chi.SampleMean(n, cfg.flatEpsFactor()*eps)
	return stats.SaturatingInt64(preludeSamples(k, eps, cfg) + math.Trunc(flatM))
}

// run implements Engine.
func (cdklEngine) run(ctx context.Context, a *Arena, o oracle.Oracle, r *rng.RNG, k int, eps float64, cfg Config) (*Result, error) {
	var tr Trace
	p, dhat, err := a.prelude(ctx, o, r, k, eps, cfg, &tr)
	if err != nil {
		return a.fail(tr.TotalSamples(), err)
	}
	n, K := tr.N, tr.K

	// Stage 3: check that some k-histogram is close to D̂ on the full
	// domain. Runs BEFORE the flatness batch: rejecting a structurally
	// hopeless D̂ costs zero extra samples.
	g := intervals.FullDomain(n)
	if res, err := a.check(ctx, &tr, dhat, k, g, "the full domain", eps/cfg.flatCheckTolDivisor(), cfg.SkipCheck); res != nil || err != nil {
		return res, err
	}

	// Stage 4: the trimmed per-interval flatness test — one Poissonized
	// batch, no amplification, no fan-out.
	a.emit(obs.Event{Kind: obs.KindStageEnter, Stage: obs.StageTest})
	epsF := cfg.flatEpsFactor() * eps
	m := cfg.Chi.SampleMean(n, epsF)
	tau := cfg.Chi.Threshold(n, epsF)
	countStrat := oracle.EffectiveStrategy(o, cfg.CountStrategy)
	counts := oracle.DrawCountsWith(o, r, m, countStrat)
	if a.ob != nil {
		a.obRound = obTally{}
		a.obWorkers = 1
		a.obRound.batch(counts, countStrat)
	}
	a.grow(K, 1)
	zs := chisq.ZPerIntervalInto(a.med[0][:0], counts, dhat, p, g, m, tau)
	counts.Release()
	tr.TestSamples = a.took(o)

	total := 0.0
	for _, z := range zs {
		total += z
	}
	// Trim the k−1 largest positive statistics: a legal k-histogram has
	// at most k−1 breakpoint intervals, and only a positive Z_j can be
	// breakpoint signal worth forgiving. (Trimming negative entries
	// would RAISE the sum — never correct.)
	pos := a.zs[:0]
	for _, z := range zs {
		if z > 0 {
			pos = append(pos, z)
		}
	}
	sort.Float64s(pos)
	trim := k - 1
	if trim > len(pos) {
		trim = len(pos)
	}
	for i := 0; i < trim; i++ {
		total -= pos[len(pos)-1-i]
	}
	thr := cfg.Chi.AcceptFactor * m * epsF * epsF
	tr.FinalZ = total
	tr.FinalThresh = thr
	a.emit(obs.Event{Kind: obs.KindStageExit, Stage: obs.StageTest, Samples: tr.TestSamples})
	if total > thr {
		return a.reject(&tr, dhat, g, StageTest, fmt.Sprintf("trimmed flatness statistic %.1f above threshold %.1f (forgave %d of %d intervals)", total, thr, trim, K))
	}
	return a.finish(&tr, dhat, g)
}
