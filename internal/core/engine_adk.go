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

// adkEngine is the source paper's Algorithm 1 — the default engine.
//
// Mapping to the paper's listing (line numbers from Algorithm 1):
//
//	Require (parameters k, ε; sample access)  →  the run arguments
//	1  b = 20k·log k/ε, ε0 = 13ε/30           →  cfg.PartB, cfg.TestEpsFactor·ε
//	2-3  Learning: ApproxPart(b) → I           →  learn.ApproxPart (Prop 3.4)
//	4  Learner(K, ε/60, I) → D̂                →  learn.Learn (Lemma 3.5)
//	6-7  Sieving: discard O(k log k) intervals →  stage 3a (heavy cutoff) +
//	     per §3.2.1                               stage 3b (halving rounds) on
//	                                              chisq.ZPerInterval medians
//	9-10 Checking: ∃D* ∈ H_k close to D̂ on G  →  histdp.ProjectTV (the
//	     by dynamic programming                   [CDGR16, Lemma 4.11] DP)
//	12-13 Testing: Tester(n, ε0, D̂) on G       →  chisq.TestWith (Theorem 3.2)
//	14 accept                                   →  the final return
//
// Each stage draws fresh samples; Trace records the per-stage accounting.
type adkEngine struct{}

// Name implements Engine.
func (adkEngine) Name() string { return "adk" }

// ExpectedSamples implements Engine: the Theorem 3.1 accounting —
// partition + learn + sieve reps×(rounds+1) batches + final test,
// summed in float64 and saturating at math.MaxInt64.
func (adkEngine) ExpectedSamples(n, k int, eps float64, cfg Config) int64 {
	alpha := cfg.Alpha(eps)
	mSieve := cfg.SieveMFactor * math.Sqrt(float64(n)) / (alpha * alpha)
	sieveM := mSieve * float64(cfg.sieveReps(k)) * float64(cfg.SieveRounds(k)+1)
	testM := cfg.Chi.SampleMean(n, cfg.TestEpsFactor*eps)
	return stats.SaturatingInt64(preludeSamples(k, eps, cfg) + math.Trunc(sieveM) + math.Trunc(testM))
}

// run implements Engine.
func (adkEngine) run(ctx context.Context, a *Arena, o oracle.Oracle, r *rng.RNG, k int, eps float64, cfg Config) (*Result, error) {
	var tr Trace
	p, dhat, err := a.prelude(ctx, o, r, k, eps, cfg, &tr)
	if err != nil {
		return a.fail(tr.TotalSamples(), err)
	}
	n, K := tr.N, tr.K

	// Stage 3: sieve (§3.2.1).
	a.emit(obs.Event{Kind: obs.KindStageEnter, Stage: obs.StageSieve})
	alpha := cfg.Alpha(eps)
	mSieve := cfg.SieveMFactor * math.Sqrt(float64(n)) / (alpha * alpha)
	// The sieve scores the same truncated set the final test does: both
	// drop elements with D̂(i) below Chi.Threshold(n, ε'), ε' the final
	// test's distance. The residual target the sieve drives toward is
	// only meaningful on that set — an element the sieve skipped but the
	// test scores (a zero-mass tail sharing a learned interval with the
	// support's last element) would carry unsieved χ² into the test.
	epsTest := cfg.TestEpsFactor * eps
	tau := cfg.Chi.Threshold(n, epsTest)
	reps := cfg.sieveReps(k)

	a.grow(K, reps)
	keep := a.keep
	for j := range keep {
		keep[j] = true
	}
	// The sieved sub-domain is a pure function of the keep mask; rebuilding
	// it costs O(K) and an allocation, so it is cached until a removal
	// invalidates it (most sieve rounds remove nothing).
	domainStale := true
	var cachedDomain *intervals.Domain
	domain := func() *intervals.Domain {
		if domainStale {
			cachedDomain = intervals.FromPartitionSubset(p, keep)
			domainStale = false
		}
		return cachedDomain
	}

	// The reps replicates per sieve decision are independent Poissonized
	// batches (the median-amplification trick of §3.2.1), so they fan out
	// across cfg.Workers when the oracle supports cloning (oracle.Replicas
	// fixes every replicate's stream before any goroutine launches, so
	// the decision and Trace are bit-identical for every Workers value).
	// Replay and Source-backed oracles cannot be cloned and keep the
	// exact legacy draw order, as does a single replicate.
	fork := reps > 1 && oracle.CanForkAll(o)

	// Resolve the count-synthesis strategy once against the parent oracle:
	// forks preserve the CountDrawer capability (a Sampler forks to a
	// Sampler), so the resolution holds for every replicate clone, and the
	// per-batch observability tallies can attribute without re-asserting.
	countStrat := oracle.EffectiveStrategy(o, cfg.CountStrategy)

	// computeZs draws fresh Poissonized samples reps times and returns the
	// per-interval medians (in a.zs, overwritten per call). The replicate
	// statistic rows, the median column, and the Poissonized count buffers
	// (via the oracle pool) are all recycled round over round. The context
	// is checked before every batch draw; batches already in flight finish
	// and release their pooled buffers before the cancellation error
	// surfaces, and clone draws are always folded back into o's counter.
	computeZs := func() ([]float64, error) {
		g := domain()
		med := a.med
		// Per-worker padded tally slots, merged after the join, so no two
		// workers tally into the same cache line. Worker indices stay
		// below reps.
		var tallies []obTally
		if a.ob != nil {
			if cap(a.obTallies) < reps {
				a.obTallies = make([]obTally, reps)
			}
			tallies = a.obTallies[:reps]
			clear(tallies)
		}
		nw, runErr := a.reps.Run(ctx, r, reps, cfg.Workers, fork, func(worker, t int) {
			ot, rt := a.reps.Side(t, 0)
			counts := oracle.DrawCountsWith(ot, rt, mSieve, countStrat)
			if tallies != nil {
				tallies[worker].batch(counts, countStrat)
			}
			med[t] = chisq.ZPerIntervalInto(med[t][:0], counts, dhat, p, g, mSieve, tau)
			counts.Release()
		}, o)
		a.obWorkers = nw
		a.obRound = obTally{}
		for _, t := range tallies {
			a.obRound.dense += t.dense
			a.obRound.sparse += t.sparse
			a.obRound.exact += t.exact
			a.obRound.closedForm += t.closedForm
		}
		if runErr != nil {
			return nil, runErr
		}
		zs := a.zs
		col := a.col
		for j := 0; j < K; j++ {
			for t := 0; t < reps; t++ {
				col[t] = med[t][j]
			}
			zs[j] = stats.MedianInPlace(col)
		}
		return zs, nil
	}

	removable := func(j int) bool { return keep[j] && p.Interval(j).Len() > 1 }
	remove := func(j int) {
		keep[j] = false
		domainStale = true
		tr.RemovedMass += dhat.IntervalMass(p.Interval(j))
	}
	reject := func(stage, reason string) (*Result, error) {
		return a.reject(&tr, dhat, domain(), stage, reason)
	}
	// sieveExit closes the sieve stage's sample accounting and event.
	sieveExit := func() {
		tr.SieveSamples = a.took(o)
		a.emit(obs.Event{Kind: obs.KindStageExit, Stage: obs.StageSieve, Samples: tr.SieveSamples})
	}

	// Stage 3a: discard the heavy offenders. EVERY interval above the
	// cutoff counts toward the > k rejection budget — a far distribution
	// may concentrate its χ² excess on singleton intervals, which the
	// sieve has no right to remove but must still hold against the
	// k-interval allowance — while only removable (non-singleton)
	// intervals are actually discarded.
	var roundSamp int64
	var roundPool oracle.PoolStats
	if a.ob != nil {
		roundSamp, roundPool = o.Samples(), oracle.PoolStatsSnapshot()
	}
	zs, err := computeZs()
	if err != nil {
		sieveExit()
		return a.fail(tr.TotalSamples(), err)
	}
	heavyThr := cfg.SieveHeavyFactor * mSieve * alpha * alpha
	heavyTotal := 0
	heavyIdx := a.order[:0] // scratch; consumed before the 3b rounds reuse it
	for j := 0; j < K; j++ {
		if !keep[j] || zs[j] <= heavyThr {
			continue
		}
		heavyTotal++
		if removable(j) {
			heavyIdx = append(heavyIdx, j)
		}
	}
	tr.HeavySingletons = heavyTotal - len(heavyIdx)
	if heavyTotal > k {
		a.emitRound(o, 0, 0, reps, roundSamp, roundPool)
		sieveExit()
		return reject(StageSieveHeavy, fmt.Sprintf("%d intervals above the heavy cutoff (%d unremovable singletons), k = %d", heavyTotal, tr.HeavySingletons, k))
	}
	for _, j := range heavyIdx {
		remove(j)
	}
	tr.RemovedHeavy = len(heavyIdx)
	a.emitRound(o, 0, len(heavyIdx), reps, roundSamp, roundPool)
	if tr.RemovedMass > cfg.DiscardMassCap*eps {
		sieveExit()
		return reject(StageDiscardMass, fmt.Sprintf("discarded mass %.4f exceeds cap %.4f", tr.RemovedMass, cfg.DiscardMassCap*eps))
	}

	// Stage 3b: iterative halving rounds.
	acceptThr := cfg.SieveAcceptFactor * mSieve * alpha * alpha
	residualThr := cfg.SieveResidualFactor * mSieve * alpha * alpha
	rounds := cfg.SieveRounds(k)
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			sieveExit()
			return a.fail(tr.TotalSamples(), err)
		}
		tr.SieveRoundsRun = round + 1
		if a.ob != nil {
			roundSamp, roundPool = o.Samples(), oracle.PoolStatsSnapshot()
		}
		zs, err = computeZs()
		if err != nil {
			sieveExit()
			return a.fail(tr.TotalSamples(), err)
		}
		removedBefore := tr.RemovedRounds
		total := 0.0
		for j := 0; j < K; j++ {
			if keep[j] {
				total += zs[j]
			}
		}
		if total < acceptThr {
			a.emitRound(o, round+1, 0, reps, roundSamp, roundPool)
			break
		}
		// Remove the largest Z_j (non-singletons only) until the survivors
		// sum below the residual target.
		order := a.order[:0]
		for j := 0; j < K; j++ {
			if removable(j) {
				order = append(order, j)
			}
		}
		sort.Slice(order, func(a, b int) bool { return zs[order[a]] > zs[order[b]] })
		for _, j := range order {
			if total <= residualThr {
				break
			}
			total -= zs[j]
			remove(j)
			tr.RemovedRounds++
			if tr.RemovedMass > cfg.DiscardMassCap*eps {
				a.emitRound(o, round+1, tr.RemovedRounds-removedBefore, reps, roundSamp, roundPool)
				sieveExit()
				return reject(StageDiscardMass, fmt.Sprintf("discarded mass %.4f exceeds cap %.4f", tr.RemovedMass, cfg.DiscardMassCap*eps))
			}
		}
		a.emitRound(o, round+1, tr.RemovedRounds-removedBefore, reps, roundSamp, roundPool)
		if total > residualThr {
			sieveExit()
			return reject(StageSieveStuck, "residual statistic cannot be brought below target by removals")
		}
	}
	sieveExit()
	g := domain()

	// Stage 4: check that some k-histogram is close to D̂ on G (Step 10 of
	// Algorithm 1).
	if res, err := a.check(ctx, &tr, dhat, k, g, "G", eps/cfg.CheckTolDivisor, cfg.SkipCheck); res != nil || err != nil {
		return res, err
	}

	// Stage 5: final χ²-vs-TV test of D against D̂ on G with fresh samples.
	a.emit(obs.Event{Kind: obs.KindStageEnter, Stage: obs.StageTest})
	res := chisq.TestWith(o, r, dhat, g, epsTest, cfg.Chi, countStrat)
	tr.TestSamples = a.took(o)
	tr.FinalZ = res.Z
	tr.FinalThresh = res.Threshold
	a.emit(obs.Event{Kind: obs.KindStageExit, Stage: obs.StageTest, Samples: tr.TestSamples})
	if !res.Accept {
		return a.reject(&tr, dhat, g, StageTest, fmt.Sprintf("final statistic %.1f above threshold %.1f", res.Z, res.Threshold))
	}
	return a.finish(&tr, dhat, g)
}
