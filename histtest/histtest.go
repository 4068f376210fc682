// Package histtest is the public API of this repository: property testing
// of histogram distributions, after
//
//	Clément L. Canonne, "Are Few Bins Enough: Testing Histogram
//	Distributions" (PODS 2016; corrigendum PODS 2023).
//
// Given samples from an unknown distribution over {0, ..., n−1}, the
// tester decides whether the distribution is a k-histogram — piecewise
// constant on at most k contiguous intervals — or ε-far in total variation
// from every k-histogram, using O(√n/ε²·log k + poly(k,1/ε)) samples
// (Theorem 1.1). The package also provides the model-selection driver the
// paper's introduction motivates (find the smallest adequate k, then
// build a histogram sketch) and classical histogram constructions for
// selectivity estimation.
//
// Basic use:
//
//	src := histtest.SamplerFor(myHistogram, 42)     // or your own Source
//	v, err := histtest.TestSource(src, n, k, 0.25, histtest.Options{})
//	if v.IsKHistogram { ... }
package histtest

import (
	"context"
	"fmt"

	"repro/internal/chisq"
	"repro/internal/closeness"
	"repro/internal/core"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// Source yields one sample from the unknown distribution per call. Values
// must lie in [0, n) for the n passed alongside the source.
type Source func() int

// Options tune the tester.
type Options struct {
	// Seed makes the tester's internal randomness reproducible. Zero means
	// seed 1 (the tester is always deterministic given Seed and the
	// sample stream).
	Seed uint64
	// Paper switches to the literal constants of the paper's proofs. They
	// are extremely sample-hungry; the default calibrated constants keep
	// the same guarantees structure at laptop-scale budgets.
	Paper bool
	// Scale multiplies every stage's sample budget (default 1). Values
	// below 1 trade confidence for samples.
	Scale float64
	// Config, if non-nil, overrides Paper/Scale entirely (expert use).
	// Its Workers field bounds the sieve's replicate fan-out (0 = all
	// cores, 1 = serial); the verdict is identical for every value.
	// Parallel drawing needs independent sample streams, so it takes
	// effect for TestSources; the single-stream entry points (TestSource,
	// TestSamples) always draw serially.
	Config *core.Config
}

func (o Options) config() core.Config {
	cfg := core.PracticalConfig()
	if o.Paper {
		cfg = core.PaperConfig()
	}
	if o.Config != nil {
		cfg = *o.Config
	} else if o.Scale > 0 && o.Scale != 1 {
		cfg = cfg.Scale(o.Scale)
	}
	return cfg
}

func (o Options) rng() *rng.RNG {
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	return rng.New(seed)
}

// Verdict is the tester's decision.
type Verdict struct {
	// IsKHistogram is true when the tester accepted (the distribution is a
	// k-histogram, with probability >= 2/3), false when it rejected (the
	// distribution is ε-far from every k-histogram, with probability >= 2/3).
	IsKHistogram bool
	// SamplesUsed is the number of samples consumed.
	SamplesUsed int64
	// Stage is the pipeline stage that decided ("" for an accept).
	Stage string
	// Detail is a human-readable explanation of a rejection.
	Detail string
}

// sourceOracle adapts a Source to the internal oracle interface.
type sourceOracle struct {
	n     int
	src   Source
	count int64
}

func (s *sourceOracle) N() int { return s.n }
func (s *sourceOracle) Draw() int {
	v := s.src()
	if v < 0 || v >= s.n {
		panic(fmt.Sprintf("histtest: source produced %d outside [0,%d)", v, s.n))
	}
	s.count++
	return v
}
func (s *sourceOracle) Samples() int64 { return s.count }

// TestSource tests whether the distribution behind src is a k-histogram
// over [0, n) versus ε-far from every k-histogram. It draws as many
// samples as the configured budgets require.
func TestSource(src Source, n, k int, eps float64, opt Options) (Verdict, error) {
	if n < 1 {
		return Verdict{}, fmt.Errorf("histtest: n = %d must be positive", n)
	}
	o := &sourceOracle{n: n, src: src}
	res, err := core.Test(o, opt.rng(), k, eps, opt.config())
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{
		IsKHistogram: res.Accept,
		SamplesUsed:  o.count,
		Stage:        res.Trace.RejectStage,
		Detail:       res.Trace.RejectReason,
	}, nil
}

// Sources is a factory of independent sample streams over the same
// distribution: mk(stream) must return a Source whose draws are
// independent of every other stream's (e.g. samplers seeded per stream).
// Stream 0 is the tester's primary stream; other ids are derived
// deterministically from Options.Seed, so a run is reproducible end to
// end at every Options.Config.Workers width. Each returned Source is
// only ever drawn from one goroutine at a time, but DISTINCT streams may
// be drawn concurrently — they must not share mutable state.
type Sources func(stream uint64) Source

// sourcesOracle adapts a Sources factory to the internal oracle
// interface. Unlike the single-callback sourceOracle it supports cloning,
// which lets the tester's sieve draw its independent replicates in
// parallel (see Options.Config).
type sourcesOracle struct {
	sourceOracle
	mk Sources
}

func (s *sourcesOracle) CanFork() bool { return true }

func (s *sourcesOracle) Fork(r *rng.RNG) oracle.Oracle {
	return &sourceOracle{n: s.n, src: s.mk(r.Uint64())}
}

func (s *sourcesOracle) Absorb(drawn int64) { s.count += drawn }

var _ oracle.Forker = (*sourcesOracle)(nil)

// TestSources is TestSource for callers that can provide independent
// sample streams. The extra capability unlocks the tester's parallel
// sieve path: the independent replicate batches are drawn concurrently
// across core.Config.Workers goroutines, each from its own stream. The
// verdict is deterministic given Options.Seed and the streams, and does
// not depend on the worker count.
func TestSources(mk Sources, n, k int, eps float64, opt Options) (Verdict, error) {
	if n < 1 {
		return Verdict{}, fmt.Errorf("histtest: n = %d must be positive", n)
	}
	o := &sourcesOracle{sourceOracle: sourceOracle{n: n, src: mk(0)}, mk: mk}
	res, err := core.Test(o, opt.rng(), k, eps, opt.config())
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{
		IsKHistogram: res.Accept,
		SamplesUsed:  o.count,
		Stage:        res.Trace.RejectStage,
		Detail:       res.Trace.RejectReason,
	}, nil
}

// ErrNeedMoreSamples reports that a recorded dataset was too small for the
// configured budgets.
type ErrNeedMoreSamples struct {
	Have, Used int
}

func (e *ErrNeedMoreSamples) Error() string {
	return fmt.Sprintf("histtest: dataset of %d samples exhausted after %d draws; provide more data or lower Options.Scale", e.Have, e.Used)
}

// TestSamples tests a recorded dataset (e.g. a column of values read from
// disk). Values must lie in [0, n). If the dataset is smaller than the
// tester's sample budget, an *ErrNeedMoreSamples is returned; use
// RequiredSamples to size datasets in advance.
func TestSamples(samples []int, n, k int, eps float64, opt Options) (v Verdict, err error) {
	rep, err := oracle.NewReplay(n, samples)
	if err != nil {
		return Verdict{}, err
	}
	defer func() {
		if r := recover(); r != nil {
			// Discriminate on the panic VALUE: only the replay oracle's own
			// exhaustion sentinel means "dataset too small". Any other panic
			// — even one that happens to coincide with an exhausted replay —
			// is a real bug and must propagate.
			if r == oracle.ErrReplayExhausted {
				err = &ErrNeedMoreSamples{Have: len(samples), Used: int(rep.Samples())}
				return
			}
			panic(r)
		}
	}()
	res, errTest := core.Test(rep, opt.rng(), k, eps, opt.config())
	if errTest != nil {
		return Verdict{}, errTest
	}
	return Verdict{
		IsKHistogram: res.Accept,
		SamplesUsed:  rep.Samples(),
		Stage:        res.Trace.RejectStage,
		Detail:       res.Trace.RejectReason,
	}, nil
}

// RequiredSamples estimates the total sample budget one Test invocation
// needs for the given parameters (an upper-bound style nominal figure;
// the realized usage is close but Poisson-randomized).
func RequiredSamples(n, k int, eps float64, opt Options) int64 {
	return core.ExpectedSamples(n, k, eps, opt.config())
}

// TestIdentity is the goodness-of-fit companion to TestSource: given a
// KNOWN reference histogram, it decides whether the samples come from
// that exact distribution (accept w.p. >= 2/3 when dχ² is tiny, in
// particular when D = reference) or from one ε-far in total variation
// (reject w.p. >= 2/3). This is the [ADK15] identity tester (the paper's
// Theorem 3.2) with the reference as D*, at O(√n/ε²) samples — no
// learning stage, since the hypothesis is given.
func TestIdentity(src Source, reference *Histogram, eps float64, opt Options) (Verdict, error) {
	if reference == nil {
		return Verdict{}, fmt.Errorf("histtest: nil reference histogram")
	}
	if eps <= 0 || eps > 1 {
		return Verdict{}, fmt.Errorf("histtest: eps = %v must be in (0, 1]", eps)
	}
	n := reference.N()
	o := &sourceOracle{n: n, src: src}
	cfg := opt.config()
	res := chisq.TestWith(o, opt.rng(), reference.pc, intervals.FullDomain(n), eps, cfg.Chi, oracle.CountExact)
	v := Verdict{IsKHistogram: res.Accept, SamplesUsed: o.count}
	if !res.Accept {
		v.Stage = "identity"
		v.Detail = fmt.Sprintf("χ² statistic %.1f above threshold %.1f", res.Z, res.Threshold)
	}
	return v, nil
}

// RequiredIdentitySamples returns the nominal budget of one TestIdentity
// call.
func RequiredIdentitySamples(n int, eps float64, opt Options) int64 {
	return int64(opt.config().Chi.SampleMean(n, eps))
}

// TestCloseness is the two-sample companion: given two sample sources
// over the same domain [0, n), decide whether they follow the SAME
// distribution (accept w.p. >= 2/3) or distributions ε-far in total
// variation (reject w.p. >= 2/3). It runs the [DKN17] histogram closeness
// tester that /v1/closeness serves, with the same default constants: when
// both distributions are promised (close to) k-histograms, it tests on a
// reduced domain whose size depends on k and ε, not n. k >= n makes no
// promise and runs the full-domain [CDVV14] test, at
// O(max(n^{2/3}/ε^{4/3}, √n/ε²)) samples per source. Options.Seed and
// Options.Scale apply; a nominal budget above 2³¹ samples is an error.
func TestCloseness(srcA, srcB Source, n, k int, eps float64, opt Options) (Verdict, error) {
	cfg := closeness.DefaultConfig()
	if opt.Scale > 0 && opt.Scale != 1 {
		cfg = cfg.Scale(opt.Scale)
	}
	oa := &sourceOracle{n: n, src: srcA}
	ob := &sourceOracle{n: n, src: srcB}
	res, err := closeness.TestTwoSample(context.Background(), oa, ob, opt.rng(), k, eps, cfg)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{IsKHistogram: res.Accept, SamplesUsed: res.SamplesX + res.SamplesY}
	if !res.Accept {
		v.Stage = "closeness"
		v.Detail = fmt.Sprintf("%d of %d replicates accepted; median two-sample χ² statistic %.1f above threshold %.1f", res.Accepts, res.Reps, res.Z, res.Threshold)
	}
	return v, nil
}

// TestPartition decides the known-partition variant ([DK16], contrasted
// in the paper's Section 1.2): is the distribution behind src piecewise
// constant on the EXPLICIT partition of [0, n) cut at the given interior
// points, or ε-far from every such distribution? Knowing the breakpoints
// removes the sieve and the projection DP, so the budget is far below
// TestSource's (experiment E13 measures a 70–170× gap).
func TestPartition(src Source, n int, cuts []int, eps float64, opt Options) (Verdict, error) {
	if n < 1 {
		return Verdict{}, fmt.Errorf("histtest: n = %d must be positive", n)
	}
	part := intervals.FromBoundaries(n, cuts)
	o := &sourceOracle{n: n, src: src}
	res, err := core.TestKnownPartition(o, opt.rng(), part, eps, core.PracticalKnownPartition())
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{IsKHistogram: res.Accept, SamplesUsed: o.count}
	if !res.Accept {
		v.Stage = "identity"
		v.Detail = fmt.Sprintf("not flat on the given partition (χ² %.1f above threshold %.1f)", res.Z, res.Threshold)
	}
	return v, nil
}
