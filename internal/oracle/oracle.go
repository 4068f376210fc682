// Package oracle provides sample access to unknown distributions — the
// access model of distribution testing (Section 2 of the paper) — plus the
// bookkeeping the experiments need: exact accounting of how many samples a
// tester consumed, Poissonized batch draws, per-element count vectors, and
// fingerprints.
package oracle

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/rng"
)

// Oracle yields independent samples from an unknown distribution over
// {0, ..., n-1} and counts how many have been drawn. Implementations are
// not safe for concurrent use.
type Oracle interface {
	// N returns the domain size.
	N() int
	// Draw returns one sample.
	Draw() int
	// Samples returns the total number of samples drawn so far.
	Samples() int64
}

// Forker is an Oracle that can spawn independent clones for concurrent
// batch drawing (the parallel sieve replicates of core.Test). Fork returns
// a clone with private randomness and a zeroed sample counter; the clone
// may be drawn from concurrently with other clones (but every individual
// oracle remains non-concurrency-safe on its own). Fork returns nil when
// the oracle — or an oracle it wraps — is inherently serial (Replay and
// arbitrary Source adapters are); callers must fall back to drawing from
// the parent serially in that case.
type Forker interface {
	Oracle
	// CanFork reports whether Fork will yield clones — false when the
	// oracle, or an oracle it wraps, is inherently serial. It is the
	// cheap capability probe: callers deciding whether to fan out should
	// ask CanFork rather than performing (and discarding) a trial Fork,
	// which may allocate a clone chain or consume factory work.
	CanFork() bool
	// Fork returns an independent clone drawing its randomness from r, or
	// nil if the oracle cannot be cloned (CanFork() == false).
	Fork(r *rng.RNG) Oracle
	// Absorb folds draws performed on clones back into the parent's
	// Samples() counter, preserving exact budget accounting. It must not
	// be called while clones are still drawing.
	Absorb(drawn int64)
}

// FanOut runs fn(worker, i) for every replicate i in [0, reps) on
// w = min(workers, reps) workers, where workers <= 0 means GOMAXPROCS:
// serially on the calling goroutine (worker 0) when w <= 1, and
// otherwise on goroutines that each own a contiguous range of ⌈reps/w⌉
// replicates — worker i gets [i·chunk, (i+1)·chunk). Contiguous ranges
// need no shared claim counter and keep adjacent replicates (adjacent
// rows of a caller's statistic matrix) on one worker. The schedule is a
// pure function of (reps, w); determinism is the caller's part: every
// replicate's randomness must be fixed (see Replicas) BEFORE the call,
// and fn may only write state owned by its replicate or its worker
// index. ctx is checked before every replicate; replicates already
// running finish first. FanOut returns the number of workers actually
// used — with reps not a multiple of w the trailing chunks are empty
// (reps=5, w=4 → chunk 2 → 3 goroutines) — and ctx.Err() when a check
// found the context done. Worker indices are always below reps, so
// callers may size per-worker scratch by it. It serves Replicas and the
// experiment harness's independent trials.
func FanOut(ctx context.Context, reps, workers int, fn func(worker, i int)) (int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	w := min(workers, reps)
	if w <= 1 {
		for i := 0; i < reps; i++ {
			if err := ctx.Err(); err != nil {
				return 1, err
			}
			fn(0, i)
		}
		return 1, nil
	}
	chunk := (reps + w - 1) / w
	nw := (reps + chunk - 1) / chunk
	var wg sync.WaitGroup
	for worker := 0; worker < nw; worker++ {
		lo, hi := worker*chunk, min((worker+1)*chunk, reps)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				fn(worker, i)
			}
		}()
	}
	wg.Wait()
	return nw, ctx.Err()
}

// Replicas runs independent replicates of a randomized statistic over
// one or more parent oracles (the sides) — ADK's median-amplified sieve
// batches in core, the DKN'17 majority vote in closeness — and holds the
// per-replicate clones and RNG streams as reusable scratch. The zero
// value is ready to use; like the arenas that embed it, a Replicas is
// not safe for concurrent Run calls.
type Replicas struct {
	rngs  []rng.RNG // reps × sides split streams, replicate-major
	forks []Oracle  // the clones drawing from rngs, same layout
	sides []Oracle  // the current Run's parents
	r     *rng.RNG  // the current Run's RNG (non-fork path)
	fork  bool
}

// CanForkAll reports whether every oracle can clone (oracle.Forker with
// CanFork() true) — the precondition of a forked Replicas run.
func CanForkAll(os ...Oracle) bool {
	for _, o := range os {
		if f, ok := o.(Forker); !ok || !f.CanFork() {
			return false
		}
	}
	return true
}

// Run runs fn(worker, i) for every replicate i in [0, reps); fn reaches
// replicate i's oracle and RNG for side s through Side(i, s).
//
// With fork set (every side must satisfy CanForkAll), Run splits r
// replicate-major — replicate 0's sides in order, then replicate 1's —
// and forks each side onto its split stream, all before any goroutine
// starts, then fans fn out on FanOut(ctx, reps, workers, ·). The
// verdict built from the replicates is therefore bit-identical at every
// worker count. Clone draws are absorbed into the parents before Run
// returns, on the cancellation path too, so Samples() accounting stays
// exact. Without fork, every replicate runs serially on the calling
// goroutine, drawing from the parents themselves and from r, in
// replicate order (replay streams are inherently serial).
//
// Run returns FanOut's worker count and context error.
func (rp *Replicas) Run(ctx context.Context, r *rng.RNG, reps, workers int, fork bool, fn func(worker, i int), sides ...Oracle) (int, error) {
	rp.sides = append(rp.sides[:0], sides...)
	rp.r, rp.fork = r, fork
	// The scratch outlives the run; drop its oracle references so a
	// reused arena does not pin the last run's sources.
	defer func() {
		clear(rp.sides)
		rp.r = nil
	}()
	if !fork {
		return FanOut(ctx, reps, 1, fn)
	}
	S := len(sides)
	if cap(rp.rngs) < reps*S {
		rp.rngs = make([]rng.RNG, reps*S)
		rp.forks = make([]Oracle, reps*S)
	}
	rp.rngs, rp.forks = rp.rngs[:reps*S], rp.forks[:reps*S]
	for j := range rp.forks {
		// Re-split into the scratch RNG structs: stream-identical to a
		// fresh Split, without the per-run allocations.
		r.SplitInto(&rp.rngs[j])
		rp.forks[j] = sides[j%S].(Forker).Fork(&rp.rngs[j])
	}
	nw, err := FanOut(ctx, reps, workers, fn)
	for s, o := range sides {
		var drawn int64
		for j := s; j < len(rp.forks); j += S {
			drawn += rp.forks[j].Samples()
			rp.forks[j] = nil
		}
		o.(Forker).Absorb(drawn)
	}
	return nw, err
}

// Side returns replicate i's oracle and RNG for side s of the current
// Run: its own clone and split stream on the fork path, the parent and
// Run's r otherwise. It is safe to call from concurrent fn invocations.
func (rp *Replicas) Side(i, s int) (Oracle, *rng.RNG) {
	if !rp.fork {
		return rp.sides[s], rp.r
	}
	j := i*len(rp.sides) + s
	return rp.forks[j], &rp.rngs[j]
}

// DrawN draws m samples from o.
func DrawN(o Oracle, m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = o.Draw()
	}
	return out
}

// DrawPoisson draws Poisson(mean) samples from o — the Poissonization
// trick of Section 2. The returned slice length is the Poisson variate.
func DrawPoisson(o Oracle, r *rng.RNG, mean float64) []int {
	return DrawN(o, r.Poisson(mean))
}

// DrawCounts draws Poisson(mean) samples from o and tallies them directly
// into a Counts, never materializing the intermediate sample slice. It
// consumes exactly the same randomness as
//
//	NewCounts(o.N(), DrawPoisson(o, r, mean))
//
// (one Poisson variate from r, then that many draws from o) and yields
// identical counts, so replay-backed oracles see an unchanged stream. The
// mean is used to pick the counts representation up front: dense for
// sample sizes comparable to the domain, sparse otherwise.
//
// The Counts comes from the buffer pool; the caller owns it and should
// Release it once the tally has been consumed (see Release).
func DrawCounts(o Oracle, r *rng.RNG, mean float64) *Counts {
	if s, ok := o.(*Sampler); ok {
		return s.DrawPoissonCounts(r, mean)
	}
	m := r.Poisson(mean)
	c := acquireCountsSized(o.N(), m)
	defer releaseOnPanic(c)
	for i := 0; i < m; i++ {
		c.add(o.Draw())
	}
	return c
}

// CountStrategy selects how batch tallies are synthesized for oracles
// backed by a KNOWN sampler: the Poissonized count vectors of the sieve
// and the final test, and the learner's fixed-m interval totals. The
// ApproxPart batch is always drawn per sample, because it needs
// per-element counts.
type CountStrategy uint8

const (
	// CountExact draws every sample individually (one alias-table draw
	// per sample), so the randomness stream — and therefore every replay
	// oracle, regression pin, and bit-identical-Trace guarantee — is
	// unchanged. This is the default and the only strategy valid for
	// replay/Source-backed oracles, whose samples are data, not
	// randomness.
	CountExact CountStrategy = iota
	// CountClosedForm synthesizes the count vector directly from the
	// Poissonization guarantee: per-element counts of a Poisson(mean)
	// batch are independent Poisson(mean·p_i), so a known k-histogram
	// sampler can materialize a batch in O(k + Σ_j min(t_j, width_j))
	// RNG calls instead of O(m) per-sample draws (see
	// Sampler.DrawPoissonCountsClosedForm). The counts are
	// distributionally identical to CountExact but come from a different
	// randomness stream, so per-seed decisions differ (while operating
	// characteristics agree; pinned by the equivalence suite). Oracles
	// without the CountDrawer capability fall back to CountExact.
	CountClosedForm
)

// String returns the flag/wire spelling of the strategy.
func (cs CountStrategy) String() string {
	switch cs {
	case CountExact:
		return "exact"
	case CountClosedForm:
		return "closed-form"
	}
	return fmt.Sprintf("CountStrategy(%d)", uint8(cs))
}

// ParseCountStrategy parses the flag/wire spelling of a strategy. The
// empty string means CountExact (the default everywhere).
func ParseCountStrategy(s string) (CountStrategy, error) {
	switch s {
	case "", "exact":
		return CountExact, nil
	case "closed-form", "closed_form", "closedform":
		return CountClosedForm, nil
	}
	return CountExact, fmt.Errorf("oracle: unknown count strategy %q (want \"exact\" or \"closed-form\")", s)
}

// CountDrawer is an Oracle that can synthesize batch tallies in closed
// form, without drawing the underlying samples one at a time. Only
// oracles that KNOW their distribution (the alias-table Sampler) can
// implement it; wrappers that reshape the sample stream (Permuted) and
// data-backed oracles (Replay, CountsReplay, Source adapters) cannot,
// and take the per-draw fallback.
type CountDrawer interface {
	Oracle
	// DrawPoissonCountsClosedForm returns a pooled count vector whose
	// joint distribution is identical to DrawCounts(o, r, mean)'s, while
	// consuming O(k + occupied) randomness instead of one draw per
	// sample. The realized total is folded into Samples() exactly, so
	// budget accounting matches the per-draw path. The caller owns the
	// Counts; Release it once consumed.
	DrawPoissonCountsClosedForm(r *rng.RNG, mean float64) *Counts
	// DrawIntervalCounts draws a batch of exactly m samples and writes
	// only its per-interval tallies over p into out (len(out) ==
	// p.Count()). The tallies have the law of tallying m per-sample
	// draws — Multinomial(m; D(I_1), …, D(I_K)) — and Samples() grows
	// by exactly m.
	DrawIntervalCounts(p *intervals.Partition, m int, out []int)
}

// EffectiveStrategy resolves the strategy DrawCountsWith will actually
// use for o: CountClosedForm requires the CountDrawer capability, and
// every other oracle falls back to CountExact. Forks preserve the
// capability (a Sampler forks to a Sampler), so a decision made on a
// parent oracle holds for its clones.
func EffectiveStrategy(o Oracle, cs CountStrategy) CountStrategy {
	if cs == CountClosedForm {
		if _, ok := o.(CountDrawer); ok {
			return CountClosedForm
		}
	}
	return CountExact
}

// DrawCountsWith is DrawCounts with an explicit synthesis strategy:
// CountExact is DrawCounts verbatim; CountClosedForm uses the oracle's
// CountDrawer capability when present and falls back to the exact
// per-draw path otherwise (Replay and wrapped oracles). The caller owns
// the returned Counts; Release it once consumed.
func DrawCountsWith(o Oracle, r *rng.RNG, mean float64, cs CountStrategy) *Counts {
	if cs == CountClosedForm {
		if cd, ok := o.(CountDrawer); ok {
			return cd.DrawPoissonCountsClosedForm(r, mean)
		}
	}
	return DrawCounts(o, r, mean)
}

// Sampler samples from a known dist.Distribution using Walker–Vose alias
// tables built over the distribution's constant runs: a k-histogram costs
// O(k) setup and O(1) per draw regardless of n.
type Sampler struct {
	n     int
	r     *rng.RNG
	lo    []int // run bounds
	hi    []int
	alias []int
	prob  []float64
	w     []float64 // normalized run weights (mass_j / total), immutable
	count int64

	// cfTotals is DrawPoissonCountsClosedForm's per-run total scratch
	// and ivMass DrawIntervalCounts' per-interval mass scratch: lazily
	// grown, private per sampler instance (forks never share them), so
	// repeated closed-form batches are allocation-free in steady state.
	cfTotals []int
	ivMass   []float64
}

var _ Oracle = (*Sampler)(nil)

// NewSampler builds a sampler for d using randomness from r. It panics if
// d has non-positive total mass. The distribution is normalized implicitly:
// sampling probabilities are proportional to d's masses.
func NewSampler(d dist.Distribution, r *rng.RNG) *Sampler {
	n := d.N()
	var lo, hi []int
	var mass []float64
	total := 0.0
	for i := 0; i < n; {
		end := d.RunEnd(i)
		if end > n {
			end = n
		}
		m := d.Prob(i) * float64(end-i)
		lo = append(lo, i)
		hi = append(hi, end)
		mass = append(mass, m)
		total += m
		i = end
	}
	if total <= 0 {
		panic("oracle: sampler over zero-mass distribution")
	}
	s := &Sampler{n: n, r: r, lo: lo, hi: hi}
	s.alias, s.prob = buildAlias(mass, total)
	s.w = make([]float64, len(mass))
	for j, m := range mass {
		s.w[j] = m / total
	}
	return s
}

// buildAlias constructs Walker–Vose alias tables for the normalized weights
// mass/total.
func buildAlias(mass []float64, total float64) (alias []int, prob []float64) {
	k := len(mass)
	alias = make([]int, k)
	prob = make([]float64, k)
	scaled := make([]float64, k)
	small := make([]int, 0, k)
	large := make([]int, 0, k)
	for i, m := range mass {
		scaled[i] = m / total * float64(k)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, i := range large {
		prob[i] = 1
		alias[i] = i
	}
	for _, i := range small {
		prob[i] = 1
		alias[i] = i
	}
	return alias, prob
}

// N returns the domain size.
func (s *Sampler) N() int { return s.n }

// Draw returns one sample.
func (s *Sampler) Draw() int {
	s.count++
	return s.draw()
}

// draw is the uncounted alias-table draw shared by Draw and the batched
// counting paths.
func (s *Sampler) draw() int {
	j := s.r.Intn(len(s.prob))
	if s.r.Float64() >= s.prob[j] {
		j = s.alias[j]
	}
	if s.hi[j]-s.lo[j] == 1 {
		return s.lo[j]
	}
	return s.lo[j] + s.r.Intn(s.hi[j]-s.lo[j])
}

// DrawPoissonCounts is DrawCounts specialized to the alias-table sampler:
// the Poisson variate comes from r, the draws from the sampler's own
// stream, and the tally loop runs devirtualized. The randomness consumed
// is identical to the generic DrawCounts path. The Counts comes from the
// buffer pool; Release it once consumed.
func (s *Sampler) DrawPoissonCounts(r *rng.RNG, mean float64) *Counts {
	m := r.Poisson(mean)
	c := acquireCountsSized(s.n, m)
	s.count += int64(m)
	for i := 0; i < m; i++ {
		c.bump(s.draw())
	}
	return c
}

// DrawPoissonCountsClosedForm implements CountDrawer: it synthesizes the
// Poissonized count vector directly from the sampler's known run
// structure instead of drawing m alias samples. Poissonization factorizes
// a Poisson(mean) batch into independent per-element counts
// N_i ~ Poisson(mean·p_i) (Section 2 of the paper), so per constant run j
// with weight w_j and width_j elements:
//
//   - sparse runs (expected count t_j = mean·w_j below the width): draw
//     the run total Poisson(mean·w_j) from r — one RNG call — and place
//     each of the t_j samples uniformly, O(t_j) work;
//   - dense runs (t_j >= width_j): draw each element's count
//     Poisson(mean·w_j/width_j) directly, O(width_j) work. This is the
//     exact factorized form of conditionally splitting the run total with
//     sequential Binomials — identical joint law — at O(1) per element
//     (PTRS) instead of the O(log) Beta recursion an exact Binomial
//     costs per split.
//
// Total cost is O(k + Σ_j min(t_j, width_j)) RNG calls versus the exact
// path's O(mean) alias draws. Within-run randomness comes from the
// sampler's own stream (mirroring the exact path's split between r and
// the sampler stream). The realized total — distributed Poisson(mean)
// exactly, as a sum of independent Poissons — is folded into Samples(),
// so budget accounting stays exact. The Counts comes from the buffer
// pool; Release it once consumed.
func (s *Sampler) DrawPoissonCountsClosedForm(r *rng.RNG, mean float64) *Counts {
	// First pass: realize the sparse-run totals (one Poisson call from r
	// per run — the closed form's "k RNG calls") so the Counts backing
	// can be sized on the realized sample size, matching the per-draw
	// path's dense/sparse crossover. Dense runs synthesize per-element
	// counts in the second pass; their expectation stands in for sizing.
	k := len(s.w)
	if cap(s.cfTotals) < k {
		s.cfTotals = make([]int, k)
	}
	totals := s.cfTotals[:k]
	size := 0
	for j := range s.w {
		width := s.hi[j] - s.lo[j]
		t := mean * s.w[j]
		if width > 1 && t >= float64(width) {
			totals[j] = -1 // dense run: materialized per element below
			size += int(t)
			continue
		}
		totals[j] = r.Poisson(t)
		size += totals[j]
	}
	c := acquireCountsSized(s.n, size)
	drawn := 0
	for j, tj := range totals {
		lo, width := s.lo[j], s.hi[j]-s.lo[j]
		if tj < 0 {
			// Dense run: independent per-element Poisson thinning.
			lam := mean * s.w[j] / float64(width)
			for i := 0; i < width; i++ {
				if ci := s.r.Poisson(lam); ci > 0 {
					c.bumpN(lo+i, ci)
					drawn += ci
				}
			}
			continue
		}
		drawn += tj
		if tj == 0 {
			continue
		}
		if width == 1 {
			c.bumpN(lo, tj)
			continue
		}
		// Sparse run: uniform placement of the realized total.
		for i := 0; i < tj; i++ {
			c.bump(lo + s.r.Intn(width))
		}
	}
	s.count += int64(drawn)
	return c
}

// DrawIntervalCounts implements CountDrawer: it draws the interval
// tallies (N_1, …, N_K) of a fixed m-sample batch as one
// Multinomial(m; D(I_1), …, D(I_K)) by sequential conditional binomials,
//
//	N_j ~ Binomial(m − N_1 − … − N_{j−1}, D(I_j) / S_j),  S_j = Σ_{i≥j} D(I_i),
//
// which is exactly the law of tallying m i.i.d. draws per interval. The
// interval masses come from one merge walk over the sampler's runs and
// p; the conditional probabilities use suffix sums (not 1 − prefix,
// which cancels catastrophically on light tails) clamped to [0, 1]. A
// zero-mass interval gets 0 and an interval with no mass after it takes
// the whole remainder, so the tallies always sum to m. Cost is
// O(K + runs + K·log m) instead of m alias draws. Randomness comes from
// the sampler's own stream, as the per-sample draws do.
func (s *Sampler) DrawIntervalCounts(p *intervals.Partition, m int, out []int) {
	K := p.Count()
	if p.N() != s.n || len(out) != K {
		panic(fmt.Sprintf("oracle: interval tallies of a %d-interval partition over [0,%d) into %d slots from a sampler over [0,%d)",
			K, p.N(), len(out), s.n))
	}
	if cap(s.ivMass) < 2*K {
		s.ivMass = make([]float64, 2*K)
	}
	// mass[j] = D(I_j); tail[j] = Σ_{i>j} D(I_i).
	mass, tail := s.ivMass[:K], s.ivMass[K:2*K]
	run := 0
	for j := range mass {
		iv := p.Interval(j)
		acc := 0.0
		for lo := iv.Lo; lo < iv.Hi; {
			for s.hi[run] <= lo {
				run++
			}
			hi := min(iv.Hi, s.hi[run])
			if width := s.hi[run] - s.lo[run]; hi-lo == width {
				acc += s.w[run]
			} else {
				acc += s.w[run] * float64(hi-lo) / float64(width)
			}
			lo = hi
		}
		mass[j] = acc
	}
	after := 0.0
	for j := K - 1; j >= 0; j-- {
		tail[j] = after
		after += mass[j]
	}
	rem := m
	for j := range out {
		switch {
		case rem == 0 || mass[j] == 0:
			out[j] = 0
		case tail[j] == 0:
			out[j] = rem
		default:
			q := min(max(mass[j]/(mass[j]+tail[j]), 0), 1)
			out[j] = s.r.Binomial(rem, q)
		}
		rem -= out[j]
	}
	s.count += int64(m)
}

// Samples returns how many samples have been drawn.
func (s *Sampler) Samples() int64 { return s.count }

// CanFork reports that samplers always clone (the alias tables are
// immutable and shared).
func (s *Sampler) CanFork() bool { return true }

// Fork returns an independent sampler over the same distribution, sharing
// the immutable alias tables (and run weights) but drawing from r with a
// zeroed counter.
func (s *Sampler) Fork(r *rng.RNG) Oracle {
	return &Sampler{n: s.n, r: r, lo: s.lo, hi: s.hi, alias: s.alias, prob: s.prob, w: s.w}
}

// Absorb folds clone draws back into the sampler's counter.
func (s *Sampler) Absorb(drawn int64) { s.count += drawn }

var (
	_ Forker      = (*Sampler)(nil)
	_ CountDrawer = (*Sampler)(nil)
)

// Permuted wraps an oracle, relabelling samples through a fixed
// permutation sigma of the domain — the embedding step of the paper's
// support-size reduction (Section 4.2): the tester sees samples from
// D ∘ σ⁻¹.
type Permuted struct {
	inner Oracle
	sigma []int
}

var _ Oracle = (*Permuted)(nil)

// NewPermuted returns an oracle emitting sigma(x) for each sample x of
// inner. len(sigma) must equal inner.N().
func NewPermuted(inner Oracle, sigma []int) (*Permuted, error) {
	if len(sigma) != inner.N() {
		return nil, fmt.Errorf("oracle: permutation of size %d over domain %d", len(sigma), inner.N())
	}
	return &Permuted{inner: inner, sigma: sigma}, nil
}

// N returns the domain size.
func (p *Permuted) N() int { return p.inner.N() }

// Draw returns sigma(inner.Draw()).
func (p *Permuted) Draw() int { return p.sigma[p.inner.Draw()] }

// Samples returns the inner oracle's count.
func (p *Permuted) Samples() int64 { return p.inner.Samples() }

// CanFork reports whether the inner oracle can clone.
func (p *Permuted) CanFork() bool {
	f, ok := p.inner.(Forker)
	return ok && f.CanFork()
}

// Fork clones the permuted oracle when the inner oracle supports it; the
// clone shares the immutable permutation table.
func (p *Permuted) Fork(r *rng.RNG) Oracle {
	f, ok := p.inner.(Forker)
	if !ok {
		return nil
	}
	c := f.Fork(r)
	if c == nil {
		return nil
	}
	return &Permuted{inner: c, sigma: p.sigma}
}

// Absorb folds clone draws into the inner oracle's counter.
func (p *Permuted) Absorb(drawn int64) {
	if f, ok := p.inner.(Forker); ok {
		f.Absorb(drawn)
	}
}

var _ Forker = (*Permuted)(nil)

// ErrOverBudget marks a run refused before its first draw because its
// nominal sample budget exceeds the configured guard (core.Config and
// closeness.Config MaxSamples). Serving layers map it to a client error.
var ErrOverBudget = errors.New("nominal sample budget exceeds the guard")

// ErrReplayExhausted is the value Replay.Draw panics with when the
// recording runs out. Callers that run a tester over recorded data (e.g.
// histtest.TestSamples) discriminate on this exact value when recovering,
// so unrelated panics propagate instead of being misreported as a
// too-small dataset.
var ErrReplayExhausted = errors.New("oracle: replay exhausted")

// Replay replays a recorded sequence of samples (e.g. a dataset read from
// disk by the CLI). Draw panics with ErrReplayExhausted when the recording
// is exhausted; callers should check Remaining first.
type Replay struct {
	n     int
	data  []int
	next  int
	count int64
}

var _ Oracle = (*Replay)(nil)

// NewReplay validates that every sample lies in [0, n) and returns a
// replay oracle.
func NewReplay(n int, data []int) (*Replay, error) {
	for i, v := range data {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("oracle: sample %d = %d outside [0,%d)", i, v, n)
		}
	}
	return &Replay{n: n, data: data}, nil
}

// N returns the domain size.
func (rp *Replay) N() int { return rp.n }

// Draw returns the next recorded sample.
func (rp *Replay) Draw() int {
	if rp.next >= len(rp.data) {
		panic(ErrReplayExhausted)
	}
	v := rp.data[rp.next]
	rp.next++
	rp.count++
	return v
}

// Samples returns how many samples have been replayed.
func (rp *Replay) Samples() int64 { return rp.count }

// Remaining returns how many recorded samples are left.
func (rp *Replay) Remaining() int { return len(rp.data) - rp.next }

// denseLimit caps the domain size for which Counts uses the dense
// representation: a []int32 of this length is 16 MiB.
const denseLimit = 1 << 22

// Counts is a per-element occurrence vector over [0, n). Exactly one of
// two backings is live: a dense []int32 (chosen when the sample size is
// comparable to a moderately sized domain — the sieve and final-test hot
// path) or a sparse map (large domains or thin samples). Both expose the
// same API and identical iteration order; NewCounts and DrawCounts choose
// automatically, NewDenseCounts/NewSparseCounts force a backing.
type Counts struct {
	n        int
	dense    []int32
	m        map[int]int
	distinct int // dense-mode distinct tally (sparse mode uses len(m))
	total    int
	released bool // set by Release; guards the double-release panic
}

// useDense reports whether a tally of m samples over [0, n) should use the
// dense backing: the domain must be modest, and the O(n) allocate/clear/walk
// cost of the dense path must not swamp the O(m) tally work.
//
// The m >= n/64 crossover is empirical — see BenchmarkDenseSparseCrossover
// (densebench_test.go). At n ∈ {2¹⁶, 2²⁰} the dense path wins at every
// ratio down to m = n/64 (1.5× there, 8–12× at m = n), because the sparse
// map pays ~80 ns per insert plus a sort in ForEach, while the dense side
// pays ~0.7 ns per domain element to clear and walk; extrapolating those
// slopes puts the true break-even near m ≈ n/100. n/64 is the thinnest
// measured point, kept with margin for cache-hostile domains.
func useDense(n, m int) bool {
	return n <= denseLimit && m >= n/64
}

// newCountsSized returns an empty Counts with the backing chosen for m
// samples over [0, n).
func newCountsSized(n, m int) *Counts {
	if useDense(n, m) {
		return &Counts{n: n, dense: make([]int32, n)}
	}
	return &Counts{n: n, m: make(map[int]int, m)}
}

// bump tallies one in-range sample. It is the single maintenance point
// for the dense/sparse backing, the distinct tally, and the running
// total — every counting path (the generic per-draw loop, the sampler's
// devirtualized loop, and the closed-form synthesizer) funnels through
// bump/bumpN, so the two backings cannot drift apart. Callers must
// guarantee v ∈ [0, n); add wraps bump with the bounds check for
// arbitrary-oracle inputs.
func (c *Counts) bump(v int) {
	if c.dense != nil {
		if c.dense[v] == 0 {
			c.distinct++
		}
		c.dense[v]++
	} else {
		c.m[v]++
	}
	c.total++
}

// bumpN tallies k occurrences of the in-range element v at once (the
// closed-form synthesizer's run totals and dense per-element counts).
//
// The dense backing accumulates into an int32, and bumpN is the one
// path that can plausibly reach its ceiling: a closed-form synthesis of
// a heavy single-element run near the MaxSamples budget (~2³¹) lands
// the whole batch on one element in a single call. Overflow must panic
// rather than wrap — a wrapped count silently corrupts every statistic
// downstream. (The per-draw bump path cannot realistically get there:
// it would need 2³¹ individual draws onto one element, which the budget
// guard makes a multi-hour run, and guarding it would tax every sample.)
func (c *Counts) bumpN(v, k int) {
	if c.dense != nil {
		if c.dense[v] == 0 {
			c.distinct++
		}
		nv := int64(c.dense[v]) + int64(k)
		if nv > math.MaxInt32 {
			panic(fmt.Sprintf("oracle: count of element %d overflows the dense int32 backing (%d + %d > %d)",
				v, c.dense[v], k, math.MaxInt32))
		}
		c.dense[v] = int32(nv)
	} else {
		c.m[v] += k
	}
	c.total += k
}

// add tallies one sample, panicking on out-of-range values (arbitrary
// Source-backed oracles can emit anything).
func (c *Counts) add(v int) {
	if v < 0 || v >= c.n {
		panic(fmt.Sprintf("oracle: sample %d outside [0,%d)", v, c.n))
	}
	c.bump(v)
}

// NewCounts tallies the occurrence of each element in samples, choosing
// the dense or sparse backing by domain and sample size.
func NewCounts(n int, samples []int) *Counts {
	c := newCountsSized(n, len(samples))
	for _, s := range samples {
		c.add(s)
	}
	return c
}

// NewDenseCounts tallies samples into a dense []int32 backing regardless
// of the size heuristic (tests and benchmarks; n must be modest).
func NewDenseCounts(n int, samples []int) *Counts {
	c := &Counts{n: n, dense: make([]int32, n)}
	for _, s := range samples {
		c.add(s)
	}
	return c
}

// NewSparseCounts tallies samples into a map backing regardless of the
// size heuristic.
func NewSparseCounts(n int, samples []int) *Counts {
	c := &Counts{n: n, m: make(map[int]int, len(samples))}
	for _, s := range samples {
		c.add(s)
	}
	return c
}

// N returns the domain size.
func (c *Counts) N() int { return c.n }

// Total returns the number of samples tallied.
func (c *Counts) Total() int { return c.total }

// Dense reports whether the counts use the dense backing.
func (c *Counts) Dense() bool { return c.dense != nil }

// Of returns the occurrence count of element i.
func (c *Counts) Of(i int) int {
	if c.dense != nil {
		if i < 0 || i >= c.n {
			return 0
		}
		return int(c.dense[i])
	}
	return c.m[i]
}

// Distinct returns the number of distinct elements observed.
func (c *Counts) Distinct() int {
	if c.dense != nil {
		return c.distinct
	}
	return len(c.m)
}

// ForEach calls f for every observed element (ascending order) with its
// count.
func (c *Counts) ForEach(f func(elem, count int)) {
	if c.dense != nil {
		for i, v := range c.dense {
			if v != 0 {
				f(i, int(v))
			}
		}
		return
	}
	keys := make([]int, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		f(k, c.m[k])
	}
}

// InRange returns the number of samples that fell in [lo, hi).
func (c *Counts) InRange(lo, hi int) int {
	total := 0
	if c.dense != nil {
		if lo < 0 {
			lo = 0
		}
		if hi > c.n {
			hi = c.n
		}
		for i := lo; i < hi; i++ {
			total += int(c.dense[i])
		}
		return total
	}
	// Iterate the map: cheaper than sorting when called rarely; callers
	// needing many range queries should use Empirical instead.
	for k, v := range c.m {
		if k >= lo && k < hi {
			total += v
		}
	}
	return total
}

// Empirical returns the empirical distribution of the counts as a Dense
// distribution (mass count/total per element). It panics if no samples
// were tallied.
func (c *Counts) Empirical() *dist.Dense {
	if c.total == 0 {
		panic("oracle: empirical distribution of zero samples")
	}
	p := make([]float64, c.n)
	c.ForEach(func(i, v int) {
		p[i] = float64(v) / float64(c.total)
	})
	return dist.MustDense(p)
}

// Fingerprint returns the collision fingerprint of the counts: fp[j] is
// the number of distinct elements that appeared exactly j times (j >= 1).
// Symmetric-property testers (uniqueness/collision statistics) consume
// exactly this.
func (c *Counts) Fingerprint() map[int]int {
	fp := make(map[int]int)
	c.ForEach(func(_, v int) {
		fp[v]++
	})
	return fp
}

// PairCollisions returns the number of unordered sample pairs that
// collided: Σ_i C(count_i, 2).
func (c *Counts) PairCollisions() int64 {
	var total int64
	c.ForEach(func(_, v int) {
		total += int64(v) * int64(v-1) / 2
	})
	return total
}
