package learn

import (
	"context"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
)

func TestApproxPartHeavySingletons(t *testing.T) {
	// One element with mass 0.5 over n=1000, rest uniform: with b = 10,
	// the heavy element must come out as a singleton.
	r := rng.New(1)
	n := 1000
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.5 / float64(n-1)
	}
	p[371] = 0.5
	d := dist.MustDense(p)
	failures := 0
	for trial := 0; trial < 20; trial++ {
		s := oracle.NewSampler(d, r)
		res, err := ApproxPart(s, r, 10, 20)
		if err != nil {
			t.Fatal(err)
		}
		j := res.Partition.Find(371)
		if res.Partition.Interval(j).Len() != 1 || !res.Heavy[j] {
			failures++
		}
		if res.SamplesUsed != ApproxPartSamples(10, 20) {
			t.Fatalf("samples used = %d", res.SamplesUsed)
		}
	}
	if failures > 2 {
		t.Fatalf("heavy element missed in %d/20 trials", failures)
	}
}

func TestApproxPartIntervalMasses(t *testing.T) {
	// Non-singleton intervals should have true mass <= ~2/b whp.
	r := rng.New(2)
	n := 4096
	d := dist.Uniform(n)
	s := oracle.NewSampler(d, r)
	b := 20.0
	res, err := ApproxPart(s, r, b, 20)
	if err != nil {
		t.Fatal(err)
	}
	violations := 0
	for j := 0; j < res.Partition.Count(); j++ {
		iv := res.Partition.Interval(j)
		if iv.Len() > 1 && d.IntervalMass(iv) > 2/b {
			violations++
		}
	}
	if violations > 1 {
		t.Fatalf("%d non-singleton intervals exceed mass 2/b", violations)
	}
	// Interval count is O(b).
	if res.Partition.Count() > int(4*b) {
		t.Fatalf("K = %d too large for b = %v", res.Partition.Count(), b)
	}
}

func TestApproxPartCoversDomain(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 10; trial++ {
		n := 100 + r.Intn(1000)
		d := dist.Uniform(n)
		s := oracle.NewSampler(d, r)
		res, err := ApproxPart(s, r, 5+float64(r.Intn(20)), 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Partition.N() != n {
			t.Fatal("partition over wrong domain")
		}
		if len(res.Heavy) != res.Partition.Count() {
			t.Fatal("heavy mask length mismatch")
		}
	}
}

func TestApproxPartRejectsBadB(t *testing.T) {
	r := rng.New(4)
	s := oracle.NewSampler(dist.Uniform(10), r)
	if _, err := ApproxPart(s, r, 0.5, 10); err == nil {
		t.Fatal("b < 1 accepted")
	}
}

func TestApproxPartPointMass(t *testing.T) {
	// All mass on one element: that element is a singleton, everything
	// else is light.
	r := rng.New(5)
	d := dist.PointMass(100, 42)
	s := oracle.NewSampler(d, r)
	res, err := ApproxPart(s, r, 8, 20)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Partition.Find(42)
	if res.Partition.Interval(j).Len() != 1 {
		t.Fatalf("point mass not isolated: %v", res.Partition.Interval(j))
	}
}

func TestLaplaceEstimateSumsToOne(t *testing.T) {
	r := rng.New(6)
	n := 200
	d := dist.Uniform(n)
	s := oracle.NewSampler(d, r)
	p := intervals.EquiWidth(n, 10)
	counts := oracle.NewCounts(n, oracle.DrawN(s, 500))
	est := LaplaceEstimate(counts, p)
	if math.Abs(dist.TotalMass(est)-1) > 1e-9 {
		t.Fatalf("estimate mass = %v", dist.TotalMass(est))
	}
	if est.PieceCount() != 10 {
		t.Fatalf("pieces = %d", est.PieceCount())
	}
}

func TestLaplaceEstimateZeroCountsPositive(t *testing.T) {
	// Add-one smoothing: intervals with no samples still get positive mass
	// (this is what makes the χ² distance finite).
	p := intervals.EquiWidth(100, 5)
	counts := oracle.NewCounts(100, []int{0, 1, 2}) // all in interval 0
	est := LaplaceEstimate(counts, p)
	for j := 1; j < 5; j++ {
		iv := p.Interval(j)
		if est.IntervalMass(iv) <= 0 {
			t.Fatalf("interval %d has non-positive mass", j)
		}
	}
	// Interval 0: (3+1)/(3+5) = 0.5.
	if math.Abs(est.IntervalMass(p.Interval(0))-0.5) > 1e-12 {
		t.Fatalf("interval 0 mass = %v", est.IntervalMass(p.Interval(0)))
	}
}

func TestLearnChiSqGuarantee(t *testing.T) {
	// D a 3-histogram, partition aligned with its breakpoints: the learner
	// should achieve small χ² distance to D's flattening (no breakpoint
	// intervals to excuse).
	r := rng.New(7)
	n := 300
	d := dist.MustPiecewiseConstant(n, []dist.Piece{
		{Iv: intervals.Interval{Lo: 0, Hi: 100}, Mass: 0.2},
		{Iv: intervals.Interval{Lo: 100, Hi: 150}, Mass: 0.5},
		{Iv: intervals.Interval{Lo: 150, Hi: 300}, Mass: 0.3},
	})
	part := intervals.FromBoundaries(n, []int{50, 100, 150, 200})
	eps := 0.2
	failures := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		s := oracle.NewSampler(d, r)
		est, m := Learn(s, r, part, eps, 2)
		if m != LearnSamples(part.Count(), eps, 2) {
			t.Fatalf("sample budget = %d", m)
		}
		flat := dist.Flatten(d, part)
		if got := dist.ChiSq(flat, est); got > eps*eps {
			failures++
			if failures > trials/4 {
				t.Fatalf("χ² guarantee failed %d times (last: %v > %v)", failures, got, eps*eps)
			}
		}
	}
}

// learnTestDist is a 3-histogram over [0, 300) and learnTestPartition
// an equal-width partition whose intervals straddle its breakpoints, so
// interval masses mix runs.
func learnTestDist() *dist.PiecewiseConstant {
	return dist.MustPiecewiseConstant(300, []dist.Piece{
		{Iv: intervals.Interval{Lo: 0, Hi: 100}, Mass: 0.2},
		{Iv: intervals.Interval{Lo: 100, Hi: 150}, Mass: 0.5},
		{Iv: intervals.Interval{Lo: 150, Hi: 300}, Mass: 0.3},
	})
}

func learnTestPartition() *intervals.Partition { return intervals.EquiWidth(300, 7) }

// TestLearnClosedFormFallbackBitIdentical: oracles without the
// CountDrawer capability — Replay, CountsReplay and a Permuted sampler —
// asked for closed form run the exact per-sample learner: the same
// estimate bit for bit, the same draws, and neither strategy touches r.
func TestLearnClosedFormFallbackBitIdentical(t *testing.T) {
	d, p := learnTestDist(), learnTestPartition()
	const eps, c = 0.5, 10.0
	m := LearnSamples(p.Count(), eps, c)
	data := oracle.DrawN(oracle.NewSampler(d, rng.New(31)), 2*m)
	sigma := rng.New(32).Perm(300)
	oracles := map[string]func() oracle.Oracle{
		"replay": func() oracle.Oracle {
			rep, err := oracle.NewReplay(300, data)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		},
		"counts-replay": func() oracle.Oracle {
			return oracle.NewCountsReplay(oracle.NewCounts(300, data), rng.New(33))
		},
		"permuted": func() oracle.Oracle {
			perm, err := oracle.NewPermuted(oracle.NewSampler(d, rng.New(34)), sigma)
			if err != nil {
				t.Fatal(err)
			}
			return perm
		},
	}
	for name, mk := range oracles {
		run := func(cs oracle.CountStrategy) ([]float64, int64, uint64) {
			o, r := mk(), rng.New(35)
			est, _, err := LearnContext(context.Background(), o, r, p, eps, c, cs)
			if err != nil {
				t.Fatal(err)
			}
			masses := make([]float64, p.Count())
			for j := range masses {
				masses[j] = est.IntervalMass(p.Interval(j))
			}
			return masses, o.Samples(), r.Uint64()
		}
		ex, exDrawn, exNext := run(oracle.CountExact)
		cf, cfDrawn, cfNext := run(oracle.CountClosedForm)
		if exDrawn != int64(m) || cfDrawn != exDrawn {
			t.Fatalf("%s: drew %d (exact) and %d (closed form), want %d", name, exDrawn, cfDrawn, m)
		}
		for j := range ex {
			if ex[j] != cf[j] {
				t.Fatalf("%s: interval %d mass %v (exact) vs %v (closed form)", name, j, ex[j], cf[j])
			}
		}
		if fresh := rng.New(35).Uint64(); exNext != fresh || cfNext != fresh {
			t.Fatalf("%s: learner consumed r", name)
		}
	}
}

// TestLearnClosedFormMeanMatchesExact: the Laplace estimate is affine in
// the interval tallies, so under either strategy E[D̂(I_j)] =
// (m·D(I_j) + 1)/(m + ℓ). The mean over R fixed-seed runs of each
// strategy must sit within 5 standard errors of it on every interval;
// a closed-form batch that misplaced mass across a run boundary would
// not. The closed-form runs must also draw exactly m samples and leave r
// untouched.
func TestLearnClosedFormMeanMatchesExact(t *testing.T) {
	d, p := learnTestDist(), learnTestPartition()
	const eps, c = 0.5, 10.0
	ell := p.Count()
	m := LearnSamples(ell, eps, c)
	probs := make([]float64, ell)
	for j := range probs {
		probs[j] = d.IntervalMass(p.Interval(j))
	}
	for _, cs := range []oracle.CountStrategy{oracle.CountExact, oracle.CountClosedForm} {
		const reps = 2000
		s := oracle.NewSampler(d, rng.New(36))
		r := rng.New(37)
		sum := make([]float64, ell)
		for rep := 0; rep < reps; rep++ {
			before := s.Samples()
			est, got, err := LearnContext(context.Background(), s, r, p, eps, c, cs)
			if err != nil {
				t.Fatal(err)
			}
			if got != m || s.Samples()-before != int64(m) {
				t.Fatalf("%v: budget %d, drew %d, want %d", cs, got, s.Samples()-before, m)
			}
			for j := range sum {
				sum[j] += est.IntervalMass(p.Interval(j))
			}
		}
		if r.Uint64() != rng.New(37).Uint64() {
			t.Fatalf("%v: learner consumed r", cs)
		}
		den := float64(m + ell)
		for j, pj := range probs {
			want := (float64(m)*pj + 1) / den
			se := math.Sqrt(float64(m)*pj*(1-pj)/reps) / den
			if got := sum[j] / reps; math.Abs(got-want) > 5*se {
				t.Fatalf("%v: interval %d mean D̂ %.6f, want %.6f ± %.6f", cs, j, got, want, 5*se)
			}
		}
	}
}

func TestLearnExcusesBreakpointIntervals(t *testing.T) {
	// A breakpoint strictly inside a partition interval makes the
	// flattening lossy there, but off the breakpoint intervals the learner
	// still converges.
	r := rng.New(8)
	n := 200
	d := dist.MustPiecewiseConstant(n, []dist.Piece{
		{Iv: intervals.Interval{Lo: 0, Hi: 75}, Mass: 0.8},
		{Iv: intervals.Interval{Lo: 75, Hi: 200}, Mass: 0.2},
	})
	part := intervals.EquiWidth(n, 4) // breakpoint 75 is inside [50,100)
	bps := BreakpointIntervals(d, part)
	if len(bps) != 1 || bps[0] != 1 {
		t.Fatalf("breakpoint intervals = %v, want [1]", bps)
	}
	s := oracle.NewSampler(d, r)
	est, _ := Learn(s, r, part, 0.1, 4)
	except := map[int]bool{1: true}
	dTilde := dist.FlattenExcept(d, part, except)
	// χ² restricted to the non-breakpoint intervals must be small.
	g := intervals.FromPartitionSubset(part, []bool{true, false, true, true})
	if got := dist.ChiSqDomain(dTilde, est, g); got > 0.01 {
		t.Fatalf("off-breakpoint χ² = %v", got)
	}
}

func TestEmpiricalFlattening(t *testing.T) {
	p := intervals.EquiWidth(10, 2)
	counts := oracle.NewCounts(10, []int{0, 1, 2, 7})
	e := EmpiricalFlattening(counts, p)
	if math.Abs(e.IntervalMass(p.Interval(0))-0.75) > 1e-12 {
		t.Fatalf("interval 0 mass = %v", e.IntervalMass(p.Interval(0)))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty flattening did not panic")
			}
		}()
		EmpiricalFlattening(oracle.NewCounts(10, nil), p)
	}()
}

func TestBreakpointIntervals(t *testing.T) {
	n := 100
	d := dist.MustPiecewiseConstant(n, []dist.Piece{
		{Iv: intervals.Interval{Lo: 0, Hi: 30}, Mass: 0.3},
		{Iv: intervals.Interval{Lo: 30, Hi: 60}, Mass: 0.6},
		{Iv: intervals.Interval{Lo: 60, Hi: 100}, Mass: 0.1},
	})
	// Partition boundaries at 30: breakpoint at 30 falls ON a boundary, so
	// only the breakpoint at 60 (inside [50,100)) counts.
	part := intervals.FromBoundaries(n, []int{30, 50})
	bps := BreakpointIntervals(d, part)
	if len(bps) != 1 || bps[0] != 2 {
		t.Fatalf("breakpoints = %v, want [2]", bps)
	}
	// Aligned partition: no breakpoint intervals.
	aligned := intervals.FromBoundaries(n, []int{30, 60})
	if got := BreakpointIntervals(d, aligned); len(got) != 0 {
		t.Fatalf("aligned partition has breakpoints %v", got)
	}
	// A k-histogram has at most k-1 breakpoint intervals.
	if got := BreakpointIntervals(d, intervals.Whole(n)); len(got) > 2 {
		t.Fatalf("too many breakpoint intervals: %v", got)
	}
}

// TestSampleBudgetsSaturate: budgets past 2⁶³ saturate at math.MaxInt
// instead of wrapping negative, so the callers' guards see them.
func TestSampleBudgetsSaturate(t *testing.T) {
	if got := ApproxPartSamples(1e300, 20); got != math.MaxInt {
		t.Errorf("ApproxPartSamples(1e300) = %d, want %d", got, math.MaxInt)
	}
	if got := LearnSamples(4, 1e-10, 1); got != math.MaxInt {
		t.Errorf("LearnSamples at ε = 1e-10 = %d, want %d", got, math.MaxInt)
	}
	if got := LearnSamples(4, 0.5, 1); got != 16 {
		t.Errorf("LearnSamples(4, 0.5, 1) = %d, want 16", got)
	}
}
