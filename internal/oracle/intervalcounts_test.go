package oracle

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/rng"
)

// straddlingPartition cuts mixedHistogram's domain so that intervals
// straddle run boundaries ([10,20) crosses 8 → runs 1 and 2; [21,40)
// crosses 32) and span several runs ([0,10) covers run 0, all of run 1
// and part of run 2), plus a singleton inside a wide run.
func straddlingPartition() *intervals.Partition {
	return intervals.FromBoundaries(64, []int{10, 20, 21, 40})
}

// intervalMasses returns D(I_j) for every interval of p, summed per
// element.
func intervalMasses(d dist.Distribution, p *intervals.Partition) []float64 {
	out := make([]float64, p.Count())
	for j := range out {
		iv := p.Interval(j)
		for i := iv.Lo; i < iv.Hi; i++ {
			out[j] += d.Prob(i)
		}
	}
	return out
}

// hideSampler wraps an oracle so that type switches on *Sampler miss:
// the generic per-draw paths then run over the very same draws.
type hideSampler struct{ Oracle }

// TestDrawNCountsSamplerFastPathMatchesGeneric: the devirtualized
// *Sampler loop of DrawNCounts yields the same counts, the same
// Samples() and leaves the sampler's stream in the same place as the
// generic per-draw path, across both Counts backings.
func TestDrawNCountsSamplerFastPathMatchesGeneric(t *testing.T) {
	for _, m := range []int{0, 1, 37, 5000} {
		fast := NewSampler(mixedHistogram(), rng.New(41))
		slow := NewSampler(mixedHistogram(), rng.New(41))
		a := DrawNCounts(fast, m)
		b := DrawNCounts(hideSampler{slow}, m)
		assertCountsEqual(t, a, b)
		if fast.Samples() != int64(m) || slow.Samples() != int64(m) {
			t.Fatalf("m=%d: Samples() fast %d, generic %d", m, fast.Samples(), slow.Samples())
		}
		if x, y := fast.Draw(), slow.Draw(); x != y {
			t.Fatalf("m=%d: streams diverged after the batch: %d vs %d", m, x, y)
		}
		a.Release()
		b.Release()
	}
}

// TestDrawIntervalCountsTotalAndBudget: every batch tallies exactly m
// samples and advances Samples() by exactly m, over a sweep of batch
// sizes that exercises each Binomial regime.
func TestDrawIntervalCountsTotalAndBudget(t *testing.T) {
	s := NewSampler(mixedHistogram(), rng.New(43))
	p := straddlingPartition()
	out := make([]int, p.Count())
	var want int64
	for _, m := range []int{0, 1, 7, 64, 1000, 1 << 20, 1 << 30} {
		s.DrawIntervalCounts(p, m, out)
		want += int64(m)
		total := 0
		for _, nj := range out {
			if nj < 0 {
				t.Fatalf("m=%d: negative tally in %v", m, out)
			}
			total += nj
		}
		if total != m {
			t.Fatalf("m=%d: tallies %v sum to %d", m, out, total)
		}
		if s.Samples() != want {
			t.Fatalf("m=%d: Samples() = %d, want %d", m, s.Samples(), want)
		}
	}
}

// TestDrawIntervalCountsChiSquare is the fixed-seed goodness-of-fit pin
// of the multinomial law on a partition whose intervals straddle and
// span the sampler's runs. Aggregated over R batches the tallies are
// Multinomial(R·m, p), so the aggregate Pearson statistic is χ²_{K−1};
// and each batch's own Pearson statistic has mean exactly K−1 under a
// multinomial, which pins the dispersion (a Poisson or independent-
// binomial synthesis inflates it) as well as the marginals.
func TestDrawIntervalCountsChiSquare(t *testing.T) {
	d := mixedHistogram()
	p := straddlingPartition()
	probs := intervalMasses(d, p)
	K := p.Count()
	s := NewSampler(d, rng.New(45))
	const m, reps = 400, 4000
	out := make([]int, K)
	agg := make([]float64, K)
	perBatch := 0.0
	for rep := 0; rep < reps; rep++ {
		s.DrawIntervalCounts(p, m, out)
		for j, nj := range out {
			agg[j] += float64(nj)
			e := m * probs[j]
			perBatch += (float64(nj) - e) * (float64(nj) - e) / e
		}
	}
	x2 := 0.0
	for j := range agg {
		e := reps * m * probs[j]
		x2 += (agg[j] - e) * (agg[j] - e) / e
	}
	dof := float64(K - 1)
	t.Logf("aggregate χ² %.2f, mean per-batch χ² %.3f (K−1 = %.0f)", x2, perBatch/reps, dof)
	if limit := dof + 5*math.Sqrt(2*dof); x2 > limit {
		t.Fatalf("aggregate χ² = %.2f over %d intervals, limit %.2f", x2, K, limit)
	}
	// Mean of the per-batch statistics: K−1 with standard error about
	// sqrt(2(K−1)/R).
	mean := perBatch / reps
	if se := math.Sqrt(2 * dof / reps); math.Abs(mean-dof) > 5*se {
		t.Fatalf("mean per-batch χ² = %.3f, want %.0f ± %.3f", mean, dof, 5*se)
	}
}

// TestDrawIntervalCountsZeroMass: a zero-mass interval never receives a
// sample, whether it is the tail (masses [1, 0]: the interval before it
// has no mass after it and takes the whole batch) or sits between two
// massive intervals.
func TestDrawIntervalCountsZeroMass(t *testing.T) {
	iv := func(lo, hi int) intervals.Interval { return intervals.Interval{Lo: lo, Hi: hi} }
	for _, tc := range []struct {
		name   string
		pieces []dist.Piece
		cuts   []int
		zero   []int
	}{
		{"tail [1,0]", []dist.Piece{{Iv: iv(0, 8), Mass: 1}, {Iv: iv(8, 16), Mass: 0}}, []int{8}, []int{1}},
		{"split tail", []dist.Piece{{Iv: iv(0, 8), Mass: 1}, {Iv: iv(8, 16), Mass: 0}}, []int{4, 8, 12}, []int{2, 3}},
		{"middle", []dist.Piece{{Iv: iv(0, 5), Mass: 0.5}, {Iv: iv(5, 11), Mass: 0}, {Iv: iv(11, 16), Mass: 0.5}}, []int{5, 11}, []int{1}},
	} {
		s := NewSampler(dist.MustPiecewiseConstant(16, tc.pieces), rng.New(47))
		p := intervals.FromBoundaries(16, tc.cuts)
		out := make([]int, p.Count())
		for rep := 0; rep < 200; rep++ {
			m := 1 + rep*rep
			s.DrawIntervalCounts(p, m, out)
			total := 0
			for _, nj := range out {
				total += nj
			}
			if total != m {
				t.Fatalf("%s: m=%d tallies %v", tc.name, m, out)
			}
			for _, j := range tc.zero {
				if out[j] != 0 {
					t.Fatalf("%s: zero-mass interval %d got %d samples (%v)", tc.name, j, out[j], out)
				}
			}
		}
	}
}

// TestDrawIntervalCountsSingleInterval: with K = 1 the one interval
// takes the whole batch without consuming any randomness.
func TestDrawIntervalCountsSingleInterval(t *testing.T) {
	s := NewSampler(mixedHistogram(), rng.New(49))
	ref := NewSampler(mixedHistogram(), rng.New(49))
	out := make([]int, 1)
	s.DrawIntervalCounts(intervals.Whole(64), 12345, out)
	if out[0] != 12345 || s.Samples() != 12345 {
		t.Fatalf("K=1: tally %d, Samples() %d, want 12345 both", out[0], s.Samples())
	}
	if x, y := s.Draw(), ref.Draw(); x != y {
		t.Fatalf("K=1 consumed randomness: next draw %d, fresh sampler %d", x, y)
	}
}

// TestDrawIntervalCountsForkIsolation: forks draw interval tallies from
// their own streams and scratch, so interleaving them cannot change
// either's output.
func TestDrawIntervalCountsForkIsolation(t *testing.T) {
	proto := NewSampler(mixedHistogram(), rng.New(51))
	p := straddlingPartition()
	run := func(interleave bool) [][]int {
		a := proto.Fork(rng.New(52)).(*Sampler)
		b := proto.Fork(rng.New(53)).(*Sampler)
		var got [][]int
		for i := 0; i < 5; i++ {
			out := make([]int, p.Count())
			a.DrawIntervalCounts(p, 1000, out)
			got = append(got, out)
			if interleave {
				b.DrawIntervalCounts(intervals.Whole(64), 1000, make([]int, 1))
				b.DrawIntervalCounts(p, 1000, make([]int, p.Count()))
			}
		}
		return got
	}
	alone, mixed := run(false), run(true)
	for i := range alone {
		for j := range alone[i] {
			if alone[i][j] != mixed[i][j] {
				t.Fatalf("batch %d interval %d: %d alone, %d interleaved", i, j, alone[i][j], mixed[i][j])
			}
		}
	}
}
