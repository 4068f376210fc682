package histtest

import (
	"fmt"
	"math"
)

// Grid discretizes a continuous domain [lo, hi) into n equal-width cells,
// realizing the paper's Section 2 note ("On discrete domains"): the
// testing machinery extends to continuous data by suitable gridding. The
// choice of n trades resolution against sample cost — the tester's
// n-dependent term grows as √n — and a k-histogram density over [lo, hi)
// with cut points on the grid maps to a k-histogram over [0, n).
type Grid struct {
	Lo, Hi float64
	N      int
	width  float64
}

// NewGrid validates the range and cell count.
func NewGrid(lo, hi float64, n int) (*Grid, error) {
	if !(lo < hi) || math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("histtest: bad grid range [%v, %v)", lo, hi)
	}
	if n < 1 {
		return nil, fmt.Errorf("histtest: grid needs n >= 1 cells, got %d", n)
	}
	width := (hi - lo) / float64(n)
	if !(width > 0) || math.IsInf(width, 0) {
		return nil, fmt.Errorf("histtest: grid range [%v, %v) over %d cells has cell width %v", lo, hi, n, width)
	}
	return &Grid{Lo: lo, Hi: hi, N: n, width: width}, nil
}

// Cell maps a continuous value to its grid cell in [0, n). Values outside
// [lo, hi) clamp to the boundary cells (standard practice for histogram
// sketches; callers wanting strict behaviour should filter first), NaN
// to cell 0. The clamp happens in float, so values far outside the range
// and ±Inf never overflow the int conversion.
func (g *Grid) Cell(x float64) int {
	c := math.Floor((x - g.Lo) / g.width)
	if math.IsNaN(c) || c < 0 {
		return 0
	}
	if c >= float64(g.N) {
		return g.N - 1
	}
	return int(c)
}

// Discretize maps a continuous dataset to grid cells, ready for
// TestSamples or BuildHistogram.
func (g *Grid) Discretize(xs []float64) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = g.Cell(x)
	}
	return out
}

// Value returns the left edge of cell c — the inverse mapping for
// reporting bucket boundaries of a built sketch in original units.
func (g *Grid) Value(c int) float64 {
	return g.Lo + float64(c)*g.width
}

// TestContinuous grids a continuous dataset and tests it for
// k-histogram-ness over the grid (see Grid for the semantics: the verdict
// is about the gridded distribution).
func TestContinuous(xs []float64, lo, hi float64, n, k int, eps float64, opt Options) (Verdict, error) {
	g, err := NewGrid(lo, hi, n)
	if err != nil {
		return Verdict{}, err
	}
	return TestSamples(g.Discretize(xs), n, k, eps, opt)
}
