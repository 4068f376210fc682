package histtest

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(1, 1, 4); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := NewGrid(2, 1, 4); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := NewGrid(0, 1, 0); err == nil {
		t.Fatal("zero cells accepted")
	}
	if _, err := NewGrid(math.Inf(-1), 1, 4); err == nil {
		t.Fatal("infinite range accepted")
	}
	// Finite bounds whose span overflows: width = +Inf would map every
	// value to cell 0.
	if _, err := NewGrid(-1e308, 1e308, 10); err == nil {
		t.Fatal("range with infinite cell width accepted")
	}
}

func TestGridCellMapping(t *testing.T) {
	g, err := NewGrid(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {1.99, 0}, {2, 1}, {9.99, 4},
		{-5, 0},  // clamped low
		{10, 4},  // clamped high
		{100, 4}, // clamped high
		{math.NaN(), 0},
		// Far outside the range: the clamp must not overflow the int
		// conversion.
		{1e20, 4}, {1e300, 4}, {math.Inf(1), 4},
		{-1e300, 0}, {math.Inf(-1), 0},
	}
	for _, c := range cases {
		if got := g.Cell(c.x); got != c.want {
			t.Fatalf("Cell(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	if g.Value(1) != 2 {
		t.Fatalf("Value(1) = %v", g.Value(1))
	}
}

func TestGridRoundTripProperty(t *testing.T) {
	g, _ := NewGrid(-3, 7, 100)
	r := rng.New(1)
	for i := 0; i < 10000; i++ {
		x := -3 + 10*r.Float64()
		c := g.Cell(x)
		// x must lie inside [Value(c), Value(c+1)).
		if x < g.Value(c)-1e-9 || x >= g.Value(c+1)+1e-9 {
			t.Fatalf("x=%v mapped to cell %d = [%v, %v)", x, c, g.Value(c), g.Value(c+1))
		}
	}
}

func TestTestContinuous(t *testing.T) {
	// A continuous 2-band density: uniform on [0,1) with a heavy band on
	// [0, 0.25). After gridding it is a 2-histogram.
	r := rng.New(2)
	n := 512
	need := RequiredSamples(n, 2, 0.5, Options{})
	xs := make([]float64, need+need/4)
	for i := range xs {
		if r.Bernoulli(0.6) {
			xs[i] = 0.25 * r.Float64()
		} else {
			xs[i] = r.Float64()
		}
	}
	v, err := TestContinuous(xs, 0, 1, n, 2, 0.5, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsKHistogram {
		t.Fatalf("gridded 2-band density rejected: %s %s", v.Stage, v.Detail)
	}
	if _, err := TestContinuous(xs, 1, 0, n, 2, 0.5, Options{}); err == nil {
		t.Fatal("bad range accepted")
	}
}
