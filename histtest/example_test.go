package histtest_test

import (
	"fmt"

	"repro/histtest"
)

// ExampleTestSource tests a live sample source for k-histogram-ness.
func ExampleTestSource() {
	// A genuine 3-histogram over {0, ..., 4095}.
	h, err := histtest.NewHistogram(4096, []int{1024, 2048}, []float64{0.5, 0.1, 0.4})
	if err != nil {
		panic(err)
	}
	v, err := histtest.TestSource(h.Sampler(1), 4096, 3, 0.4, histtest.Options{Seed: 42})
	if err != nil {
		panic(err)
	}
	fmt.Println("is a 3-histogram:", v.IsKHistogram)
	// Output:
	// is a 3-histogram: true
}

// ExampleTestPartition tests against an explicitly known partition
// (the easier [DK16] variant).
func ExampleTestPartition() {
	h, err := histtest.NewHistogram(1024, []int{256, 512}, []float64{0.6, 0.1, 0.3})
	if err != nil {
		panic(err)
	}
	// Aligned partition: flat on every interval.
	v, err := histtest.TestPartition(h.Sampler(2), 1024, []int{256, 512}, 0.4, histtest.Options{Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Println("flat on the given partition:", v.IsKHistogram)
	// Output:
	// flat on the given partition: true
}

// ExampleHistogram_DistanceCurve computes the scree curve that drives
// bin-budget decisions.
func ExampleHistogram_DistanceCurve() {
	h, err := histtest.NewHistogram(100, []int{25, 50, 75}, []float64{0.4, 0.1, 0.3, 0.2})
	if err != nil {
		panic(err)
	}
	curve, err := h.DistanceCurve(5)
	if err != nil {
		panic(err)
	}
	for k, d := range curve {
		fmt.Printf("k=%d dist=%.3f\n", k+1, d)
	}
	// Output:
	// k=1 dist=0.200
	// k=2 dist=0.100
	// k=3 dist=0.050
	// k=4 dist=0.000
	// k=5 dist=0.000
}

// ExampleBuildHistogram builds a V-optimal sketch from raw values and
// answers a selectivity query.
func ExampleBuildHistogram() {
	truth, err := histtest.NewHistogram(256, []int{64}, []float64{0.75, 0.25})
	if err != nil {
		panic(err)
	}
	src := truth.Sampler(3)
	data := make([]int, 200000)
	for i := range data {
		data[i] = src()
	}
	sketch, err := histtest.BuildHistogram(data, 256, 2, histtest.BuildVOptimal)
	if err != nil {
		panic(err)
	}
	fmt.Printf("buckets: %d, sel[0,64): %.2f\n", sketch.Buckets(), sketch.Selectivity(0, 64))
	// Output:
	// buckets: 2, sel[0,64): 0.75
}

// ExampleGrid discretizes continuous data for the tester (the paper's
// Section 2 note on continuous domains).
func ExampleGrid() {
	g, err := histtest.NewGrid(0, 10, 5)
	if err != nil {
		panic(err)
	}
	cells := g.Discretize([]float64{0.5, 3.9, 9.99})
	fmt.Println(cells, g.Value(2))
	// Output:
	// [0 1 4] 4
}

// ExampleHistogram_Modality inspects shape statistics.
func ExampleHistogram_Modality() {
	// Rising then falling: a single interior peak.
	h, err := histtest.NewHistogram(90, []int{30, 60}, []float64{0.2, 0.6, 0.2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("modality=%d\n", h.Modality())
	// Output:
	// modality=2
}
