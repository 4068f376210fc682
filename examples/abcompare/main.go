// A/B comparison: decide from samples alone whether two deployments
// serve the same distribution — canary analysis with the [DKN17]
// two-sample (closeness) tester, built on the [CDVV14] statistic the
// paper's χ² machinery descends from (footnote 2). No model of either
// side is needed. Both latency profiles are k-histograms, so the tester
// works on a reduced domain whose size depends on k and ε, not on n;
// passing k = n drops the promise and pays the full-domain
// O(max(n^{2/3}/ε^{4/3}, √n/ε²)) samples per side.
//
//	go run ./examples/abcompare
package main

import (
	"fmt"
	"log"

	"repro/histtest"
)

const (
	n   = 1 << 12 // e.g. bucketized latency in 4096 microsecond cells
	k   = 4       // both profiles are 4-histograms
	eps = 0.25
)

func main() {
	// Version A: the production latency profile.
	prodA, err := histtest.NewHistogram(n,
		[]int{300, 800, 2000},
		[]float64{0.15, 0.6, 0.2, 0.05})
	if err != nil {
		log.Fatal(err)
	}
	// Canary 1: identical behaviour.
	sameCanary := prodA
	// Canary 2: a regression shifted mass into the tail.
	slowCanary, err := histtest.NewHistogram(n,
		[]int{300, 800, 2000},
		[]float64{0.08, 0.35, 0.25, 0.32})
	if err != nil {
		log.Fatal(err)
	}

	check := func(name string, canary *histtest.Histogram, seed uint64) {
		v, err := histtest.TestCloseness(
			prodA.Sampler(seed), canary.Sampler(seed+100), n, k, eps,
			histtest.Options{Seed: seed + 200},
		)
		if err != nil {
			log.Fatal(err)
		}
		status := "SAME      promote the canary"
		if !v.IsKHistogram {
			status = "DIVERGED  hold the rollout (" + v.Detail + ")"
		}
		fmt.Printf("%-22s %s  [%d samples]\n", name, status, v.SamplesUsed)
	}

	fmt.Printf("two-sample canary analysis over [0,%d), ε=%.2f\n\n", n, eps)
	check("canary: identical", sameCanary, 10)
	check("canary: tail regression", slowCanary, 20)

	// For context: the true divergence of the bad canary.
	if tv, err := histtest.TotalVariation(prodA, slowCanary); err == nil {
		fmt.Printf("\n(true TV distance of the regressed canary: %.3f)\n", tv)
	}
}
