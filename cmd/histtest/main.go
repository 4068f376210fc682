// Command histtest tests whether a dataset of integer values in [0, n)
// looks like it was drawn from a k-histogram distribution, or is ε-far
// from every such distribution. A second mode tests identity against a
// serialized reference histogram.
//
// Usage:
//
//	histtest -n 1024 -k 4 -eps 0.25 -file values.txt
//	generate_values | histtest -n 1024 -k 4 -eps 0.25
//	histtest -n 1024 -k 4 -eps 0.25 -demo far        # synthetic demo input
//	histtest -n 1024 -mode identity -ref sketch.json -eps 0.3 -file values.txt
//
// The input is whitespace-separated integers. Use -required to print the
// sample budget for the chosen parameters and exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/histtest"
	"repro/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main. Exit codes: 0 accept, 1 runtime
// error, 2 usage error, 3 reject.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("histtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 0, "domain size (values are integers in [0, n))")
		k        = fs.Int("k", 0, "histogram class parameter (mode=histogram)")
		eps      = fs.Float64("eps", 0.25, "distance parameter ε")
		mode     = fs.String("mode", "histogram", "what to test: 'histogram' or 'identity'")
		ref      = fs.String("ref", "", "reference histogram JSON file (mode=identity)")
		file     = fs.String("file", "", "input file (default: stdin)")
		demo     = fs.String("demo", "", "generate synthetic input instead: 'hist' or 'far'")
		seed     = fs.Uint64("seed", 1, "tester seed")
		scale    = fs.Float64("scale", 1, "sample budget multiplier")
		paper    = fs.Bool("paper", false, "use the literal paper constants (very sample-hungry)")
		required = fs.Bool("required", false, "print the required sample count and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "histtest: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *n <= 0 {
		fmt.Fprintln(stderr, "histtest: -n is required and must be positive")
		return 2
	}
	if *mode == "histogram" && *k <= 0 {
		fmt.Fprintln(stderr, "histtest: -k is required and must be positive in histogram mode")
		return 2
	}
	opt := histtest.Options{Seed: *seed, Scale: *scale, Paper: *paper}

	if *required {
		switch *mode {
		case "identity":
			fmt.Fprintf(stdout, "required samples for identity over n=%d eps=%.3f: %d\n",
				*n, *eps, histtest.RequiredIdentitySamples(*n, *eps, opt))
		default:
			fmt.Fprintf(stdout, "required samples for n=%d k=%d eps=%.3f: %d\n",
				*n, *k, *eps, histtest.RequiredSamples(*n, *k, *eps, opt))
		}
		return 0
	}

	var verdict histtest.Verdict
	var err error
	var what string
	switch *mode {
	case "histogram":
		what = fmt.Sprintf("a %d-histogram", *k)
		if *demo != "" {
			verdict, err = runDemo(*demo, *n, *k, *eps, opt)
			break
		}
		var data []int
		data, err = cli.ReadValues(*file)
		if err == nil {
			fmt.Fprintf(stderr, "read %d values over [0,%d)\n", len(data), *n)
			verdict, err = histtest.TestSamples(data, *n, *k, *eps, opt)
		}
	case "identity":
		if *ref == "" {
			fmt.Fprintln(stderr, "histtest: -ref is required in identity mode")
			return 2
		}
		var reference histtest.Histogram
		var payload []byte
		payload, err = os.ReadFile(*ref)
		if err == nil {
			err = json.Unmarshal(payload, &reference)
		}
		if err == nil {
			what = "identical to " + *ref
			var data []int
			data, err = cli.ReadValues(*file)
			if err == nil {
				var src histtest.Source
				var fn func() int
				fn, err = cli.CyclingSource(data)
				if err == nil {
					src = fn
					verdict, err = histtest.TestIdentity(src, &reference, *eps, opt)
				}
			}
		}
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintf(stderr, "histtest: %v\n", err)
		return 1
	}
	if verdict.IsKHistogram {
		fmt.Fprintf(stdout, "ACCEPT: consistent with %s (used %d samples)\n", what, verdict.SamplesUsed)
		return 0
	}
	fmt.Fprintf(stdout, "REJECT: ε-far from %s (stage %s: %s; used %d samples)\n",
		what, verdict.Stage, verdict.Detail, verdict.SamplesUsed)
	return 3
}

// runDemo tests a synthetic source so the tool can be exercised without a
// dataset.
func runDemo(kind string, n, k int, eps float64, opt histtest.Options) (histtest.Verdict, error) {
	switch kind {
	case "hist":
		h, err := histtest.NewHistogram(n, []int{n / 4, n / 2}, []float64{0.5, 0.2, 0.3})
		if err != nil {
			return histtest.Verdict{}, err
		}
		return histtest.TestSource(h.Sampler(42), n, k, eps, opt)
	case "far":
		// A fine staircase that no small-k histogram approximates.
		cuts := make([]int, 0, 63)
		masses := make([]float64, 0, 64)
		for j := 0; j < 64; j++ {
			if j > 0 {
				cuts = append(cuts, j*n/64)
			}
			masses = append(masses, float64(j%4+1))
		}
		h, err := histtest.NewHistogram(n, cuts, masses)
		if err != nil {
			return histtest.Verdict{}, err
		}
		return histtest.TestSource(h.Sampler(42), n, k, eps, opt)
	default:
		return histtest.Verdict{}, fmt.Errorf("unknown demo %q (want 'hist' or 'far')", kind)
	}
}
