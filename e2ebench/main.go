// Command e2ebench is the repository's end-to-end benchmark: a
// stdlib-only load generator that launches cmd/histd on loopback with
// its default flags, drives one of three seeded fixed-work workloads
// over raw HTTP (no retries), checks every verdict against certified
// ground truth and against an in-process replay, and prints every metric
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// is repeated untraced and traced (histd -trace-json plus the
// benchmark's own spans) and the metrics are the per-layer set.
//
// Usage (see README.md; run.sh builds both binaries first):
//
//	e2ebench -histd PATH -workload verdict|dataset|stream -seed N -seconds S -trace 0|1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bin      = fs.String("histd", "", "path to the cmd/histd binary")
		workload = fs.String("workload", "", "verdict, dataset or stream")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed sends the same requests")
		seconds  = fs.Float64("seconds", 20, "run length the fixed work is sized for")
		traced   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		outDir   = fs.String("out", ".bench_build/trace", "directory for trace files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "e2ebench: -histd is required, -seconds must be positive, -trace is 0 or 1")
		return 2
	}
	res, err := bench(*bin, *workload, *seed, *seconds, *traced == 1, *outDir, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	return printResult(stdout, stderr, res)
}

// result is the run's verdict on itself plus its metrics.
type result struct {
	correct           bool
	attempted, failed int
	metrics           metrics
}

func bench(bin, workload string, seed uint64, seconds float64, traced bool, outDir string, log io.Writer) (*result, error) {
	if !traced {
		p, err := planFor(workload, seed, seconds)
		if err != nil {
			return nil, err
		}
		ph, err := execute(p, bin, "")
		if err != nil {
			return nil, err
		}
		t := tallyOf(ph.outs)
		e2e, extra := endToEnd(ph, t)
		res := &result{attempted: t.attempted, failed: t.failed, metrics: e2e}
		res.correct = judge(p, ph, t, runGate(ph.outs), log)
		report(log, workload, "end-to-end", e2e)
		report(log, workload, "also measured (not gated)", extra)
		return res, nil
	}

	// Traced: the same fixed work, half length, once untraced and once
	// traced; the per-layer metrics come from the traced half.
	p, err := planFor(workload, seed, seconds/2)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	untraced, err := execute(p, bin, "")
	if err != nil {
		return nil, err
	}
	histdTrace := filepath.Join(outDir, workload+"-histd.jsonl")
	ph, err := execute(p, bin, histdTrace)
	if err != nil {
		return nil, err
	}
	t := tallyOf(ph.outs)
	res := &result{attempted: t.attempted, failed: t.failed}
	gs := runGate(ph.outs)
	res.correct = judge(p, ph, t, gs, log)
	layers, layerExtra, err := perLayer(p, ph, untraced, gs, histdTrace, seed, filepath.Join(outDir, workload+"-spans.jsonl"))
	if err != nil {
		return nil, err
	}
	res.metrics = layers
	e2eU, _ := endToEnd(untraced, tallyOf(untraced.outs))
	e2eT, _ := endToEnd(ph, t)
	report(log, workload, "end-to-end, untraced half", e2eU)
	report(log, workload, "end-to-end, traced half", e2eT)
	report(log, workload, "per-layer", layers)
	report(log, workload, "per-layer, also measured (not listed in BENCHMARK.json)", layerExtra)
	return res, nil
}

// judge decides the run's correctness: every gated request matches its
// direct replay, every wrong verdict is the documented ADK defect, and
// the server's counters agree with the client's record.
func judge(p *plan, ph *phase, t tally, gs gateSummary, log io.Writer) bool {
	mismatches, checked := gs.mismatches, gs.checked
	bad := append(append([]string{}, mismatches...), consistency(ph, t)...)
	bad = append(bad, t.wrongDetail...)
	fmt.Fprintf(log, "# %s: gate checked %d served verdicts against direct calls, %d mismatches; %d wrong verdicts (%d the documented ADK defect); %d of %d requests failed %v\n",
		p.workload, checked, len(mismatches), t.wrong, t.wrongDefect, t.failed, t.attempted, t.byStatus)
	for _, b := range bad {
		fmt.Fprintf(log, "# INCORRECT: %s\n", b)
	}
	for i, f := range t.failDetail {
		if i == 10 {
			fmt.Fprintf(log, "# FAILED: … %d more\n", len(t.failDetail)-i)
			break
		}
		fmt.Fprintf(log, "# FAILED: %s\n", bytes.TrimSpace([]byte(f)))
	}
	if checked == 0 {
		fmt.Fprintln(log, "# INCORRECT: no served verdict was gated")
		return false
	}
	return len(bad) == 0
}

// report prints a metric set, one "name value unit" line each.
func report(w io.Writer, workload, title string, ms metrics) {
	fmt.Fprintf(w, "# %s — %s\n", workload, title)
	for _, m := range ms {
		fmt.Fprintf(w, "%-44s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

// printResult writes the final JSON line. Metrics that could not be
// measured (NaN) fail the run rather than being invented.
func printResult(w, stderr io.Writer, r *result) int {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]val{}}
	var missing []string
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			missing = append(missing, m.name)
			continue
		}
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	if len(missing) > 0 {
		fmt.Fprintf(stderr, "e2ebench: unmeasured metrics: %s\n", strings.Join(missing, ", "))
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	return 0
}
