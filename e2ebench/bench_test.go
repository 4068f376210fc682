package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"repro/histtest/client"
	"repro/internal/dist"
)

func TestTailRuleLeavesTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 … 1, unsorted on purpose
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail(1..100) = %v at p%v (ok=%v), want 90 at p90", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailMinBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailMinBeyond)
	}
	if _, _, ok := tail(xs[:tailMinBeyond]); ok {
		t.Fatal("10 samples have no percentile with 10 beyond it")
	}
	if v, _, ok := tail([]float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11}); !ok || v != 1 {
		t.Fatalf("11 samples: tail = %v (ok=%v), want the minimum", v, ok)
	}
}

// sequence renders everything histd would see of a plan.
func sequence(p *plan) []byte {
	var b bytes.Buffer
	for _, list := range [][]*request{p.closed, p.ingest, p.retests} {
		for _, r := range list {
			b.WriteString(r.class + " " + r.path + " " + r.ctype + " " + r.due.String() + "\n")
			b.Write(r.body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestSeedGivesIdenticalRequestSequence(t *testing.T) {
	for _, w := range []string{"verdict", "dataset", "stream"} {
		t.Run(w, func(t *testing.T) {
			a, err := planFor(w, 7, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := planFor(w, 7, 1)
			if err != nil {
				t.Fatal(err)
			}
			c, err := planFor(w, 8, 1)
			if err != nil {
				t.Fatal(err)
			}
			sa, sb, sc := sequence(a), sequence(b), sequence(c)
			if len(sa) == 0 {
				t.Fatal("empty request sequence")
			}
			if !bytes.Equal(sa, sb) {
				t.Fatal("the same seed produced different request sequences")
			}
			if bytes.Equal(sa, sc) {
				t.Fatal("different seeds produced the same request sequence")
			}
		})
	}
}

// gatedOutcome fakes a served answer to a gated request.
func gatedOutcome(t *testing.T, g *gateCase, served client.TestResult) *outcome {
	t.Helper()
	body, err := json.Marshal(served)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	return &outcome{req: &request{class: "test", kind: kindTest, gate: g}, status: 200, body: body, send: now, done: now}
}

func TestGateTripsOnServedMismatch(t *testing.T) {
	spec := &client.HistogramSpec{N: dsN, Cuts: quadCuts, Masses: quadMasses}
	g := oneSampleGate(spec, 11, 61, dsK, dsEps, "cdkl22", "closed-form")
	v, err := g.direct()
	if err != nil {
		t.Fatal(err)
	}
	good := v.(client.TestResult)
	good.ElapsedMS = 17 // the one field allowed to differ

	if gs := runGate([]*outcome{gatedOutcome(t, g, good)}); gs.checked != 1 || len(gs.mismatches) != 0 {
		t.Fatalf("identical verdict: checked %d, mismatches %v", gs.checked, gs.mismatches)
	}

	tampered := good
	tampered.SamplesUsed++
	other := oneSampleGate(spec, 11, 62, dsK, dsEps, "cdkl22", "closed-form") // another sampler seed
	gs := runGate([]*outcome{gatedOutcome(t, g, tampered), gatedOutcome(t, other, good)})
	if len(gs.mismatches) != 2 {
		t.Fatalf("want both mismatches reported, got %v", gs.mismatches)
	}
	p := &plan{workload: "test"}
	ph := &phase{outs: nil, vars: map[string]int64{}}
	if judge(p, ph, tally{byStatus: map[int]int{}}, gs, io.Discard) {
		t.Fatal("a run with gate mismatches was judged correct")
	}
}

func TestCertifyRefusesShortBoundsAndWideYesInstances(t *testing.T) {
	far := &instance{name: "f", d: piecewise(10, []int{5}, []float64{0.5, 0.5}), k: 1, eps: 0.3, far: true, bound: 0.29}
	if err := far.certify(); err == nil || !strings.Contains(err.Error(), "certified distance") {
		t.Fatalf("bound below eps certified: %v", err)
	}
	yes := &instance{name: "y", d: dist.Uniform(10), k: 1, eps: 0.3}
	if err := yes.certify(); err != nil {
		t.Fatal(err)
	}
	wide := &instance{name: "w", d: piecewise(10, []int{3, 6}, []float64{0.2, 0.5, 0.3}), k: 2, eps: 0.3}
	if err := wide.certify(); err == nil {
		t.Fatal("a 3-piece yes-instance certified as a 2-histogram")
	}
	ins, err := verdictInstances(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		if in.far && in.bound < in.eps {
			t.Fatalf("%s: bound %v < eps %v", in.name, in.bound, in.eps)
		}
	}
}
