package exper

import (
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/chisq"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/stats"
)

// --- E11: Poissonization ablation (Section 2 "Poissonization") ---

func e11() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "Ablation: Poissonized vs fixed-m sampling for the χ² statistic",
		Claim: "Section 2: Poissonization costs only a negligible constant — fixed-m counts give the same statistic behaviour with slightly smaller variance (negative multinomial correlations)",
		Run: func(rc RunConfig) ([]*Table, error) {
			r := rc.rng()
			n := 1 << 10
			eps := 0.3
			params := chisq.PracticalParams()
			reps := rc.pick(100, 400)
			full := intervals.FullDomain(n)
			uniform := dist.Uniform(n)
			far, _ := gen.BlockComb(uniform, 64, 0.35)

			collect := func(d dist.Distribution, fixed bool) (mean, sd, acceptRate float64) {
				zs := make([]float64, reps)
				accepts := 0
				for i := 0; i < reps; i++ {
					s := samplerFor(d, r.Split())
					var res chisq.Result
					if fixed {
						res = chisq.TestFixed(s, r, uniform, full, eps, params)
					} else {
						res = chisq.TestWith(s, r, uniform, full, eps, params, oracle.CountExact)
					}
					zs[i] = res.Z
					if res.Accept {
						accepts++
					}
				}
				return stats.Mean(zs), math.Sqrt(stats.Variance(zs)), float64(accepts) / float64(reps)
			}

			tb := &Table{
				Title:  fmt.Sprintf("E11: χ² statistic with and without Poissonization (n=%d, ε=%.2f, D*=uniform)", n, eps),
				Header: []string{"instance", "sampling", "mean Z", "sd Z", "accept rate"},
			}
			for _, inst := range []struct {
				name string
				d    dist.Distribution
			}{{"D = D* (null)", uniform}, {"D 0.35-far", far}} {
				for _, mode := range []struct {
					name  string
					fixed bool
				}{{"poisson(m)", false}, {"fixed m", true}} {
					mean, sd, rate := collect(inst.d, mode.fixed)
					tb.AddRow(inst.name, mode.name, fmt.Sprintf("%.1f", mean), fmt.Sprintf("%.1f", sd), fmt.Sprintf("%.2f", rate))
				}
				rc.progress("E11: %s done", inst.name)
			}
			tb.Note("paper claim: verdicts agree in both modes; Poissonization is an analysis device, not a statistical necessity")
			tb.Note("fixed-m null variance is slightly smaller (multinomial counts are negatively correlated)")
			return []*Table{tb}, nil
		},
	}
}

// --- E12: the Step-10 check is load-bearing (Algorithm 1) ---

func e12() Experiment {
	return Experiment{
		ID:    "E12",
		Title: "Ablation: removing the DP check (Step 10) breaks soundness",
		Claim: "Algorithm 1: the final χ² test only compares D to the LEARNED D̂; when D is far from H_k but equals its own flattening, only the check stage can reject",
		Run: func(rc RunConfig) ([]*Table, error) {
			r := rc.rng()
			n := 2048
			k := 2
			eps := 0.45
			trials := rc.pick(8, 16)
			// Sprinkled heavy spikes: 30 isolated atoms of mass 1/30. Every
			// atom clears ApproxPart's heavy threshold and becomes a
			// singleton, so the learned D̂ is essentially exact, the sieve
			// finds nothing to remove, and the final χ² test of D against
			// D̂ ≈ D passes — yet D is ~0.9-far from H_2. Only the Step-10
			// check (D̂ itself far from H_2) can reject.
			spikes := func(rr *rng.RNG) dist.Distribution {
				const ell = 30
				p := make([]float64, n)
				perm := rr.Perm(n)
				for i := 0; i < ell; i++ {
					p[perm[i]] = 1.0 / ell
				}
				return dist.MustDense(p)
			}
			hist := gen.KHistogram(r, n, k)

			withCheck := rc.canonne()
			noCheckCfg := core.PracticalConfig()
			noCheckCfg.SkipCheck = true
			noCheck := &baselines.Canonne{Config: noCheckCfg}

			tb := &Table{
				Title:  fmt.Sprintf("E12: accept rates with and without the Step-10 check (n=%d, k=%d, ε=%.2f)", n, k, eps),
				Header: []string{"instance", "want", "full algorithm", "check removed"},
			}
			for _, row := range []struct {
				name string
				inst Instance
				want string
			}{
				{"random 2-histogram", Fixed(hist), "accept"},
				{"30 sprinkled spikes (far)", spikes, "reject"},
			} {
				cells := []string{row.name, row.want}
				for _, tester := range []baselines.Tester{withCheck, noCheck} {
					rate, err := AcceptRate(rc.ctx(), tester, row.inst, k, eps, trials, r)
					if err != nil {
						return nil, err
					}
					cells = append(cells, fmt.Sprintf("%.2f", rate.Rate))
				}
				tb.AddRow(cells...)
				rc.progress("E12: %s done", row.name)
			}
			tb.Note("paper claim: the checkless variant falsely accepts the spikes — the learned D̂ ≈ D passes the identity test even though D is ~0.9-far from H_2")
			return []*Table{tb}, nil
		},
	}
}
