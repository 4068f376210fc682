package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/histdp"
	"repro/internal/intervals"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Engine is one tester algorithm behind the shared driver
// (Arena.TestContext). The contract splits responsibilities so every
// engine inherits the service guarantees for free:
//
// The DRIVER owns input validation (k, ε ranges), the trivial k >= n
// accept, observer attachment and the RunStart/RunEnd bracketing of the
// trivial and error paths, and the nominal-budget guard against
// Config.MaxSamples (via the engine's ExpectedSamples). The ENGINE owns
// only the statistic and decision logic between those brackets.
//
// An engine implementation must:
//
//   - draw every sample through the provided oracle (and fold clone
//     draws back via oracle.Forker.Absorb), so Trace.TotalSamples()
//     always equals the oracle's draw count — budget conservation;
//   - resolve Config.CountStrategy once per run through
//     oracle.EffectiveStrategy and honor the resolved strategy on every
//     Poissonized batch and on the learner's fixed-m batch (the shared
//     prelude does the latter: under closed form the learner draws its
//     interval totals as one multinomial). The ApproxPart batch stays
//     per-sample under both strategies, because the partition needs
//     per-element counts;
//   - check ctx before every Poissonized batch draw and at every
//     round boundary, release all pooled oracle.Counts on every path
//     (cancellation included), and surface ctx.Err() through
//     Arena.fail so the RunEnd event is emitted;
//   - treat Config.Workers as a pure throughput knob: the decision and
//     the Trace must be bit-identical for every value, which in practice
//     means splitting all per-replicate randomness from r sequentially
//     before any goroutine launches;
//   - emit obs stage events in strictly increasing Stage order
//     (skipping stages is fine, reordering is not), with StageExit
//     sample counts that sum to the oracle's draws;
//   - never consume randomness from Arena scratch management or
//     observer emission.
//
// The cross-engine conformance suite (conformance_test.go) asserts all
// of this against every registered engine, so a new engine only has to
// register itself to inherit the battery.
//
// Engines are registered by the package itself (the run method is
// unexported), keeping the invariant that everything selectable by name
// has passed the conformance suite.
type Engine interface {
	// Name is the identifier used by Config.Engine, the histbench
	// -engine flag, and the histd request field.
	Name() string
	// ExpectedSamples is the engine's nominal total sample budget for
	// one run — the driver's guard against accidentally astronomical
	// configurations, and the sizing estimate the experiment harness
	// uses.
	ExpectedSamples(n, k int, eps float64, cfg Config) int64
	// run executes the pipeline. The driver has already validated the
	// inputs, handled k >= n, emitted RunStart, and applied the budget
	// guard; the engine emits its own stage events and the RunEnd of
	// every non-error outcome.
	run(ctx context.Context, a *Arena, o oracle.Oracle, r *rng.RNG, k int, eps float64, cfg Config) (*Result, error)
}

// DefaultEngine is the engine selected by an empty Config.Engine: the
// source paper's Algorithm 1 (partition → learn → sieve → check → test).
const DefaultEngine = "adk"

// engines is the registry of selectable testers. Registration is
// compile-time only: every name listed here is exercised by the
// conformance suite.
var engines = map[string]Engine{
	"adk":    adkEngine{},
	"cdkl22": cdklEngine{},
}

// Engines returns the registered engine names in sorted order.
func Engines() []string {
	names := make([]string, 0, len(engines))
	for name := range engines {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// EngineFor resolves an engine name ("" means DefaultEngine). Serving
// layers call this at admission time so an unknown name is a 4xx before
// it costs a queue slot, never a silent fallback to the default.
func EngineFor(name string) (Engine, error) {
	if name == "" {
		name = DefaultEngine
	}
	eng, ok := engines[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown engine %q (registered: %v)", name, Engines())
	}
	return eng, nil
}

// The stages every engine shares. Each run opens with the partition →
// learn prelude and ends on the H_k check and the result tail; an engine
// owns only its middle (the ADK sieve and final χ² test, the CDKL'22
// trimmed flatness test).

// preludeSamples is the nominal budget of the shared prelude: one
// ApproxPart batch plus the learner's batch over the K <= ~7b/3 + 2
// intervals ApproxPart yields. It is a float64 so the engines can add
// their own terms without wrapping; ExpectedSamples saturates the sum.
func preludeSamples(k int, eps float64, cfg Config) float64 {
	b := cfg.PartB(k, eps)
	partM := learn.ApproxPartSamples(b, cfg.PartSampleC)
	K := int(stats.SaturatingInt64(math.Floor(7*b/3) + 2))
	learnM := learn.LearnSamples(K, eps/cfg.LearnEpsDivisor, cfg.LearnSampleC)
	return float64(partM) + float64(learnM)
}

// prelude runs stage 1, ApproxPart(b) (Proposition 3.4), and stage 2,
// the learner (Lemma 3.5), filling tr's N, B, K and stage sample counts
// and emitting the stage events. The learner honors the resolved count
// strategy, and its StageExit event reports which path the batch took
// (Exact or ClosedForm = 1). It starts the sample mark that took
// advances.
func (a *Arena) prelude(ctx context.Context, o oracle.Oracle, r *rng.RNG, k int, eps float64, cfg Config, tr *Trace) (*intervals.Partition, *dist.PiecewiseConstant, error) {
	tr.N = o.N()
	a.mark = o.Samples()

	a.emit(obs.Event{Kind: obs.KindStageEnter, Stage: obs.StagePartition})
	tr.B = cfg.PartB(k, eps)
	part, err := learn.ApproxPartContext(ctx, o, r, tr.B, cfg.PartSampleC)
	if err != nil {
		return nil, nil, err
	}
	p := part.Partition
	tr.K = p.Count()
	tr.PartitionSamples = a.took(o)
	a.emit(obs.Event{Kind: obs.KindStageExit, Stage: obs.StagePartition, Samples: tr.PartitionSamples})

	a.emit(obs.Event{Kind: obs.KindStageEnter, Stage: obs.StageLearn})
	cs := oracle.EffectiveStrategy(o, cfg.CountStrategy)
	dhat, _, err := learn.LearnContext(ctx, o, r, p, eps/cfg.LearnEpsDivisor, cfg.LearnSampleC, cs)
	if err != nil {
		return nil, nil, err
	}
	tr.LearnSamples = a.took(o)
	exit := obs.Event{Kind: obs.KindStageExit, Stage: obs.StageLearn, Samples: tr.LearnSamples, Exact: 1}
	if cs == oracle.CountClosedForm {
		exit.Exact, exit.ClosedForm = 0, 1
	}
	a.emit(exit)
	return p, dhat, nil
}

// took returns o's draws since the last mark and advances the mark.
func (a *Arena) took(o oracle.Oracle) int64 {
	d := o.Samples() - a.mark
	a.mark = o.Samples()
	return d
}

// check runs the H_k check (Step 10 of Algorithm 1, the histdp DP):
// unless skip, the distance of dhat to H_k on g must be within tol or
// the run rejects at StageCheck; where names g in the reject reason. The
// context is checked before the check and again before the stage that
// follows it. A nil Result and nil error mean the run goes on.
func (a *Arena) check(ctx context.Context, tr *Trace, dhat *dist.PiecewiseConstant, k int, g *intervals.Domain, where string, tol float64, skip bool) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return a.fail(tr.TotalSamples(), err)
	}
	if !skip {
		a.emit(obs.Event{Kind: obs.KindStageEnter, Stage: obs.StageCheck})
		proj, err := histdp.ProjectTV(dhat, k, g)
		if err != nil {
			return a.fail(tr.TotalSamples(), fmt.Errorf("core: check DP failed: %w", err))
		}
		tr.CheckRelaxed = proj.Relaxed
		a.emit(obs.Event{Kind: obs.KindStageExit, Stage: obs.StageCheck})
		if proj.Relaxed > tol {
			return a.reject(tr, dhat, g, StageCheck, fmt.Sprintf("distance of D̂ to H_k on %s is %.5f > tolerance %.5f", where, proj.Relaxed, tol))
		}
	}
	if err := ctx.Err(); err != nil {
		return a.fail(tr.TotalSamples(), err)
	}
	return nil, nil
}

// reject records the deciding stage and reason in tr and closes the run.
func (a *Arena) reject(tr *Trace, dhat *dist.PiecewiseConstant, g *intervals.Domain, stage, reason string) (*Result, error) {
	tr.RejectStage, tr.RejectReason = stage, reason
	return a.finish(tr, dhat, g)
}

// finish closes a decided run: it emits RunEnd and returns the Result,
// which accepts unless tr records a rejection.
func (a *Arena) finish(tr *Trace, dhat *dist.PiecewiseConstant, g *intervals.Domain) (*Result, error) {
	accept := tr.RejectStage == ""
	if a.ob != nil {
		a.emit(obs.Event{Kind: obs.KindRunEnd, Accept: accept, Samples: tr.TotalSamples(), RejectStage: tr.RejectStage})
	}
	return &Result{Accept: accept, Trace: *tr, Learned: dhat, Domain: g}, nil
}
