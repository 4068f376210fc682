// Package obs is the observability layer of the tester: a structured
// event stream describing where a run's sample budget and wall-clock go
// across the four stages of Algorithm 1 (partition → learn → sieve →
// check+test), plus ready-made sinks — an in-memory recorder for tests,
// a JSON-lines emitter for offline analysis (cmd/histbench -trace-json),
// and process-wide expvar counters for a service front-end.
//
// Overhead contract: the observability layer is zero-overhead when
// disabled. A nil Observer in core.Config means no events are
// constructed, no clock is read, and no allocations happen on the
// tester's hot path (guarded by the BENCH_hotpath.json benchmarks).
// When an observer IS attached, events are flat value structs delivered
// synchronously from the run's own goroutine — attaching an observer
// never changes the tester's randomness, decision, or Trace (pinned by
// TestTraceIdenticalWithObserver).
//
// Concurrency: a single run emits events from one goroutine, but
// concurrent runs (e.g. the experiment harness's parallel trials) may
// share one Observer, so implementations must be safe for concurrent
// use. Events of concurrent runs interleave; the Run field groups them.
package obs

import (
	"sync/atomic"
	"time"
)

// Stage identifies one stage of Algorithm 1.
type Stage uint8

const (
	// StagePartition is learn.ApproxPart (Proposition 3.4).
	StagePartition Stage = iota
	// StageLearn is the Laplace learner (Lemma 3.5).
	StageLearn
	// StageSieve is the §3.2.1 sieve (heavy pass + halving rounds).
	StageSieve
	// StageCheck is the H_k-projection DP (Step 10 of Algorithm 1).
	StageCheck
	// StageTest is the final χ²-vs-TV identity test (Theorem 3.2).
	StageTest
	numStages
)

// NumStages is the number of pipeline stages.
const NumStages = int(numStages)

// String returns the stage name used in Event JSON and counter names.
func (s Stage) String() string {
	switch s {
	case StagePartition:
		return "partition"
	case StageLearn:
		return "learn"
	case StageSieve:
		return "sieve"
	case StageCheck:
		return "check"
	case StageTest:
		return "test"
	}
	return "unknown"
}

// Kind discriminates the event variants.
type Kind uint8

const (
	// KindRunStart opens a run: N, K (the requested k), Eps are set.
	KindRunStart Kind = iota
	// KindStageEnter marks entry into Stage.
	KindStageEnter
	// KindStageExit marks exit from Stage; Samples is the number of
	// oracle draws the stage consumed. Summed over a run's StageExit
	// events this equals the oracle's total draw count exactly (the
	// sample-conservation invariant, pinned by TestSampleConservation).
	// The learn stage's exit also sets Exact or ClosedForm to 1, naming
	// the count-synthesis path its one batch took.
	KindStageExit
	// KindSieveRound reports one sieve decision batch: Round (0 is the
	// stage-3a heavy pass, 1.. are the halving rounds), Removed intervals,
	// Samples drawn by the round's replicates, Workers/Replicates
	// describing the fan-out, Dense/Sparse counting-path batch tallies,
	// and the pool hit/miss deltas observed during the round.
	KindSieveRound
	// KindRunEnd closes a run: Accept and RejectStage carry the decision,
	// Samples the total draw count; Err is set when the run failed or was
	// cancelled instead of deciding.
	KindRunEnd
)

// String returns the kind name used in Event JSON.
func (k Kind) String() string {
	switch k {
	case KindRunStart:
		return "run-start"
	case KindStageEnter:
		return "stage-enter"
	case KindStageExit:
		return "stage-exit"
	case KindSieveRound:
		return "sieve-round"
	case KindRunEnd:
		return "run-end"
	}
	return "unknown"
}

// Event is one observation. It is a flat value struct — emitting one
// performs no allocation — with fields populated according to Kind (see
// the Kind constants for which fields each variant sets).
type Event struct {
	// Run groups the events of one tester invocation (process-unique,
	// from NextRunID).
	Run uint64
	// Kind discriminates the variant.
	Kind Kind
	// Stage is set on StageEnter/StageExit/SieveRound.
	Stage Stage
	// Elapsed is the monotonic time since the run's RunStart.
	Elapsed time.Duration

	// N, K, Eps are the run parameters (RunStart).
	N, K int
	Eps  float64

	// Samples is the stage's draw count (StageExit), the round's draw
	// count (SieveRound), or the run total (RunEnd).
	Samples int64

	// Round is the sieve round index: 0 for the stage-3a heavy pass,
	// 1..rounds for the halving rounds (SieveRound).
	Round int
	// Removed is the number of intervals the round discarded.
	Removed int
	// Workers is the goroutine fan-out used for the round's replicate
	// draws (1 when the oracle cannot be forked); Replicates is the
	// number of independent Poissonized batches — Replicates/Workers
	// batches per worker is the round's utilization.
	Workers, Replicates int
	// Dense and Sparse count the round's batches by counting path taken
	// (the m >= n/64 crossover of oracle.Counts).
	Dense, Sparse int
	// Exact and ClosedForm count the round's batches (SieveRound) or the
	// learn stage's one batch (its StageExit) by count-synthesis
	// strategy actually used (oracle.CountStrategy after capability
	// fallback): Exact batches drew every sample individually,
	// ClosedForm batches synthesized the tallies from the sampler's run
	// structure.
	Exact, ClosedForm int
	// PoolHits and PoolMisses are the oracle buffer-pool acquire deltas
	// observed during the round. The pool counters are process-global, so
	// under concurrent runs the attribution is approximate.
	PoolHits, PoolMisses int64

	// Accept and RejectStage carry the decision (RunEnd; RejectStage is
	// empty on accept).
	Accept      bool
	RejectStage string
	// Err is the failure (or cancellation) that ended the run without a
	// decision (RunEnd).
	Err string
}

// Observer receives the event stream of tester runs. Implementations
// must be safe for concurrent use (concurrent runs may share a sink) and
// must not block: events are delivered synchronously from the run's
// goroutine.
type Observer interface {
	Observe(Event)
}

// runCounter feeds NextRunID.
var runCounter atomic.Uint64

// NextRunID returns a process-unique run identifier. core.Test assigns
// one per observed run; sinks use it to group interleaved events.
func NextRunID() uint64 { return runCounter.Add(1) }

// multi fans events out to several sinks in order.
type multi []Observer

// Observe implements Observer.
func (m multi) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}

// Multi combines observers into one, dropping nils. It returns nil when
// no non-nil observer remains (so the result can feed core.Config
// directly and keep the disabled fast path), and the sole observer
// unwrapped when only one remains.
func Multi(obs ...Observer) Observer {
	var out multi
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
