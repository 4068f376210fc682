package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// observedRun runs one Test with a TraceRecorder attached and returns the
// recorder, the oracle's realized draw count, and the result.
func observedRun(t *testing.T, d dist.Distribution, k int, eps float64, workers int, seed uint64) (*obs.TraceRecorder, int64, *Result) {
	t.Helper()
	rec := obs.NewTraceRecorder()
	cfg := PracticalConfig()
	cfg.Workers = workers
	cfg.Observer = rec
	r := rng.New(seed)
	s := oracle.NewSampler(d, r)
	res, err := Test(s, r, k, eps, cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return rec, s.Samples(), res
}

// TestSampleConservation is the conservation property of the event
// stream: the per-stage SamplesDrawn reported by StageExit events must
// sum EXACTLY to the oracle's total draw counter — at every worker
// count, including the parallel sieve whose replicate clones fold their
// draws back into the parent. Any unfolded clone draw, double-counted
// batch, or stage boundary misplacement breaks the equality.
func TestSampleConservation(t *testing.T) {
	d := threeHistogram(512)
	for _, workers := range []int{1, 4, 0} {
		rec, drawn, res := observedRun(t, d, 3, 0.5, workers, 41)
		runs := rec.Runs()
		if len(runs) != 1 {
			t.Fatalf("workers=%d: %d runs recorded, want 1", workers, len(runs))
		}
		perStage := rec.StageSamples(runs[0])
		var sum int64
		for _, v := range perStage {
			sum += v
		}
		if sum != drawn {
			t.Fatalf("workers=%d: stage samples sum to %d, oracle drew %d (per stage: %v)",
				workers, sum, drawn, perStage)
		}
		if sum != res.Trace.TotalSamples() {
			t.Fatalf("workers=%d: stage samples sum to %d, Trace totals %d",
				workers, sum, res.Trace.TotalSamples())
		}
		// Stage attribution must match the Trace accounting field by field.
		tr := res.Trace
		for _, c := range []struct {
			stage obs.Stage
			want  int64
		}{
			{obs.StagePartition, tr.PartitionSamples},
			{obs.StageLearn, tr.LearnSamples},
			{obs.StageSieve, tr.SieveSamples},
			{obs.StageTest, tr.TestSamples},
		} {
			if perStage[c.stage] != c.want {
				t.Fatalf("workers=%d: stage %v reported %d samples, Trace says %d",
					workers, c.stage, perStage[c.stage], c.want)
			}
		}
		if perStage[obs.StageCheck] != 0 {
			t.Fatalf("workers=%d: check stage drew %d samples, want 0", workers, perStage[obs.StageCheck])
		}
	}
}

// TestSieveRoundEventsAccounted pins the SieveRound sub-accounting: round
// draw counts sum to the sieve stage total, every round reports the
// replicate fan-out, and the dense/sparse batch tallies cover all
// replicates.
func TestSieveRoundEventsAccounted(t *testing.T) {
	rec, _, res := observedRun(t, threeHistogram(512), 3, 0.5, 4, 43)
	run := rec.Runs()[0]
	var roundSum int64
	rounds := 0
	for _, e := range rec.RunEvents(run) {
		if e.Kind != obs.KindSieveRound {
			continue
		}
		rounds++
		roundSum += e.Samples
		if e.Replicates <= 0 || e.Workers <= 0 {
			t.Fatalf("round %d: replicates=%d workers=%d", e.Round, e.Replicates, e.Workers)
		}
		if e.Dense+e.Sparse != e.Replicates {
			t.Fatalf("round %d: dense %d + sparse %d != replicates %d",
				e.Round, e.Dense, e.Sparse, e.Replicates)
		}
	}
	if want := res.Trace.SieveRoundsRun + 1; rounds != want {
		t.Fatalf("recorded %d SieveRound events, Trace ran %d rounds (+1 heavy pass)", rounds, want)
	}
	if roundSum != res.Trace.SieveSamples {
		t.Fatalf("rounds sum to %d draws, sieve stage drew %d", roundSum, res.Trace.SieveSamples)
	}
}

// TestSieveRoundWorkersReportsLaunched pins the Workers field of
// SieveRound events against the goroutines the chunked scheduler really
// launches. With reps=5 and cfg.Workers=4 the chunk size is ⌈5/4⌉ = 2,
// which covers all replicates in 3 chunks — so only 3 workers run, and
// the round event must say 3, not the configured 4.
func TestSieveRoundWorkersReportsLaunched(t *testing.T) {
	rec := obs.NewTraceRecorder()
	cfg := PracticalConfig()
	cfg.Workers = 4
	cfg.SieveReps = 5
	cfg.Observer = rec
	r := rng.New(47)
	s := oracle.NewSampler(threeHistogram(512), r)
	if _, err := Test(s, r, 3, 0.5, cfg); err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for _, e := range rec.RunEvents(rec.Runs()[0]) {
		if e.Kind != obs.KindSieveRound {
			continue
		}
		rounds++
		if e.Replicates != 5 {
			t.Fatalf("round %d: replicates=%d, want the configured 5", e.Round, e.Replicates)
		}
		if e.Workers != 3 {
			t.Fatalf("round %d: workers=%d, want 3 (⌈5/2⌉ launched goroutines)", e.Round, e.Workers)
		}
	}
	if rounds == 0 {
		t.Fatal("no SieveRound events recorded")
	}
}

// cancelOnSieve cancels its context the first time a sieve round
// completes — a deterministic mid-run cancellation point that works on
// both the serial and parallel sieve paths (round events are emitted
// from the run goroutine).
type cancelOnSieve struct {
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelOnSieve) Observe(e obs.Event) {
	if e.Kind == obs.KindSieveRound {
		c.once.Do(c.cancel)
	}
}

// TestCancellationWithinOneSieveRound pins the cancellation granularity
// contract: a context cancelled during sieve round R must surface
// ctx.Err() before round R+2 begins — i.e. at most one more round event
// may appear — and the event stream must still close with a RunEnd
// carrying the error.
func TestCancellationWithinOneSieveRound(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		rec := obs.NewTraceRecorder()
		cfg := PracticalConfig()
		cfg.Workers = workers
		cfg.Observer = obs.Multi(rec, &cancelOnSieve{cancel: cancel})
		r := rng.New(47)
		s := oracle.NewSampler(threeHistogram(512), r)
		res, err := TestContext(ctx, s, r, 3, 0.5, cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if res != nil {
			t.Fatalf("workers=%d: cancelled run returned a result", workers)
		}
		roundEvents := 0
		for _, e := range rec.Events() {
			if e.Kind == obs.KindSieveRound {
				roundEvents++
			}
		}
		if roundEvents > 2 {
			t.Fatalf("workers=%d: %d sieve rounds ran after cancellation at the first", workers, roundEvents)
		}
		evs := rec.Events()
		last := evs[len(evs)-1]
		if last.Kind != obs.KindRunEnd || last.Err == "" {
			t.Fatalf("workers=%d: stream ends with %v (err %q), want RunEnd with error", workers, last.Kind, last.Err)
		}
	}
}

// TestPreCancelledContext: a context cancelled before the call draws
// nothing and returns immediately.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := rng.New(48)
	s := oracle.NewSampler(threeHistogram(512), r)
	_, err := TestContext(ctx, s, r, 3, 0.5, PracticalConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Samples() != 0 {
		t.Fatalf("pre-cancelled run drew %d samples", s.Samples())
	}
}

// TestCancellationReleasesPooledCounts is the leak test of the pooled
// buffer contract: across a cancelled run — serial and parallel — every
// pooled Counts acquired by a batch draw must have been released by the
// time TestContext returns. The pool counters are process-global, so the
// delta is taken tightly around the serialized run (package tests do not
// run in parallel).
func TestCancellationReleasesPooledCounts(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := PracticalConfig()
		cfg.Workers = workers
		cfg.Observer = &cancelOnSieve{cancel: cancel}
		r := rng.New(53)
		s := oracle.NewSampler(threeHistogram(512), r)
		before := oracle.PoolStatsSnapshot()
		_, err := TestContext(ctx, s, r, 3, 0.5, cfg)
		after := oracle.PoolStatsSnapshot()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		acq := after.Acquires - before.Acquires
		rel := after.Releases - before.Releases
		if acq == 0 {
			t.Fatalf("workers=%d: no pooled acquisitions before cancellation", workers)
		}
		if acq != rel {
			t.Fatalf("workers=%d: cancelled run leaked pooled Counts: %d acquired, %d released", workers, acq, rel)
		}
	}
}

// TestCompletedRunBalancesPool: the same acquire/release balance must
// hold on ordinary completed runs (accept and reject alike).
func TestCompletedRunBalancesPool(t *testing.T) {
	for _, d := range []dist.Distribution{threeHistogram(512), comb(512)} {
		r := rng.New(59)
		s := oracle.NewSampler(d, r)
		before := oracle.PoolStatsSnapshot()
		if _, err := Test(s, r, 3, 0.5, PracticalConfig()); err != nil {
			t.Fatal(err)
		}
		after := oracle.PoolStatsSnapshot()
		acq := after.Acquires - before.Acquires
		rel := after.Releases - before.Releases
		if acq == 0 || acq != rel {
			t.Fatalf("completed run: %d acquired, %d released", acq, rel)
		}
	}
}

// TestEventStreamWellFormed checks the stream grammar on an ordinary
// run: exactly one RunStart first and one RunEnd last, every StageEnter
// matched by a StageExit of the same stage, stages in pipeline order.
func TestEventStreamWellFormed(t *testing.T) {
	rec, _, res := observedRun(t, threeHistogram(512), 3, 0.5, 0, 61)
	evs := rec.Events()
	if evs[0].Kind != obs.KindRunStart {
		t.Fatalf("first event is %v", evs[0].Kind)
	}
	if evs[0].N != 512 || evs[0].K != 3 || evs[0].Eps != 0.5 {
		t.Fatalf("RunStart parameters: n=%d k=%d eps=%v", evs[0].N, evs[0].K, evs[0].Eps)
	}
	last := evs[len(evs)-1]
	if last.Kind != obs.KindRunEnd {
		t.Fatalf("last event is %v", last.Kind)
	}
	if last.Accept != res.Accept {
		t.Fatalf("RunEnd accept %v, result accept %v", last.Accept, res.Accept)
	}
	var open []obs.Stage
	var order []obs.Stage
	for _, e := range evs {
		switch e.Kind {
		case obs.KindStageEnter:
			open = append(open, e.Stage)
			order = append(order, e.Stage)
		case obs.KindStageExit:
			if len(open) == 0 || open[len(open)-1] != e.Stage {
				t.Fatalf("StageExit(%v) without matching enter", e.Stage)
			}
			open = open[:len(open)-1]
			assertStageExitTallies(t, "exact run", e, oracle.CountExact)
		}
	}
	if len(open) != 0 {
		t.Fatalf("unclosed stages: %v", open)
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("stages out of pipeline order: %v", order)
		}
	}
	// Timestamps are monotone (events are emitted in order from one
	// goroutine with a monotonic clock).
	for i := 1; i < len(evs); i++ {
		if evs[i].Elapsed < evs[i-1].Elapsed {
			t.Fatalf("event %d elapsed %v precedes event %d elapsed %v", i, evs[i].Elapsed, i-1, evs[i-1].Elapsed)
		}
	}
}
