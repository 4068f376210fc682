package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMultiDropsNilsAndUnwraps(t *testing.T) {
	if got := Multi(nil, nil); got != nil {
		t.Fatalf("Multi(nil, nil) = %v, want nil", got)
	}
	rec := NewTraceRecorder()
	if got := Multi(nil, rec); got != Observer(rec) {
		t.Fatalf("Multi with one live sink should unwrap it, got %T", got)
	}
	rec2 := NewTraceRecorder()
	m := Multi(rec, nil, rec2)
	m.Observe(Event{Kind: KindRunStart, Run: 7})
	if rec.Len() != 1 || rec2.Len() != 1 {
		t.Fatalf("fan-out failed: %d, %d events", rec.Len(), rec2.Len())
	}
}

func TestRecorderGroupsRuns(t *testing.T) {
	rec := NewTraceRecorder()
	rec.Observe(Event{Run: 1, Kind: KindStageExit, Stage: StagePartition, Samples: 10})
	rec.Observe(Event{Run: 2, Kind: KindStageExit, Stage: StageLearn, Samples: 5})
	rec.Observe(Event{Run: 1, Kind: KindStageExit, Stage: StageSieve, Samples: 7})
	runs := rec.Runs()
	if len(runs) != 2 || runs[0] != 1 || runs[1] != 2 {
		t.Fatalf("Runs() = %v", runs)
	}
	ss := rec.StageSamples(1)
	if ss[StagePartition] != 10 || ss[StageSieve] != 7 || len(ss) != 2 {
		t.Fatalf("StageSamples(1) = %v", ss)
	}
	rec.Reset()
	if rec.Len() != 0 {
		t.Fatal("Reset left events behind")
	}
}

func TestRecorderConcurrentObserve(t *testing.T) {
	rec := NewTraceRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(run uint64) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rec.Observe(Event{Run: run, Kind: KindSieveRound, Round: i})
			}
		}(uint64(g))
	}
	wg.Wait()
	if rec.Len() != 800 {
		t.Fatalf("lost events: %d != 800", rec.Len())
	}
	for g := 0; g < 8; g++ {
		evs := rec.RunEvents(uint64(g))
		if len(evs) != 100 {
			t.Fatalf("run %d has %d events", g, len(evs))
		}
		for i, e := range evs {
			if e.Round != i {
				t.Fatalf("run %d out of order at %d: %d", g, i, e.Round)
			}
		}
	}
}

func TestJSONLinesSchema(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONLines(&buf)
	j.Observe(Event{
		Run: 3, Kind: KindRunStart, N: 1024, K: 4, Eps: 0.4,
		Elapsed: 1500 * time.Microsecond,
	})
	j.Observe(Event{
		Run: 3, Kind: KindSieveRound, Stage: StageSieve, Round: 2,
		Removed: 1, Workers: 4, Replicates: 7, Dense: 7, PoolHits: 6, PoolMisses: 1,
		Samples: 12345,
	})
	j.Observe(Event{Run: 3, Kind: KindStageExit, Stage: StageLearn, Samples: 4096, ClosedForm: 1})
	j.Observe(Event{Run: 3, Kind: KindRunEnd, Accept: true, Samples: 99999})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 JSONL lines, got %d: %q", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["kind"] != "run-start" || first["n"] != float64(1024) || first["elapsed_us"] != float64(1500) {
		t.Fatalf("run-start line wrong: %v", first)
	}
	if _, hasStage := first["stage"]; hasStage {
		t.Fatalf("run-start should omit stage: %v", first)
	}
	var round map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &round); err != nil {
		t.Fatal(err)
	}
	if round["stage"] != "sieve" || round["round"] != float64(2) || round["dense_batches"] != float64(7) {
		t.Fatalf("sieve-round line wrong: %v", round)
	}
	// The learn stage's exit names the count-synthesis path of its batch.
	var learn map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &learn); err != nil {
		t.Fatal(err)
	}
	if learn["kind"] != "stage-exit" || learn["stage"] != "learn" || learn["closed_form_batches"] != float64(1) {
		t.Fatalf("learn stage-exit line wrong: %v", learn)
	}
	if _, hasExact := learn["exact_batches"]; hasExact {
		t.Fatalf("closed-form learn exit should omit exact_batches: %v", learn)
	}
}

func TestExpvarSinkCounts(t *testing.T) {
	s := Expvar()
	if s != Expvar() {
		t.Fatal("Expvar must be a singleton")
	}
	before := s.accepted.Value()
	beforeSieve := s.samplesByStage[StageSieve].Value()
	s.Observe(Event{Kind: KindRunStart})
	s.Observe(Event{Kind: KindStageExit, Stage: StageSieve, Samples: 42})
	s.Observe(Event{Kind: KindSieveRound, Removed: 3})
	s.Observe(Event{Kind: KindRunEnd, Accept: true, Samples: 100})
	if s.accepted.Value() != before+1 {
		t.Fatal("accepted counter did not advance")
	}
	if s.samplesByStage[StageSieve].Value() != beforeSieve+42 {
		t.Fatal("per-stage sample counter did not advance")
	}
	s.Observe(Event{Kind: KindRunEnd, Err: "context canceled"})
	if s.failed.Value() < 1 {
		t.Fatal("failed counter did not advance")
	}
}

func TestNextRunIDUnique(t *testing.T) {
	a, b := NextRunID(), NextRunID()
	if a == b || b != a+1 {
		t.Fatalf("NextRunID not monotone: %d, %d", a, b)
	}
}

func TestStageAndKindNames(t *testing.T) {
	names := map[string]bool{}
	for st := Stage(0); st < numStages; st++ {
		names[st.String()] = true
	}
	if len(names) != NumStages || names["unknown"] {
		t.Fatalf("stage names not distinct: %v", names)
	}
	for _, k := range []Kind{KindRunStart, KindStageEnter, KindStageExit, KindSieveRound, KindRunEnd} {
		if k.String() == "unknown" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
}
