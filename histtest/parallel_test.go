package histtest

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/oracle"
	"repro/internal/rng"
)

func TestSourcesDeterministicAcrossWorkers(t *testing.T) {
	// TestSources unlocks the parallel sieve path; the verdict must be
	// identical at every worker count.
	h := fourBucket(t, 1024)
	cfg := core.PracticalConfig()
	cfg.SieveReps = 5
	mk := func(stream uint64) Source { return h.Sampler(900 + stream) }
	run := func(workers int) Verdict {
		cfg.Workers = workers
		v, err := TestSources(mk, 1024, 4, 0.8, Options{Seed: 9, Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	serial := run(1)
	for _, w := range []int{0, 2, 8} {
		if got := run(w); got != serial {
			t.Fatalf("workers=%d verdict %+v differs from serial %+v", w, got, serial)
		}
	}
	if !serial.IsKHistogram {
		t.Fatalf("4-histogram rejected: %+v", serial)
	}
}

func TestSamplesUsedReportsDrawCount(t *testing.T) {
	// A dataset far below the budget must come back as ErrNeedMoreSamples
	// with Used equal to the replay's actual draw count.
	h := fourBucket(t, 256)
	src := h.Sampler(77)
	data := make([]int, 500)
	for i := range data {
		data[i] = src()
	}
	_, err := TestSamples(data, 256, 4, 0.5, Options{Seed: 3})
	var need *ErrNeedMoreSamples
	if !errors.As(err, &need) {
		t.Fatalf("err = %v, want *ErrNeedMoreSamples", err)
	}
	if need.Have != len(data) {
		t.Fatalf("Have = %d, want %d", need.Have, len(data))
	}
	if need.Used != len(data) {
		t.Fatalf("Used = %d, want the %d draws actually consumed", need.Used, len(data))
	}
}

func TestSamplesUnrelatedPanicPropagates(t *testing.T) {
	// Regression test: a panic that is NOT the replay-exhaustion sentinel
	// must propagate even when the replay happens to be exhausted at that
	// moment. Previously the recover discriminated on Remaining() == 0
	// and silently misreported any coinciding panic as a small dataset.
	const n, k = 64, 2
	const eps = 0.5
	cfg := core.PracticalConfig()

	// Dry run to find the exact partition+learn budget, then record
	// exactly that many draws so the dataset runs dry at sieve entry.
	d := dist.Uniform(n)
	dryRes, err := core.Test(oracle.NewSampler(d, rng.New(600)), rng.New(601), k, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut := dryRes.Trace.PartitionSamples + dryRes.Trace.LearnSamples
	data := oracle.DrawN(oracle.NewSampler(d, rng.New(600)), int(cut))

	// Sabotage the sieve: a negative Poisson mean panics inside rng, with
	// the replay exhausted at exactly that point.
	bad := cfg
	bad.SieveMFactor = -1
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unrelated panic was swallowed")
		}
		if s, ok := r.(string); !ok || s != "rng: Poisson with negative or NaN mean" {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	v, err := TestSamples(data, n, k, eps, Options{Seed: 601, Config: &bad})
	t.Fatalf("TestSamples returned (%+v, %v), want the rng panic to propagate", v, err)
}
