package main

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/benchhot"
	"repro/internal/cli"
)

// ingestGateTolerance is the fractional events/s drop the ingest gate
// allows between like-for-like entries. Wider than the hot-path ns
// tolerance: throughput soaks are the noisiest numbers we gate, and the
// absolute 1M events/s floor backstops the 4-way entry regardless.
const ingestGateTolerance = 0.30

// measureIngest runs the streaming-ingestion soak benchmarks and
// returns a fresh report. Parallel entries run with GOMAXPROCS raised
// to the recorded value (timeshared on smaller machines, as the note
// states), same discipline as the hot-path report.
func measureIngest(stderr io.Writer) cli.IngestReport {
	run := func(name string, procs int, body func(b *testing.B)) cli.IngestResult {
		fmt.Fprintf(stderr, "running %s (gomaxprocs %d)...\n", name, procs)
		r := benchAt(procs, body)
		return cli.IngestResult{
			Iterations:   r.N,
			EventsPerSec: r.Extra["events/s"],
			NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:  r.AllocsPerOp(),
			GOMAXPROCS:   procs,
			Note:         measuredNote(procs),
		}
	}
	return cli.IngestReport{
		Schema:   cli.IngestSchema,
		Go:       runtime.Version(),
		Workload: "sharded accumulator ingest, domain 2^16 dense, 4096-event batches; Soak entries share one accumulator across N goroutines, Decode entries include wire parsing",
		Results: map[string]cli.IngestResult{
			"BenchmarkIngestSoak": run("BenchmarkIngestSoak", 1,
				func(b *testing.B) { benchhot.IngestSoak(b, 1) }),
			"BenchmarkIngestSoakParallel2": run("BenchmarkIngestSoakParallel2", 2,
				func(b *testing.B) { benchhot.IngestSoak(b, 2) }),
			"BenchmarkIngestSoakParallel4": run("BenchmarkIngestSoakParallel4", 4,
				func(b *testing.B) { benchhot.IngestSoak(b, 4) }),
			"BenchmarkIngestDecodeBinary": run("BenchmarkIngestDecodeBinary", 1,
				benchhot.IngestDecodeBinary),
			"BenchmarkIngestDecodeNDJSON": run("BenchmarkIngestDecodeNDJSON", 1,
				benchhot.IngestDecodeNDJSON),
		},
	}
}

// gateIngest is the CI throughput gate: re-measure the ingest soaks and
// fail when events/s fell more than ingestGateTolerance below the
// committed report at path (like-for-like gomaxprocs only), or when a
// 4-way entry dropped under the absolute 1M events/s floor. Returns the
// number of violations.
func gateIngest(path string, stdout, stderr io.Writer) (int, error) {
	committed, err := cli.LoadIngestReport(path)
	if err != nil {
		return 0, err
	}
	fresh := measureIngest(stderr)
	violations, skipped := cli.CompareIngest(committed.Results, fresh.Results, ingestGateTolerance, cli.IngestFloorEventsPerSec)
	for _, s := range skipped {
		fmt.Fprintf(stderr, "histbench: ingest gate: %s\n", s)
	}
	for _, v := range violations {
		fmt.Fprintf(stderr, "histbench: ingest gate: %s\n", v)
	}
	if len(violations) == 0 {
		fmt.Fprintf(stdout, "ingest gate: %d benchmark(s) within %.0f%% events/s of %s, 4-way soak above the %.0fM events/s floor (%d comparison(s) skipped as not like-for-like)\n",
			len(committed.Results)-len(skipped), ingestGateTolerance*100, path, cli.IngestFloorEventsPerSec/1e6, len(skipped))
	}
	return len(violations), nil
}
