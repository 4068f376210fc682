package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cli"
)

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListFlag(t *testing.T) {
	code, out, _ := runCmd("-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, id := range []string{"E1", "E6", "claim:"} {
		if !strings.Contains(out, id) {
			t.Fatalf("-list output missing %q:\n%s", id, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"bad flag value", []string{"-workers", "two"}},
		{"positional args", []string{"stray"}},
		{"unknown experiment", []string{"-run", "E99"}},
		{"unknown engine", []string{"-run", "E1", "-engine", "adk2"}},
		{"engine case-sensitive", []string{"-run", "E1", "-engine", "ADK"}},
	}
	for _, tc := range cases {
		if code, _, _ := runCmd(tc.args...); code != 2 {
			t.Errorf("%s: run(%v) = %d, want 2", tc.name, tc.args, code)
		}
	}
	// The unknown-engine refusal must name the registered engines, so the
	// operator can self-correct without reading source.
	if _, _, errb := runCmd("-run", "E1", "-engine", "adk2"); !strings.Contains(errb, "adk") || !strings.Contains(errb, "cdkl22") {
		t.Errorf("unknown-engine error does not list the registry: %q", errb)
	}
}

// TestEngineFlagSelectsEngine runs the cheapest experiment under each
// registered engine: the flag must reach core.Config.Engine (the cdkl22
// run would fail loudly if the dispatch fell back to the default while
// claiming otherwise — its trace has no sieve rounds).
func TestEngineFlagSelectsEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (quick) experiment per engine")
	}
	for _, engine := range []string{"adk", "cdkl22"} {
		trace := filepath.Join(t.TempDir(), engine+".jsonl")
		code, out, errb := runCmd("-run", "E1", "-quick", "-engine", engine, "-trace-json", trace)
		if code != 0 {
			t.Fatalf("engine %s: exited %d:\n%s", engine, code, errb)
		}
		if !strings.Contains(out, "=== E1") {
			t.Fatalf("engine %s: missing experiment header:\n%s", engine, out)
		}
		payload, err := os.ReadFile(trace)
		if err != nil {
			t.Fatalf("engine %s: reading trace: %v", engine, err)
		}
		hasSieve := strings.Contains(string(payload), `"sieve-round"`)
		if engine == "adk" && !hasSieve {
			t.Fatalf("adk trace has no sieve rounds — engine flag not honored")
		}
		if engine == "cdkl22" && hasSieve {
			t.Fatalf("cdkl22 trace has sieve rounds — engine flag silently fell back to adk")
		}
	}
}

// TestQuickExperimentWithWorkersAndTrace covers the -workers and
// -trace-json wiring on the cheapest experiment.
func TestQuickExperimentWithWorkersAndTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (quick) experiment")
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	code, out, errb := runCmd("-run", "E1", "-quick", "-workers", "2", "-trace-json", trace, "-v")
	if code != 0 {
		t.Fatalf("quick E1 exited %d:\n%s", code, errb)
	}
	if !strings.Contains(out, "=== E1") {
		t.Fatalf("missing experiment header:\n%s", out)
	}
	if runtime.GOMAXPROCS(0) != 2 {
		t.Fatalf("-workers 2 did not cap GOMAXPROCS (got %d)", runtime.GOMAXPROCS(0))
	}
	payload, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	for _, kind := range []string{`"run-start"`, `"run-end"`} {
		if !strings.Contains(string(payload), kind) {
			t.Fatalf("trace missing %s events", kind)
		}
	}
}

// The gate's full measure-and-compare pass takes ~10s of benchmarking, so
// tests cover the failure plumbing and the comparator is unit-tested in
// internal/cli; `make bench-gate` exercises the full path.
func TestHotpathGateBadInputs(t *testing.T) {
	if code, _, errb := runCmd("-gate", "hotpath", "no-such-file.json"); code != 1 || !strings.Contains(errb, "no-such-file.json") {
		t.Fatalf("missing report: code %d, stderr %q", code, errb)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	payload, _ := json.Marshal(cli.HotpathReport{Schema: "other/v0"})
	os.WriteFile(bad, payload, 0o644)
	if code, _, errb := runCmd("-gate", "hotpath", bad); code != 1 || !strings.Contains(errb, "schema") {
		t.Fatalf("bad schema: code %d, stderr %q", code, errb)
	}
}

// TestGateUsageErrors: a malformed -gate invocation is a usage error
// (exit 2) that names the problem, before anything is measured.
func TestGateUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown gate", []string{"-gate", "speed", "BENCH_hotpath.json"}, "unknown gate"},
		{"no file", []string{"-gate", "hotpath"}, "exactly one FILE"},
		{"two files", []string{"-gate", "hotpath", "a.json", "b.json"}, "exactly one FILE"},
		{"write without gate", []string{"-write"}, "need -gate"},
		{"cover without profile", []string{"-gate", "cover", "COVERAGE.json"}, "-cover-profile"},
		{"profile without cover", []string{"-cover-profile", "cover.out", "-gate", "hotpath", "x.json"}, "-cover-profile"},
		{"write conformance", []string{"-gate", "conformance", "-write", "."}, "no report"},
	}
	for _, tc := range cases {
		code, _, errb := runCmd(tc.args...)
		if code != 2 || !strings.Contains(errb, tc.want) {
			t.Errorf("%s: run(%v) = %d, stderr %q; want 2 naming %q", tc.name, tc.args, code, errb, tc.want)
		}
	}
}

// TestCoverGate drives the coverage ratchet end to end on a small
// profile: -write regenerates a baseline the same profile passes, and a
// baseline inflated above the profile fails with the violation banner.
func TestCoverGate(t *testing.T) {
	dir := t.TempDir()
	profile := filepath.Join(dir, "cover.out")
	os.WriteFile(profile, []byte("mode: set\nrepro/internal/a/a.go:1.1,2.2 3 1\nrepro/internal/a/a.go:3.1,4.2 1 0\n"), 0o644)

	baseline := filepath.Join(dir, "COVERAGE.json")
	if code, _, errb := runCmd("-cover-profile", profile, "-gate", "cover", "-write", baseline); code != 0 {
		t.Fatalf("-write: code %d, stderr %q", code, errb)
	}
	if code, out, errb := runCmd("-cover-profile", profile, "-gate", "cover", baseline); code != 0 || !strings.Contains(out, "coverage ratchet: OK") {
		t.Fatalf("self-ratchet: code %d, stdout %q, stderr %q", code, out, errb)
	}

	inflated := filepath.Join(dir, "inflated.json")
	payload, _ := json.Marshal(cli.CoverageReport{
		Schema:   cli.CoverageSchema,
		Total:    100,
		Packages: map[string]float64{"repro/internal/a": 100},
	})
	os.WriteFile(inflated, payload, 0o644)
	if code, _, errb := runCmd("-cover-profile", profile, "-gate", "cover", inflated); code != 1 || !strings.Contains(errb, "COVERAGE RATCHET VIOLATION") {
		t.Fatalf("inflated baseline: code %d, stderr %q", code, errb)
	}
}

// TestConformanceGate runs the list-drift gate over this repository.
func TestConformanceGate(t *testing.T) {
	code, out, errb := runCmd("-gate", "conformance", filepath.Join("..", ".."))
	if code != 0 || !strings.Contains(out, "conformance lists: OK") {
		t.Fatalf("code %d, stdout %q, stderr %q", code, out, errb)
	}
}
