package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/serve"
)

// coverGateTolerance is the statement-coverage drop, in percentage
// points, the coverage ratchet allows — total or per package.
const coverGateTolerance = 1.0

// runGate runs one -gate mode against target — the committed report, or
// the repo root for the conformance gate — or, with write, regenerates
// the committed report. Exit codes: 0 pass, 1 violation or runtime
// error, 2 usage error.
func runGate(name, target string, write bool, coverProfile string, stdout, stderr io.Writer) int {
	if (coverProfile != "") != (name == "cover") {
		fmt.Fprintln(stderr, "histbench: -gate cover needs -cover-profile (run `go test -coverprofile` first), and no other gate takes it")
		return 2
	}
	var violations int
	var err error
	switch name {
	case "hotpath":
		if write {
			err = writeReport(target, measureHotpath(stderr))
		} else {
			violations, err = gateHotpath(target, stdout, stderr)
		}
	case "ingest":
		if write {
			err = writeReport(target, measureIngest(stderr))
		} else {
			violations, err = gateIngest(target, stdout, stderr)
		}
	case "cover":
		var current *cli.CoverageReport
		if current, err = loadCoverProfile(coverProfile); err != nil {
			break
		}
		if write {
			if err = writeReport(target, current); err == nil {
				fmt.Fprintf(stderr, "histbench: wrote %s (total %.2f%%, %d packages)\n", target, current.Total, len(current.Packages))
			}
		} else {
			violations, err = gateCoverage(current, target, stdout, stderr)
		}
	case "conformance":
		if write {
			fmt.Fprintln(stderr, "histbench: -gate conformance has no report to -write")
			return 2
		}
		violations, err = gateConformanceLists(target, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "histbench: unknown gate %q (want hotpath, ingest, cover or conformance)\n", name)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "histbench: %v\n", err)
		return 1
	}
	if violations > 0 {
		return 1
	}
	return 0
}

// writeReport writes v as the indented JSON of a committed report.
func writeReport(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// loadCoverProfile reduces a `go test -coverprofile` file to per-package
// statement coverage.
func loadCoverProfile(path string) (*cli.CoverageReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cli.ParseCoverProfile(f)
}

// gateCoverage ratchets the current coverage against the committed
// baseline: drops beyond coverGateTolerance (total or per package) fail
// the gate.
func gateCoverage(current *cli.CoverageReport, baselinePath string, stdout, stderr io.Writer) (int, error) {
	baseline, err := cli.LoadCoverageReport(baselinePath)
	if err != nil {
		return 0, err
	}
	violations, deltas, notes := cli.CompareCoverage(baseline, current, coverGateTolerance)
	fmt.Fprintf(stdout, "coverage vs %s (tolerance %.1fpt):\n", baselinePath, coverGateTolerance)
	for _, d := range deltas {
		fmt.Fprintf(stdout, "  %s\n", d)
	}
	for _, n := range notes {
		fmt.Fprintf(stdout, "  note: %s\n", n)
	}
	for _, v := range violations {
		fmt.Fprintf(stderr, "COVERAGE RATCHET VIOLATION: %s\n", v)
	}
	if len(violations) == 0 {
		fmt.Fprintf(stdout, "coverage ratchet: OK (total %.2f%% vs floor %.2f%%)\n",
			current.Total, baseline.Total-coverGateTolerance)
	}
	return len(violations), nil
}

// gateConformanceLists diffs every declared conformance list under root
// — the Makefile defaults and every CI workflow occurrence — against the
// in-code registries: core.Engines() for CONFORMANCE_ENGINES and
// serve.Workloads() for CONFORMANCE_WORKLOADS. A declaration that has
// drifted from the registry, or a file that stopped declaring the list
// at all, fails the gate.
func gateConformanceLists(root string, stdout, stderr io.Writer) (int, error) {
	var violations []string

	gather := func(varName string, registry []string) error {
		makefilePath := filepath.Join(root, "Makefile")
		makefile, err := os.ReadFile(makefilePath)
		if err != nil {
			return err
		}
		declared := cli.DeclaredLists("Makefile", string(makefile), varName)
		if len(declared) == 0 {
			violations = append(violations,
				fmt.Sprintf("Makefile: no %s declaration (the conformance battery has no pinned list)", varName))
		}

		workflows, err := filepath.Glob(filepath.Join(root, ".github", "workflows", "*.yml"))
		if err != nil {
			return err
		}
		inWorkflows := 0
		for _, wf := range workflows {
			payload, err := os.ReadFile(wf)
			if err != nil {
				return err
			}
			lists := cli.DeclaredLists(filepath.Base(wf), string(payload), varName)
			inWorkflows += len(lists)
			declared = append(declared, lists...)
		}
		if inWorkflows == 0 {
			violations = append(violations,
				fmt.Sprintf("ci workflows: no %s occurrence — CI would keep passing after the Makefile default drifts", varName))
		}

		violations = append(violations, cli.ListDrift(registry, declared)...)
		for _, d := range declared {
			fmt.Fprintf(stdout, "  %s = %v\n", d.Source, d.Names)
		}
		return nil
	}

	fmt.Fprintf(stdout, "conformance engine lists (registry: %v):\n", core.Engines())
	if err := gather("CONFORMANCE_ENGINES", core.Engines()); err != nil {
		return 0, err
	}
	fmt.Fprintf(stdout, "conformance workload lists (registry: %v):\n", serve.Workloads())
	if err := gather("CONFORMANCE_WORKLOADS", serve.Workloads()); err != nil {
		return 0, err
	}

	for _, v := range violations {
		fmt.Fprintf(stderr, "CONFORMANCE LIST DRIFT: %s\n", v)
	}
	if len(violations) == 0 {
		fmt.Fprintln(stdout, "conformance lists: OK (Makefile, CI workflows, and registries agree)")
	}
	return len(violations), nil
}
