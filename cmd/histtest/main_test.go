package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/histtest"
)

// runCmd invokes run() with captured output.
func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRequiredFlag(t *testing.T) {
	code, out, _ := runCmd("-n", "1024", "-k", "4", "-eps", "0.25", "-required")
	if code != 0 {
		t.Fatalf("-required exited %d", code)
	}
	if !strings.Contains(out, "required samples for n=1024 k=4") {
		t.Fatalf("unexpected -required output: %q", out)
	}

	code, out, _ = runCmd("-n", "1024", "-mode", "identity", "-eps", "0.3", "-required")
	if code != 0 || !strings.Contains(out, "identity") {
		t.Fatalf("identity -required: code %d, output %q", code, out)
	}
}

func TestDemoAcceptAndReject(t *testing.T) {
	code, out, _ := runCmd("-n", "4096", "-k", "8", "-eps", "0.6", "-demo", "hist", "-seed", "3")
	if code != 0 || !strings.Contains(out, "ACCEPT") {
		t.Fatalf("-demo hist: code %d, output %q", code, out)
	}

	code, out, _ = runCmd("-n", "4096", "-k", "2", "-eps", "0.3", "-demo", "far", "-seed", "3")
	if code != 3 || !strings.Contains(out, "REJECT") {
		t.Fatalf("-demo far: code %d, output %q", code, out)
	}
}

func TestFileInput(t *testing.T) {
	// A uniform staircase dataset large enough to replay the budget.
	path := filepath.Join(t.TempDir(), "values.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 1 << 10
	need := histtest.RequiredSamples(n, 4, 0.5, histtest.Options{})
	for i := 0; int64(i) < need; i++ {
		fmt.Fprintln(f, (i*7)%n)
	}
	f.Close()

	code, out, errb := runCmd("-n", fmt.Sprint(n), "-k", "4", "-eps", "0.5", "-file", path)
	if code != 0 && code != 3 {
		t.Fatalf("-file run errored: code %d, stderr %q", code, errb)
	}
	if !strings.Contains(errb, "read ") || !(strings.Contains(out, "ACCEPT") || strings.Contains(out, "REJECT")) {
		t.Fatalf("unexpected output: stdout %q, stderr %q", out, errb)
	}
}

func TestIdentityModeFlagPath(t *testing.T) {
	h, err := histtest.NewHistogram(1024, []int{256, 512}, []float64{0.5, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(t.TempDir(), "ref.json")
	payload, _ := json.Marshal(h)
	os.WriteFile(refPath, payload, 0o644)

	dataPath := filepath.Join(t.TempDir(), "values.txt")
	f, _ := os.Create(dataPath)
	sample := h.Sampler(42)
	for i := 0; i < 200_000; i++ {
		fmt.Fprintln(f, sample())
	}
	f.Close()

	code, out, errb := runCmd("-n", "1024", "-mode", "identity", "-eps", "0.4",
		"-ref", refPath, "-file", dataPath)
	if code != 0 || !strings.Contains(out, "ACCEPT") {
		t.Fatalf("identity self-test: code %d, stdout %q, stderr %q", code, out, errb)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"unknown flag", []string{"-n", "8", "-k", "2", "-bogus"}, 2},
		{"bad flag value", []string{"-n", "eight", "-k", "2"}, 2},
		{"positional args", []string{"-n", "8", "-k", "2", "stray"}, 2},
		{"missing n", []string{"-k", "2"}, 2},
		{"missing k", []string{"-n", "8"}, 2},
		{"identity without ref", []string{"-n", "8", "-mode", "identity"}, 2},
		{"unknown mode", []string{"-n", "8", "-mode", "weird"}, 1},
		{"removed monotone mode", []string{"-n", "8", "-mode", "monotone"}, 1},
		{"removed dir flag", []string{"-n", "8", "-k", "2", "-dir", "dec"}, 2},
		{"unknown demo", []string{"-n", "8", "-k", "2", "-demo", "weird"}, 1},
	}
	for _, tc := range cases {
		if code, _, _ := runCmd(tc.args...); code != tc.code {
			t.Errorf("%s: run(%v) = %d, want %d", tc.name, tc.args, code, tc.code)
		}
	}
}
