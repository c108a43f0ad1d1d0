package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchBinary is this package built once for the whole test run: the
// benchmark measures fresh processes, so the tests start it as one.
var benchBinary string

func TestMain(m *testing.M) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp(outDir, "test-")
	if err != nil {
		panic(err)
	}
	benchBinary = filepath.Join(dir, "bench")
	if out, err := exec.Command("go", "build", "-o", benchBinary, ".").CombinedOutput(); err != nil {
		panic(string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// lastLine runs the benchmark and decodes the driver's result line.
func lastLine(t *testing.T, args ...string) driverResult {
	t.Helper()
	out, err := exec.Command(benchBinary, args...).Output()
	if err != nil {
		t.Fatalf("bench %v: %v\n%s", args, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res driverResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("bench %v: last line %q: %v", args, lines[len(lines)-1], err)
	}
	return res
}

func names(ms []metricSpec) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metricValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload for one short round and checks that it
// verifies and reports exactly the names BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !name.MatchString(m.Name) || m.Unit == "" {
			t.Errorf("metric %q unit %q", m.Name, m.Unit)
		}
	}
	short := []string{"--seed", "7", "-rounds", "1", "-slice", "200ms"}
	for _, w := range sp.workloadNames() {
		if !name.MatchString(w) {
			t.Errorf("workload name %q", w)
		}
		res := lastLine(t, append([]string{"--workload", w, "--trace", "0"}, short...)...)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		if got, want := keys(res.Metrics), names(sp.EndToEnd); !equal(got, want) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json lists %v", w, got, want)
		}
		for m, v := range res.Metrics {
			if !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v", w, m, v.Value)
			}
		}
	}
	res := lastLine(t, append([]string{"--workload", "tcp_stream", "--trace", "1"}, short...)...)
	if got, want := keys(res.Metrics), names(sp.PerLayer); !equal(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
	}
	for _, w := range sp.workloadNames() {
		if _, err := os.Stat(tracePath(w)); err != nil {
			t.Errorf("traced pass left no %s", tracePath(w))
		}
	}
}

func equal(a, b []string) bool {
	return strings.Join(a, " ") == strings.Join(b, " ")
}

// TestSeedDeterminism: the seed fixes the input, and through it what the
// program allocates per tuple.
func TestSeedDeterminism(t *testing.T) {
	round := func(seed string) childResult {
		out, err := exec.Command(benchBinary, "-worker", "tcp_stream", "-seed", seed, "-slice", "300ms").Output()
		if err != nil {
			t.Fatal(err)
		}
		var res childResult
		if err := json.Unmarshal(out, &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, other := round("7"), round("7"), round("8")
	if a.InputDigest != b.InputDigest || a.InputDigest == other.InputDigest {
		t.Errorf("input digests: seed 7 %s and %s, seed 8 %s", a.InputDigest, b.InputDigest, other.InputDigest)
	}
	x, y := a.E2E["allocs_per_item"], b.E2E["allocs_per_item"]
	if math.Abs(x-y)/x > 0.005 {
		t.Errorf("allocs_per_item %v and %v for one seed", x, y)
	}
}
