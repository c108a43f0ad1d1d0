package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strings"
	"time"
)

// spec is BENCHMARK.json, the one place that names workloads and metrics
// and fixes units and bounds; the program reads it and never repeats it.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

func loadSpec() (*spec, error) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *spec) workloadNames() []string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// childGOGC is the collector setting every worker runs under. The
// workloads keep a few MB live and allocate up to 1 GB/s; at the default
// 100 the 4 MB minimum heap means some 250 collections a second, each
// stopping the only P twice, and what is measured is the collector's
// pacing. 800 leaves a collection every 30 ms or so on embedded_stream.
const childGOGC = "800"

// spawn runs one worker process and decodes its result. The worker's
// diagnostics go to this process's standard error.
func spawn(workload string, cfg childConfig) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-worker", workload,
		"-seed", fmt.Sprint(cfg.seed),
		"-round", fmt.Sprint(cfg.round),
		"-slice", cfg.slice.String(),
		"-procs", fmt.Sprint(cfg.procs),
		fmt.Sprintf("-traced=%v", cfg.traced))
	cmd.Env = append(os.Environ(), "GOGC="+childGOGC)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("worker %s round %d: %w", workload, cfg.round, err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("worker %s round %d: %w", workload, cfg.round, err)
	}
	return &res, nil
}

// measure runs the untraced rounds: in each round one worker per
// workload, in an order rotated by the round number, so that a slow
// spell of the host lands on one round of every workload and not on
// every round of one.
func measure(workloads []string, seed int64, rounds int, slice time.Duration) (map[string][]*childResult, error) {
	out := map[string][]*childResult{}
	for r := 0; r < rounds; r++ {
		for i := range workloads {
			w := workloads[(i+r)%len(workloads)]
			res, err := spawn(w, childConfig{seed: seed, round: r, slice: slice, procs: 1})
			if err != nil {
				return nil, err
			}
			out[w] = append(out[w], res)
		}
	}
	return out, nil
}

// summary is one workload's result over its rounds.
type summary struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Rounds    int                `json:"rounds"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Digest    string             `json:"input_digest"`
	E2E       map[string]float64 `json:"end_to_end"`
	// RoundSpread is (max-min)/median of the rounds' throughput.
	RoundSpread float64 `json:"round_spread"`
}

// reduce turns the samples of one metric into its value. Timing metrics
// take the quartile on the good side: this host only ever makes things
// slower, in spells from a few hundred ms to a few rounds long, so the
// better windows are the ones that measure the program and the spread
// between runs is narrower there than at the median (see README.md).
// Counts and sizes, which such spells leave alone, take the median.
func reduce(m metricSpec, samples []float64) float64 {
	switch {
	case !timeUnits[m.Unit]:
		return median(samples)
	case m.Better == "higher":
		return quantile(samples, 0.75)
	}
	return quantile(samples, 0.25)
}

// timeUnits are the units of the metrics a slow spell of the host moves.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "1/s": true}

// roundValues reduces one round to a value per end-to-end metric, over
// its windows where the metric is measured per window.
func roundValues(sp *spec, r *childResult) map[string]float64 {
	out := map[string]float64{}
	for _, m := range sp.EndToEnd {
		if ws, ok := r.Windows[m.Name]; ok {
			out[m.Name] = reduce(m, ws)
		} else if v, ok := r.E2E[m.Name]; ok {
			out[m.Name] = v
		}
	}
	return out
}

// summarize reduces rounds to one value per end-to-end metric: over
// every window of every round where the metric is measured per window,
// over the rounds' values otherwise.
func summarize(sp *spec, workload string, rounds []*childResult) summary {
	s := summary{Workload: workload, Rounds: len(rounds), E2E: map[string]float64{}}
	var throughputs []float64
	for _, r := range rounds {
		s.Seed, s.Digest = r.Seed, r.InputDigest
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, p := range r.Problems {
			s.Problems = append(s.Problems, fmt.Sprintf("round %d: %s", r.Round, p))
		}
		throughputs = append(throughputs, roundValues(sp, r)["throughput_per_s"])
	}
	for _, m := range sp.EndToEnd {
		var samples []float64
		for _, r := range rounds {
			if ws, ok := r.Windows[m.Name]; ok {
				samples = append(samples, ws...)
			} else if v, ok := r.E2E[m.Name]; ok {
				samples = append(samples, v)
			}
		}
		if len(samples) > 0 {
			s.E2E[m.Name] = reduce(m, samples)
		}
	}
	s.RoundSpread = (slices.Max(throughputs) - slices.Min(throughputs)) / median(throughputs)
	return s
}

// tracedPass is the part of the traced pass that is the same whichever
// workload is reported: a traced round of every workload (the spans of
// embedded_stream, tcp_stream and access_control define metrics of their
// own, and every workload leaves its trace file) and the probes.
type tracedPass struct {
	rounds   map[string]*childResult
	probes   *childResult
	problems []string
}

func (tp *tracedPass) note(r *childResult) {
	for _, p := range r.Problems {
		tp.problems = append(tp.problems, fmt.Sprintf("%s: %s", r.Workload, p))
	}
}

// runTracedPass runs it; sliceOf gives each workload's slice.
func runTracedPass(sp *spec, seed int64, sliceOf func(workload string) time.Duration) (*tracedPass, error) {
	tp := &tracedPass{rounds: map[string]*childResult{}}
	slice := time.Duration(0)
	for _, w := range sp.workloadNames() {
		slice = max(slice, sliceOf(w))
		r, err := spawn(w, childConfig{seed: seed, slice: sliceOf(w), procs: 1, traced: true})
		if err != nil {
			return nil, err
		}
		tp.note(r)
		tp.rounds[w] = r
	}
	var err error
	if tp.probes, err = spawn("probes", childConfig{seed: seed, slice: slice, procs: 1}); err != nil {
		return nil, err
	}
	tp.note(tp.probes)
	return tp, nil
}

// layers assembles every per-layer metric of workload: from the traced
// pass, from one more round at GOMAXPROCS=nproc, and from the untraced
// rounds the speed-up and the spread are relative to. What the round at
// GOMAXPROCS=nproc gets wrong is returned as notes, and counted in
// procs_n.failed_items, but is not held against the run: the benchmark
// measures, and gates, GOMAXPROCS=1.
func (tp *tracedPass) layers(sp *spec, workload string, seed int64, slice time.Duration, untraced summary) (map[string]float64, []string, error) {
	out := map[string]float64{}
	for w, r := range tp.rounds {
		for name, v := range r.Layer {
			switch {
			case !strings.HasPrefix(name, "span."):
				if w == workload || !perWorkloadLayer(name) {
					out[name] = v
				}
			case w == "embedded_stream" && name == "span.publish_call_us_p50":
				out["runtime.publish_call_us_p50"] = v
			case w == "embedded_stream" && name == "span.flush_ms":
				out["runtime.flush_ms"] = v
			case w == "tcp_stream" && name == "span.publish_call_us_p50":
				out["client.publish_call_ms_p50"] = v / 1e3
			}
		}
	}
	for name, v := range tp.probes.Layer {
		out[name] = v
	}
	scaled, err := spawn(workload, childConfig{seed: seed, slice: slice, procs: goruntime.NumCPU()})
	if err != nil {
		return nil, nil, err
	}
	var notes []string
	for _, p := range scaled.Problems {
		notes = append(notes, fmt.Sprintf("%s at GOMAXPROCS=%d: %s", workload, scaled.Procs, p))
	}
	out["procs_n.failed_items"] = float64(scaled.Failed)
	atN := roundValues(sp, scaled)
	out["procs_n.throughput_per_s"] = atN["throughput_per_s"]
	out["procs_n.latency_ms_p50"] = atN["latency_ms_p50"]
	out["procs_n.cpu_us_per_item"] = atN["cpu_us_per_item"]
	out["procs_n.speedup"] = atN["throughput_per_s"] / untraced.E2E["throughput_per_s"]
	out["diag.round_spread"] = untraced.RoundSpread
	return out, notes, nil
}

// perWorkloadLayer reports whether a worker's per-layer metric describes
// the workload it ran, as opposed to one fixed workload's spans.
func perWorkloadLayer(name string) bool {
	return strings.HasPrefix(name, "diag.") || strings.HasPrefix(name, "runtime.backlog_") || name == "dsms.sub_dropped"
}

// driverResult is the last line of standard output under the driver's
// contract.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills the driver's metrics from values, in the spec's units,
// and fails if the spec names one the run did not measure.
func report(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}

func printTable(w *os.File, title string, specs []metricSpec, values map[string]float64) {
	fmt.Fprintf(w, "%s\n", title)
	for _, m := range specs {
		if v, ok := values[m.Name]; ok {
			fmt.Fprintf(w, "  %-42s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
}
