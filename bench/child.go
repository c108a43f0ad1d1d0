package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/source"
)

var weatherSchema = source.WeatherSchema()

// outDir receives trace files, pass files and the durable probe's state
// directory; it is relative to the package directory the command runs in.
const outDir = "out"

func tracePath(workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}

// fullSlice is the slice the benchmark is specified with; at it, every
// workload must take minLatencySamples a round, which leaves ten beyond
// the p90. Tests run shorter slices.
const (
	fullSlice         = 1500 * time.Millisecond
	minLatencySamples = 100
)

// childConfig is what the driver passes to one worker process.
type childConfig struct {
	seed   int64
	round  int
	slice  time.Duration
	traced bool
	procs  int
	start  time.Time
}

// childResult is the one JSON object a worker prints.
type childResult struct {
	Workload       string   `json:"workload"`
	Seed           int64    `json:"seed"`
	Round          int      `json:"round"`
	Procs          int      `json:"procs"`
	Traced         bool     `json:"traced"`
	InputDigest    string   `json:"input_digest"`
	Attempted      int64    `json:"attempted"`
	Failed         int64    `json:"failed"`
	Problems       []string `json:"problems,omitempty"`
	LatencySamples int      `json:"latency_samples"`
	// Windows holds, per windowed end-to-end metric, one value per window.
	Windows map[string][]float64 `json:"windows"`
	E2E     map[string]float64   `json:"end_to_end"`
	Layer   map[string]float64   `json:"per_layer"`
}

func newChildResult(workload string, cfg childConfig) *childResult {
	return &childResult{Workload: workload, Seed: cfg.seed, Round: cfg.round, Procs: cfg.procs, Traced: cfg.traced,
		Windows: map[string][]float64{}, E2E: map[string]float64{}, Layer: map[string]float64{}}
}

// runChild is the worker side of one round: it pins GOMAXPROCS before
// anything is constructed, runs the workload and prints its result.
func runChild(workload string, cfg childConfig) error {
	goruntime.GOMAXPROCS(cfg.procs)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var res *childResult
	var err error
	switch {
	case workload == "probes":
		res, err = runProbes(cfg)
	case workload == "access_control":
		res, err = runAccessChild(cfg)
	default:
		if _, ok := streamSpecs[workload]; !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		res, err = runStreamChild(workload, cfg)
	}
	if err != nil {
		return err
	}
	res.E2E["peak_rss_mb"] = peakRSSMB()
	return json.NewEncoder(os.Stdout).Encode(res)
}

// windowsPerSlice is how many windows a slice is cut into. Each window
// yields its own throughput, CPU per item and latency percentiles; how a
// run reduces them is in summarize.
const windowsPerSlice = 10

// window records one window's value of an end-to-end metric.
func (r *childResult) window(metric string, v float64) {
	r.Windows[metric] = append(r.Windows[metric], v)
}

// meter measures one closed slice: per window, items completed per
// second and process CPU per item; over the whole slice, heap
// allocation per item.
type meter struct {
	length, window time.Duration
	completed      func() float64 // items complete so far

	first, lastItems float64
	lastAt           time.Duration
	lastCPU          time.Duration
	mem              goruntime.MemStats
	thr, cpu         []float64
}

func startMeter(slice, length time.Duration, completed func() float64) *meter {
	m := &meter{length: length, window: slice / windowsPerSlice, completed: completed}
	goruntime.ReadMemStats(&m.mem)
	m.first = completed()
	m.lastItems = m.first
	m.lastCPU = processCPU()
	return m
}

// tick is the closed loop's stop function: called before each item with
// the time since the loop began, it closes windows as they end.
func (m *meter) tick(elapsed time.Duration) bool {
	if elapsed-m.lastAt >= m.window {
		items, cpu := m.completed(), processCPU()
		if n := items - m.lastItems; n > 0 {
			m.thr = append(m.thr, n/(elapsed-m.lastAt).Seconds())
			m.cpu = append(m.cpu, float64((cpu-m.lastCPU).Nanoseconds())/1e3/n)
		}
		m.lastAt, m.lastItems, m.lastCPU = elapsed, items, cpu
	}
	return elapsed >= m.length
}

// stop is called once the loop has settled, so every item is complete.
func (m *meter) stop(res *childResult) {
	var mem goruntime.MemStats
	goruntime.ReadMemStats(&mem)
	items := m.completed() - m.first
	res.Windows["throughput_per_s"] = m.thr
	res.Windows["cpu_us_per_item"] = m.cpu
	res.E2E["allocs_per_item"] = float64(mem.Mallocs-m.mem.Mallocs) / items
	res.E2E["alloc_bytes_per_item"] = float64(mem.TotalAlloc-m.mem.TotalAlloc) / items
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// processCPU is user plus system CPU time of this process so far.
func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the largest resident set this process has had (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile reads quantile q of xs, interpolating between neighbours.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := q * float64(len(s)-1)
	i := int(at)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (at-float64(i))*(s[i+1]-s[i])
}
