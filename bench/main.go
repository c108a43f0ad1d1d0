// Command bench is the repository's benchmark: five workloads over the
// public APIs of internal/..., each verified against a reference
// computed here, measured in rounds of one fresh process per workload.
// See README.md; names, units and bounds are in ../BENCHMARK.json.
//
//	go -C bench run .                              every workload, human-readable
//	go -C bench run . --workload W --seed N --seconds S --trace 0|1
//	go -C bench run . -sets 2 && go -C bench run . -agree out/set-1.json out/set-2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// measuredRounds is fixed: a run that must be shorter shrinks its
// slices, never the number of rounds its medians are taken over.
const measuredRounds = 5

func main() {
	start := time.Now()
	var (
		workload = flag.String("workload", "", "run this one workload and end with the driver's JSON line")
		seed     = flag.Int64("seed", 2012, "seed of every generated input")
		seconds  = flag.Int("seconds", 0, "with -workload: seconds of measurement over the five rounds (sets -slice)")
		trace    = flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics instead of the end-to-end ones")
		slice    = flag.Duration("slice", fullSlice, "length of one closed or open slice")
		rounds   = flag.Int("rounds", measuredRounds, "measured rounds (tests only; the benchmark's is 5)")
		sets     = flag.Int("sets", 0, "measure every workload this many times over and write out/set-N.json")
		agree    = flag.Bool("agree", false, "compare two set files given as arguments; exit 1 if they disagree")

		worker = flag.String("worker", "", "internal: run one round of this workload in this process")
		round  = flag.Int("round", 0, "internal: round number")
		procs  = flag.Int("procs", 1, "internal: GOMAXPROCS of the worker")
		traced = flag.Bool("traced", false, "internal: record spans")
	)
	flag.Parse()
	if *worker != "" {
		cfg := childConfig{seed: *seed, round: *round, slice: *slice, traced: *traced, procs: *procs, start: start}
		fail(runChild(*worker, cfg))
		return
	}
	sp, err := loadSpec()
	fail(err)
	fail(os.MkdirAll(outDir, 0o755))
	if *seconds > 0 {
		// Each round measures a closed and an open slice.
		*slice = time.Duration(*seconds) * time.Second / (2 * measuredRounds)
	}
	switch {
	case *agree:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-agree takes two set files"))
		}
		ok, err := agreeSets(sp, flag.Arg(0), flag.Arg(1))
		fail(err)
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		fail(runDriver(sp, *workload, *seed, *slice, *rounds, *trace == 1))
	case *sets > 0:
		for i := 1; i <= *sets; i++ {
			set, err := measureSet(sp, *seed, *rounds, *slice)
			fail(err)
			path := filepath.Join(outDir, fmt.Sprintf("set-%d.json", i))
			fail(writeJSON(path, set))
			fmt.Println("wrote", path)
		}
	default:
		fail(runEverything(sp, *seed, *rounds, *slice))
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runDriver is one run under the driver's contract: one workload, five
// rounds, and as the last line of standard output the result object.
func runDriver(sp *spec, workload string, seed int64, slice time.Duration, rounds int, traced bool) error {
	if !slices.Contains(sp.workloadNames(), workload) {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if traced {
		// The traced run needs untraced rounds only as the base of the
		// overhead, speed-up and spread it reports.
		rounds = min(rounds, 3)
	}
	byWorkload, err := measure([]string{workload}, seed, rounds, slice)
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(outDir, "rounds-"+workload+".json"), byWorkload[workload]); err != nil {
		return err
	}
	sum := summarize(sp, workload, byWorkload[workload])
	res := driverResult{Attempted: sum.Attempted, Failed: sum.Failed}
	problems := sum.Problems
	if traced {
		// The other workloads run a short slice: enough for the spans
		// that define metrics and for their trace files.
		tp, err := runTracedPass(sp, seed, func(w string) time.Duration {
			if w == workload {
				return slice
			}
			return min(slice, time.Second)
		})
		if err != nil {
			return err
		}
		values, notes, err := tp.layers(sp, workload, seed, slice, sum)
		if err != nil {
			return err
		}
		for _, n := range notes {
			fmt.Println("NOTE:", n)
		}
		problems = append(problems, tp.problems...)
		printTable(os.Stdout, workload+" per-layer", sp.PerLayer, values)
		if res.Metrics, err = report(sp.PerLayer, values); err != nil {
			return err
		}
	} else {
		printTable(os.Stdout, fmt.Sprintf("%s end-to-end (%d rounds, round spread %.3f)", workload, rounds, sum.RoundSpread), sp.EndToEnd, sum.E2E)
		if res.Metrics, err = report(sp.EndToEnd, sum.E2E); err != nil {
			return err
		}
	}
	for _, p := range problems {
		fmt.Println("PROBLEM:", p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// set is every workload's summary from one series of rounds.
type set struct {
	Seed      int64              `json:"seed"`
	Slice     string             `json:"slice"`
	Workloads map[string]summary `json:"workloads"`
}

func measureSet(sp *spec, seed int64, rounds int, slice time.Duration) (*set, error) {
	byWorkload, err := measure(sp.workloadNames(), seed, rounds, slice)
	if err != nil {
		return nil, err
	}
	s := &set{Seed: seed, Slice: slice.String(), Workloads: map[string]summary{}}
	for w, rs := range byWorkload {
		s.Workloads[w] = summarize(sp, w, rs)
	}
	return s, nil
}

// runEverything is the command a person runs: the measured rounds of
// all workloads, rotated, then each workload's traced pass.
func runEverything(sp *spec, seed int64, rounds int, slice time.Duration) error {
	s, err := measureSet(sp, seed, rounds, slice)
	if err != nil {
		return err
	}
	tp, err := runTracedPass(sp, seed, func(string) time.Duration { return slice })
	if err != nil {
		return err
	}
	wrong := false
	all := map[string]map[string]float64{}
	for _, w := range sp.workloadNames() {
		sum := s.Workloads[w]
		printTable(os.Stdout, fmt.Sprintf("\n%s: %d items attempted, %d failed, round spread %.3f", w, sum.Attempted, sum.Failed, sum.RoundSpread), sp.EndToEnd, sum.E2E)
		var notes []string
		if all[w], notes, err = tp.layers(sp, w, seed, slice, sum); err != nil {
			return err
		}
		printTable(os.Stdout, "  per layer", sp.PerLayer, all[w])
		for _, n := range notes {
			fmt.Println("NOTE:", n)
		}
		for _, p := range sum.Problems {
			fmt.Println("PROBLEM:", p)
		}
		wrong = wrong || sum.Failed > 0 || len(sum.Problems) > 0
	}
	for _, p := range tp.problems {
		fmt.Println("PROBLEM:", p)
	}
	wrong = wrong || len(tp.problems) > 0
	if err := writeJSON(filepath.Join(outDir, "pass.json"), map[string]any{"end_to_end": s, "per_layer": all}); err != nil {
		return err
	}
	if wrong {
		return fmt.Errorf("outputs differ from the reference")
	}
	return nil
}

// agreeSets prints, for every workload and end-to-end metric, both
// medians, their relative difference and the bound, and reports whether
// every difference is within its bound.
func agreeSets(sp *spec, pathA, pathB string) (bool, error) {
	var a, b set
	for path, into := range map[string]*set{pathA: &a, pathB: &b} {
		data, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(data, into); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	ok := true
	fmt.Printf("%-18s %-22s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, w := range sp.workloadNames() {
		for _, m := range sp.EndToEnd {
			va, vb := a.Workloads[w].E2E[m.Name], b.Workloads[w].E2E[m.Name]
			diff := (vb - va) / va
			verdict := "ok"
			if diff > m.Bound || diff < -m.Bound {
				verdict, ok = "noisy", false
			}
			fmt.Printf("%-18s %-22s %14.6g %14.6g %+7.1f%% %5.0f%% %s\n", w, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
