// Engine hot-path experiment: measures raw tuples/sec and ns/tuple of
// the dsms.Engine batch ingest path for each operator pipeline at
// several batch sizes, and records the series as BENCH_ENGINE.json so
// the repository carries a perf trajectory across PRs (see
// docs/PERFORMANCE.md for how to read it).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/dsms"
	"repro/internal/expr"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// engineBenchRow is one (pipeline, batch size) measurement.
type engineBenchRow struct {
	Pipeline     string  `json:"pipeline"`
	Batch        int     `json:"batch"`
	Tuples       int     `json:"tuples"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	NsPerTuple   float64 `json:"ns_per_tuple"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
}

// engineBenchReport is the BENCH_ENGINE.json document.
type engineBenchReport struct {
	GeneratedUnixMS int64            `json:"generated_unix_ms"`
	GoVersion       string           `json:"go_version"`
	GOMAXPROCS      int              `json:"gomaxprocs"`
	Scale           int              `json:"scale"`
	Results         []engineBenchRow `json:"results"`
}

func engineBenchGraph(kind string) *dsms.QueryGraph {
	// A "+telemetry" suffix selects the same pipeline with the engine's
	// metrics registry and 1-in-1024 trace sampling enabled, so the
	// report carries the instrumentation overhead next to its baseline.
	kind = strings.TrimSuffix(kind, "+telemetry")
	switch kind {
	case "filter":
		return dsms.NewQueryGraph("s", dsms.NewFilterBox(expr.MustParse("a > 500")))
	case "map":
		return dsms.NewQueryGraph("s", dsms.NewMapBox("a"))
	case "tuple_window":
		return dsms.NewQueryGraph("s",
			dsms.NewFilterBox(expr.MustParse("a > 100")),
			dsms.NewAggregateBox(dsms.WindowSpec{Type: dsms.WindowTuple, Size: 64, Step: 4},
				dsms.AggSpec{Attr: "a", Func: dsms.AggAvg},
				dsms.AggSpec{Attr: "t", Func: dsms.AggLastVal}))
	case "time_window":
		return dsms.NewQueryGraph("s",
			dsms.NewAggregateBox(dsms.WindowSpec{Type: dsms.WindowTime, Size: 640, Step: 40},
				dsms.AggSpec{Attr: "a", Func: dsms.AggAvg},
				dsms.AggSpec{Attr: "a", Func: dsms.AggMax}))
	}
	panic("unknown engine bench pipeline " + kind)
}

// runEngineBenchOne stands up a fresh engine with one deployed query
// and drives tuples through IngestBatchPrevalidated — the same path the shard
// workers use — reusing one scratch batch slice, exactly like the drain
// loop (the engine copies into columnar form before returning).
func runEngineBenchOne(kind string, batch, tuples int) (engineBenchRow, error) {
	eng := dsms.NewEngine("bench")
	defer eng.Close()
	schema := stream.MustSchema(
		stream.Field{Name: "a", Type: stream.TypeDouble},
		stream.Field{Name: "t", Type: stream.TypeTimestamp},
	)
	if err := eng.CreateStream("s", schema); err != nil {
		return engineBenchRow{}, err
	}
	if _, err := eng.Deploy(engineBenchGraph(kind)); err != nil {
		return engineBenchRow{}, err
	}
	if strings.HasSuffix(kind, "+telemetry") {
		eng.EnableTelemetry(telemetry.NewRegistry(), 1024)
	}
	pool := make([]stream.Tuple, 1024)
	for i := range pool {
		pool[i] = stream.NewTuple(
			stream.DoubleValue(float64(i%1000)),
			stream.TimestampMillis(int64(i)*10),
		)
	}
	start := time.Now()
	i := 0
	buf := make([]stream.Tuple, 0, batch)
	for sent := 0; sent < tuples; sent += batch {
		n := batch
		if tuples-sent < n {
			n = tuples - sent
		}
		buf = buf[:0]
		for len(buf) < n {
			t := pool[i%len(pool)]
			// Monotone logical arrivals (10 ms apart) so the time-window
			// pipeline actually closes windows — one every Step/10 tuples
			// — instead of measuring ring inserts against wall clock.
			t.ArrivalMillis = int64(i+1) * 10
			buf = append(buf, t)
			i++
		}
		if err := eng.IngestBatchPrevalidated("s", buf); err != nil {
			return engineBenchRow{}, err
		}
	}
	eng.Flush()
	elapsed := time.Since(start)
	row := engineBenchRow{
		Pipeline:     kind,
		Batch:        batch,
		Tuples:       tuples,
		ElapsedMS:    float64(elapsed.Nanoseconds()) / 1e6,
		NsPerTuple:   float64(elapsed.Nanoseconds()) / float64(tuples),
		TuplesPerSec: float64(tuples) / elapsed.Seconds(),
	}
	return row, nil
}

// runEngine runs the full pipeline × batch matrix and writes outPath
// (BENCH_ENGINE.json) unless it is empty.
func runEngine(scale int, outPath string) error {
	tuples := 400000
	if scale > 1 {
		tuples /= scale
	}
	if tuples < 1000 {
		tuples = 1000
	}
	report := engineBenchReport{
		GeneratedUnixMS: time.Now().UnixMilli(),
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Scale:           scale,
	}
	fmt.Printf("%-14s %-8s %-14s %-12s\n", "pipeline", "batch", "tuples/s", "ns/tuple")
	for _, kind := range []string{"filter", "filter+telemetry", "map", "tuple_window", "tuple_window+telemetry", "time_window"} {
		for _, batch := range []int{1, 64, 512} {
			// One warm-up run at small size to stabilize allocator state.
			if _, err := runEngineBenchOne(kind, batch, tuples/10); err != nil {
				return err
			}
			row, err := runEngineBenchOne(kind, batch, tuples)
			if err != nil {
				return err
			}
			report.Results = append(report.Results, row)
			fmt.Printf("%-14s %-8d %-14.0f %-12.1f\n", kind, batch, row.TuplesPerSec, row.NsPerTuple)
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("(wrote %s)\n", outPath)
	}
	return nil
}
