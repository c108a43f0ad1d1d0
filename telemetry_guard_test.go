// Telemetry overhead guards: enabling the metrics registry and trace
// sampling on an engine must not add allocations to the per-tuple
// ingest path, and must not change its throughput class. The precise
// <5% ns/op budget against the BENCH_ENGINE.json floor is checked
// offline with the BenchmarkEngine*ThroughputTelemetry pair (timing
// asserts that tight are not CI-stable); these tests pin the properties
// that are deterministic: allocation count and a generous throughput
// ceiling that catches egregious regressions (always-on sampling, a new
// lock, a per-batch allocation).
package repro_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/dsms"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// newGuardEngine stands up an engine with the filter query of
// BenchmarkEngineFilterThroughput and a warmed tuple pool.
func newGuardEngine(t *testing.T, tel bool) (*dsms.Engine, []stream.Tuple) {
	t.Helper()
	eng := dsms.NewEngine("guard")
	t.Cleanup(eng.Close)
	schema := stream.MustSchema(
		stream.Field{Name: "a", Type: stream.TypeDouble},
		stream.Field{Name: "t", Type: stream.TypeTimestamp},
	)
	if err := eng.CreateStream("s", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Deploy(benchFilterGraph()); err != nil {
		t.Fatal(err)
	}
	if tel {
		eng.EnableTelemetry(telemetry.NewRegistry(), 1024)
	}
	tuples := make([]stream.Tuple, 1024)
	for i := range tuples {
		tuples[i] = stream.NewTuple(
			stream.DoubleValue(float64(i%1000)),
			stream.TimestampMillis(int64(i)*1000),
		)
	}
	return eng, tuples
}

// guardAllocs measures allocs/op of the single-tuple ingest path.
// (Ingest itself allocates its one-element batch slice; what telemetry
// must not do is add to that.) Each op flushes the engine, so the query
// goroutine has released batch n (and finished its span) back to the
// pools before ingest n+1 takes one: a pool miss then means a leak, not
// a publisher running ahead of the query.
func guardAllocs(t *testing.T, tel bool) float64 {
	t.Helper()
	eng, tuples := newGuardEngine(t, tel)
	// Warm the span pool and the per-stream sealing state.
	for i := 0; i < 4096; i++ {
		if err := eng.Ingest("s", tuples[i%len(tuples)]); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	i := 0
	return testing.AllocsPerRun(4096, func() {
		if err := eng.Ingest("s", tuples[i%len(tuples)]); err != nil {
			t.Fatal(err)
		}
		eng.Flush()
		i++
	})
}

// TestEngineTelemetryIngestZeroAlloc pins the instrumentation to zero
// added allocations per ingest: allocs/op with telemetry enabled must
// equal the plain path's. Sampled spans are pool-recycled; the small
// tolerance absorbs a pool emptied by a garbage collection (one span
// struct per ~1024 tuples at the default sampling rate).
func TestEngineTelemetryIngestZeroAlloc(t *testing.T) {
	plain := guardAllocs(t, false)
	instr := guardAllocs(t, true)
	t.Logf("allocs/op: plain=%v instrumented=%v", plain, instr)
	if instr > plain+0.05 {
		t.Fatalf("telemetry adds allocations to Ingest: %v allocs/op vs %v plain (budget 0)", instr, plain)
	}
}

// guardThroughput returns a trial of the single-tuple ingest path on a
// fresh, warmed engine: each call times count ingests and returns
// ns/tuple.
func guardThroughput(t *testing.T, tel bool, count int) func() float64 {
	t.Helper()
	eng, tuples := newGuardEngine(t, tel)
	ingest := func(n int) {
		for i := 0; i < n; i++ {
			if err := eng.Ingest("s", tuples[i%len(tuples)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(2048) // warm-up
	return func() float64 {
		start := time.Now()
		ingest(count)
		eng.Flush()
		return float64(time.Since(start).Nanoseconds()) / float64(count)
	}
}

// TestEngineTelemetryThroughputCeiling compares instrumented vs plain
// ingest on the same machine in the same run and fails if telemetry
// costs more than 50% — an order of magnitude above the designed ~1
// atomic add per batch, so only a structural regression trips it. The
// trials alternate plain and instrumented and are short, so a stretch
// of host noise lands on both sides, and each side keeps its fastest.
func TestEngineTelemetryThroughputCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	const count, trials = 10000, 41
	plainTrial, instrTrial := guardThroughput(t, false, count), guardThroughput(t, true, count)
	plain, instr := math.Inf(1), math.Inf(1)
	for trial := 0; trial < trials; trial++ {
		plain = min(plain, plainTrial())
		instr = min(instr, instrTrial())
	}
	t.Logf("plain=%.1f ns/tuple instrumented=%.1f ns/tuple (+%.1f%%)",
		plain, instr, 100*(instr-plain)/plain)
	if instr > plain*1.5 {
		t.Fatalf("telemetry overhead too high: %.1f ns/tuple vs %.1f plain", instr, plain)
	}
}
