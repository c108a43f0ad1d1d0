package dsms

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/expr"
	"repro/internal/stream"
)

func benchSchema() *stream.Schema {
	return stream.MustSchema(
		stream.Field{Name: "a", Type: stream.TypeDouble},
		stream.Field{Name: "t", Type: stream.TypeTimestamp},
	)
}

func benchTuples(n int) []stream.Tuple {
	tuples := make([]stream.Tuple, n)
	for i := range tuples {
		tuples[i] = stream.NewTuple(
			stream.DoubleValue(float64(i%1000)),
			stream.TimestampMillis(int64(i)*10),
		)
		tuples[i].ArrivalMillis = int64(i) * 10
		tuples[i].Seq = uint64(i + 1)
	}
	return tuples
}

func filterMapPipeline(b *testing.B) *pipeline {
	b.Helper()
	g := NewQueryGraph("s",
		NewFilterBox(expr.MustParse("a > 500")),
		NewMapBox("a"),
	)
	p, _, err := buildPipeline(g, benchSchema())
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkPipelineBatch measures the raw operator chain (filter+map)
// on whole batches, bypassing ingest: run with -benchmem — steady
// state must show 0 allocs/op (asserted by
// TestPipelineSteadyStateZeroAllocs).
func BenchmarkPipelineBatch(b *testing.B) {
	for _, batch := range []int{1, 64, 512} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			p := filterMapPipeline(b)
			tuples := benchTuples(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.processBatch(tuples, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPipelineSteadyStateZeroAllocs pins the tentpole guarantee: after
// warm-up, pushing a batch through filter+map allocates nothing.
func TestPipelineSteadyStateZeroAllocs(t *testing.T) {
	p := func() *pipeline {
		g := NewQueryGraph("s",
			NewFilterBox(expr.MustParse("a > 500")),
			NewMapBox("a"),
		)
		pp, _, err := buildPipeline(g, benchSchema())
		if err != nil {
			t.Fatal(err)
		}
		return pp
	}()
	tuples := benchTuples(512)
	// Warm up the reusable buffers.
	for i := 0; i < 4; i++ {
		if _, err := p.processBatch(tuples, false); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.processBatch(tuples, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("filter+map steady state allocates %.1f allocs/op, want 0", allocs)
	}
}

// benchColBatch transposes tuples into a sealed columnar batch the way
// the engine's seal path would.
func benchColBatch(tb testing.TB, tuples []stream.Tuple) *stream.ColBatch {
	tb.Helper()
	cb := stream.NewColBatch(benchSchema())
	if err := cb.LoadTuples(tuples, true); err != nil {
		tb.Fatal(err)
	}
	for i := range tuples {
		cb.Seq[i] = tuples[i].Seq
	}
	return cb
}

// BenchmarkPipelineBatchColumnar is BenchmarkPipelineBatch on the
// columnar path: compiled filter kernels narrowing a selection vector,
// map folded into the static column mapping, no row materialization
// (needRows=false, as when a query has no subscribers).
func BenchmarkPipelineBatchColumnar(b *testing.B) {
	for _, batch := range []int{1, 64, 512} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			p := filterMapPipeline(b)
			cb := benchColBatch(b, benchTuples(batch))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.processCols(cb, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestColPipelineSteadyStateZeroAllocs pins the columnar tentpole
// guarantee: filter+map over a sealed batch — kernel filter, selection
// vector, static column remap — allocates nothing in steady state.
func TestColPipelineSteadyStateZeroAllocs(t *testing.T) {
	g := NewQueryGraph("s",
		NewFilterBox(expr.MustParse("a > 500")),
		NewMapBox("a"),
	)
	p, _, err := buildPipeline(g, benchSchema())
	if err != nil {
		t.Fatal(err)
	}
	cb := benchColBatch(t, benchTuples(512))
	for i := 0; i < 4; i++ {
		if _, _, err := p.processCols(cb, false); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := p.processCols(cb, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("columnar filter+map steady state allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkWindowSlide measures the sliding-window aggregate with
// step ≪ size — the case where the old slice-buffer implementation
// re-allocated size-step tuples per emission (tuple windows) or
// re-filtered the whole buffer per close (time windows).
func BenchmarkWindowSlide(b *testing.B) {
	cases := []struct {
		name string
		win  WindowSpec
	}{
		{"tuple/size=512/step=1", WindowSpec{Type: WindowTuple, Size: 512, Step: 1}},
		{"tuple/size=64/step=4", WindowSpec{Type: WindowTuple, Size: 64, Step: 4}},
		{"time/size=5120/step=10", WindowSpec{Type: WindowTime, Size: 5120, Step: 10}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			box := NewAggregateBox(c.win,
				AggSpec{Attr: "a", Func: AggAvg},
				AggSpec{Attr: "a", Func: AggMax},
				AggSpec{Attr: "t", Func: AggLastVal},
			)
			op, err := newOperator(box, benchSchema())
			if err != nil {
				b.Fatal(err)
			}
			// One reused batch whose arrivals are re-stamped to keep
			// advancing: time windows must stay on the sorted fast path
			// (a wrapping clock would degrade to the unsorted fallback
			// and benchmark the wrong code).
			tuples := benchTuples(512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := int64(i) * 512 * 10
				for j := range tuples {
					tuples[j].ArrivalMillis = base + int64(j+1)*10
				}
				if _, err := op.processBatch(tuples, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSealContention demonstrates the per-stream seal win:
// parallel publishers hammering distinct streams contend on nothing
// but their own stream's sequence lock. Compare streams=1 (all
// publishers serialize on one seal) with streams=4/8 on a multi-core
// run.
func BenchmarkEngineSealContention(b *testing.B) {
	for _, streams := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			eng := NewEngine("contention")
			defer eng.Close()
			names := make([]string, streams)
			for i := range names {
				names[i] = fmt.Sprintf("s%d", i)
				if err := eng.CreateStream(names[i], benchSchema()); err != nil {
					b.Fatal(err)
				}
				g := NewQueryGraph(names[i], NewFilterBox(expr.MustParse("a > 500")))
				if _, err := eng.Deploy(g); err != nil {
					b.Fatal(err)
				}
			}
			src := benchTuples(1024)
			var next atomic.Int64
			const batch = 64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				name := names[int(next.Add(1)-1)%streams]
				i := 0
				for pb.Next() {
					buf := make([]stream.Tuple, 0, batch)
					for len(buf) < batch {
						t := src[i%len(src)]
						t.Seq, t.ArrivalMillis = 0, 0
						buf = append(buf, t)
						i++
					}
					if err := eng.IngestBatchPrevalidated(name, buf); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			eng.Flush()
		})
	}
}

// BenchmarkIngestBatchPrevalidated is the engine's shard-drain batch
// path in isolation (one stream, one filter query), across batch sizes.
func BenchmarkIngestBatchPrevalidated(b *testing.B) {
	for _, batch := range []int{1, 64, 512} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			eng := NewEngine("owned")
			defer eng.Close()
			if err := eng.CreateStream("s", benchSchema()); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Deploy(NewQueryGraph("s", NewFilterBox(expr.MustParse("a > 500")))); err != nil {
				b.Fatal(err)
			}
			src := benchTuples(1024)
			b.ReportAllocs()
			b.ResetTimer()
			i := 0
			for n := 0; n < b.N; n += batch {
				buf := make([]stream.Tuple, 0, batch)
				for len(buf) < batch {
					t := src[i%len(src)]
					t.Seq, t.ArrivalMillis = 0, 0
					buf = append(buf, t)
					i++
				}
				if err := eng.IngestBatchPrevalidated("s", buf); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			eng.Flush()
		})
	}
}
