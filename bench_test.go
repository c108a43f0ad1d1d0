// Package repro_test holds the benchmark harness: one bench per
// evaluation artifact of the paper (Fig 6(a), Fig 6(b), Fig 7, policy
// loading) measuring the per-request cost underlying each plot, plus
// ablation benches for the design choices DESIGN.md calls out
// (DNF-based NR/PR checking, condition simplification, window
// machinery, reconstruction attack).
//
// The full CDF curves are regenerated by `go run ./cmd/benchrunner`;
// these testing.B benches run the same code paths with the network
// simulation off, so numbers are comparable across machines.
package repro_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dsms"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/recon"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

// benchConfig is a mid-size environment: 100 policies / 150 requests,
// no simulated latency (the protocol and processing cost is what the
// benches isolate).
func benchConfig() experiments.Config {
	p := workload.Scaled(10)
	return experiments.Config{Params: p, NetworkSeed: 0, ConnectDelay: 0}
}

func newBenchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	env, err := experiments.NewEnv(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(env.Close)
	if _, err := env.LoadPolicies(); err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkFig6aDirectQuery measures the direct-query baseline: one
// StreamSQL deploy per op (the left curve of Fig 6(a)).
func BenchmarkFig6aDirectQuery(b *testing.B) {
	env := newBenchEnv(b)
	items := env.Workload.Items
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		item := items[i%len(items)]
		if _, _, err := env.DirectClient.DeployScript(item.Script); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6aEXACMLFresh measures a full access-control request
// ending in a fresh grant (PDP + graph + engine deploy), released after
// each op so every iteration pays the whole path (the right curve of
// Fig 6(a)).
func BenchmarkFig6aEXACMLFresh(b *testing.B) {
	env := newBenchEnv(b)
	items := env.Workload.Items
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		item := items[i%len(items)]
		resp, err := env.ExacmlClient.RequestAccessXML(item.RequestXML, item.UserQueryXML)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Granted() {
			b.Fatalf("not granted: %+v", resp)
		}
		b.StopTimer()
		if err := env.ExacmlClient.Release(item.Subject, item.Resource); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkFig6aEXACMLRepeat measures the idempotent re-grant fast
// path: the same request repeated (what Zipf repeats hit server-side).
func BenchmarkFig6aEXACMLRepeat(b *testing.B) {
	env := newBenchEnv(b)
	item := env.Workload.Items[0]
	if _, err := env.ExacmlClient.RequestAccessXML(item.RequestXML, item.UserQueryXML); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := env.ExacmlClient.RequestAccessXML(item.RequestXML, item.UserQueryXML)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Reused {
			b.Fatal("expected reuse")
		}
	}
}

// BenchmarkFig6bZipf measures the Zipf workload through the proxy with
// the cache off and on (Fig 6(b)'s two eXACML+ curves).
func BenchmarkFig6bZipf(b *testing.B) {
	for _, cache := range []bool{false, true} {
		b.Run(fmt.Sprintf("cache=%v", cache), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Cache = cache
			env, err := experiments.NewEnv(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			if _, err := env.LoadPolicies(); err != nil {
				b.Fatal(err)
			}
			seq := env.Workload.ZipfSequence(b.N+1, 42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				item := env.Workload.Items[seq[i]]
				if _, err := env.ExacmlClient.RequestAccessXML(item.RequestXML, item.UserQueryXML); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7PDP isolates the PDP phase of Fig 7: evaluating one
// request against 1000 loaded policies.
func BenchmarkFig7PDP(b *testing.B) {
	w, err := workload.Generate(workload.TableThree())
	if err != nil {
		b.Fatal(err)
	}
	pdp := xacml.NewPDP()
	for _, pol := range w.Policies {
		pdp.AddPolicy(pol)
	}
	reqs := make([]*xacml.Request, 256)
	for i := range reqs {
		item := w.Items[i%len(w.Items)]
		reqs[i] = xacml.NewRequest(item.Subject, item.Resource, "read")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pdp.Evaluate(reqs[i%len(reqs)])
		if err != nil || res.Decision != xacml.Permit {
			b.Fatalf("decision %v err %v", res.Decision, err)
		}
	}
}

// BenchmarkFig7QueryGraph isolates the query-graph phase of Fig 7:
// obligations → graph, user query → graph, NR/PR check, merge,
// StreamSQL generation.
func BenchmarkFig7QueryGraph(b *testing.B) {
	w, err := workload.Generate(workload.Scaled(10))
	if err != nil {
		b.Fatal(err)
	}
	type precomputed struct {
		obs    []xacml.Obligation
		uq     *xacmlplus.UserQuery
		stream string
	}
	items := make([]precomputed, 0, len(w.Items))
	for _, item := range w.Items {
		pc := precomputed{
			obs:    w.Policies[item.PolicyIndex].Obligations.Obligations,
			stream: item.Resource,
		}
		if item.UserQueryXML != "" {
			uq, err := xacmlplus.ParseUserQuery([]byte(item.UserQueryXML))
			if err != nil {
				b.Fatal(err)
			}
			pc.uq = uq
		}
		items = append(items, pc)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := items[i%len(items)]
		pg, err := xacmlplus.ObligationsToGraph(pc.stream, pc.obs)
		if err != nil {
			b.Fatal(err)
		}
		var ug *dsms.QueryGraph
		if pc.uq != nil {
			if ug, err = pc.uq.ToGraph(); err != nil {
				b.Fatal(err)
			}
			ug.Input = pc.stream
		}
		if _, err := xacmlplus.CheckGraphs(pg, ug); err != nil {
			b.Fatal(err)
		}
		if _, err := xacmlplus.MergeGraphs(pg, ug); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7EngineDeploy isolates the "StreamBase" phase of Fig 7:
// shipping a script to the engine and standing up the continuous query.
func BenchmarkFig7EngineDeploy(b *testing.B) {
	env := newBenchEnv(b)
	items := env.Workload.Items
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, _, err := env.DirectClient.DeployScript(items[i%len(items)].Script)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := env.DirectClient.Withdraw(id); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkPolicyLoad measures per-policy load time (the §4.2 "0.25 s
// average" measurement; the shape to check is constancy as the store
// grows — BenchmarkPolicyLoad keeps loading into an ever-larger PDP).
func BenchmarkPolicyLoad(b *testing.B) {
	w, err := workload.Generate(workload.Scaled(10))
	if err != nil {
		b.Fatal(err)
	}
	pdp := xacml.NewPDP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := w.PolicyXML[i%len(w.PolicyXML)]
		if _, err := pdp.LoadPolicy([]byte(doc)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation and substrate benches -----------------------------------

// BenchmarkEngineFilterThroughput measures raw tuple throughput of a
// filter-only continuous query.
func BenchmarkEngineFilterThroughput(b *testing.B) {
	benchEngineThroughput(b, false, benchFilterGraph())
}

// BenchmarkEngineAggregateThroughput measures throughput of the Fig 1
// style chain (filter + map + window aggregation).
func BenchmarkEngineAggregateThroughput(b *testing.B) {
	benchEngineThroughput(b, false, benchAggregateGraph())
}

// BenchmarkEngineFilterThroughputTelemetry is the filter throughput
// bench with engine telemetry enabled (counters plus 1-in-1024 trace
// sampling). Compare against BenchmarkEngineFilterThroughput: the
// instrumentation budget is 0 allocs/op and <5% ns/op over the
// BENCH_ENGINE.json floor (see docs/OBSERVABILITY.md).
func BenchmarkEngineFilterThroughputTelemetry(b *testing.B) {
	benchEngineThroughput(b, true, benchFilterGraph())
}

// BenchmarkEngineAggregateThroughputTelemetry is the aggregate chain
// bench with engine telemetry enabled.
func BenchmarkEngineAggregateThroughputTelemetry(b *testing.B) {
	benchEngineThroughput(b, true, benchAggregateGraph())
}

func benchFilterGraph() *dsms.QueryGraph {
	return dsms.NewQueryGraph("s",
		dsms.NewFilterBox(expr.MustParse("a > 500")))
}

func benchAggregateGraph() *dsms.QueryGraph {
	return dsms.NewQueryGraph("s",
		dsms.NewFilterBox(expr.MustParse("a > 100")),
		dsms.NewMapBox("a", "t"),
		dsms.NewAggregateBox(dsms.WindowSpec{Type: dsms.WindowTuple, Size: 5, Step: 2},
			dsms.AggSpec{Attr: "a", Func: dsms.AggAvg},
			dsms.AggSpec{Attr: "t", Func: dsms.AggLastVal}))
}

func benchEngineThroughput(b *testing.B, tel bool, g *dsms.QueryGraph) {
	b.Helper()
	b.ReportAllocs()
	eng := dsms.NewEngine("bench")
	defer eng.Close()
	if tel {
		eng.EnableTelemetry(telemetry.NewRegistry(), 1024)
	}
	schema := stream.MustSchema(
		stream.Field{Name: "a", Type: stream.TypeDouble},
		stream.Field{Name: "t", Type: stream.TypeTimestamp},
	)
	if err := eng.CreateStream("s", schema); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Deploy(g); err != nil {
		b.Fatal(err)
	}
	tuples := make([]stream.Tuple, 1024)
	for i := range tuples {
		tuples[i] = stream.NewTuple(
			stream.DoubleValue(float64(i%1000)),
			stream.TimestampMillis(int64(i)*1000),
		)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Ingest("s", tuples[i%len(tuples)]); err != nil {
			b.Fatal(err)
		}
	}
	eng.Flush()
}

// BenchmarkShardedIngest measures the sharded ingest runtime across
// shard counts and publish batch sizes, with one filter query per
// stream so every tuple pays pipeline work. Compare against
// BenchmarkEngineFilterThroughput, the single-thread Engine.Ingest
// baseline: with 4 shards and batch ≥ 64 the batched path sustains
// ≥2× the baseline even on one core (batching amortizes the engine
// lock), and scales further with GOMAXPROCS.
func BenchmarkShardedIngest(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		for _, batch := range []int{1, 64, 256} {
			b.Run(fmt.Sprintf("shards=%d/batch=%d", shards, batch), func(b *testing.B) {
				rt := runtime.New("bench", runtime.Options{
					Shards:    shards,
					QueueSize: 8192,
				})
				defer rt.Close()
				schema := stream.MustSchema(
					stream.Field{Name: "a", Type: stream.TypeDouble},
					stream.Field{Name: "t", Type: stream.TypeTimestamp},
				)
				streams := make([]string, shards)
				for i := range streams {
					streams[i] = fmt.Sprintf("s%d", i)
					if err := rt.CreateStream(streams[i], schema); err != nil {
						b.Fatal(err)
					}
					g := dsms.NewQueryGraph(streams[i], dsms.NewFilterBox(expr.MustParse("a > 500")))
					if _, err := rt.Deploy(g); err != nil {
						b.Fatal(err)
					}
				}
				tuples := make([]stream.Tuple, 1024)
				for i := range tuples {
					tuples[i] = stream.NewTuple(
						stream.DoubleValue(float64(i%1000)),
						stream.TimestampMillis(int64(i)*1000),
					)
				}
				var next atomic.Int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					name := streams[int(next.Add(1)-1)%len(streams)]
					buf := make([]stream.Tuple, 0, batch)
					i := 0
					for pb.Next() {
						buf = append(buf, tuples[i%len(tuples)])
						i++
						if len(buf) == batch {
							if _, err := rt.PublishBatch(name, buf); err != nil {
								b.Error(err)
								return
							}
							buf = buf[:0]
						}
					}
					if len(buf) > 0 {
						if _, err := rt.PublishBatch(name, buf); err != nil {
							b.Error(err)
						}
					}
				})
				rt.Flush()
			})
		}
	}
}

// BenchmarkDNF measures the §3.5 Step 1+2 pipeline (NOT-elimination and
// postfix-based DNF conversion) on Example 4's predicate.
func BenchmarkDNF(b *testing.B) {
	p := expr.MustParse("((a > 20 AND a < 30) OR NOT (a != 40)) AND NOT (a >= 10) AND b = 20")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expr.ToDNF(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckConditions measures the full NR/PR filter analysis.
func BenchmarkCheckConditions(b *testing.B) {
	c1 := expr.MustParse("(a > 20 AND a < 30) OR NOT (a != 40)")
	c2 := expr.MustParse("NOT (a >= 10) AND b = 20")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expr.CheckConditions(c1, c2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeSimplify quantifies the §3.1 simplification ablation:
// merging with bound-tightening vs plain conjunction.
func BenchmarkMergeSimplify(b *testing.B) {
	c1 := expr.MustParse("rainrate > 5 AND windspeed < 80")
	c2 := expr.MustParse("rainrate > 50 AND windspeed < 60")
	b.Run("simplified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = expr.MergeConditions(c1, c2)
		}
	})
	b.Run("plain-and", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = &expr.And{L: expr.Clone(c1), R: expr.Clone(c2)}
		}
	})
}

// BenchmarkReconstruction measures the §3.4 attack itself.
func BenchmarkReconstruction(b *testing.B) {
	data := make([]float64, 4096)
	for i := range data {
		data[i] = float64(i * 31 % 997)
	}
	views := recon.CollectViews(data, 5, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recon.Reconstruct(views); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCDF measures the metrics plumbing used by the harness.
func BenchmarkCDF(b *testing.B) {
	s := &metrics.Series{Name: "x"}
	for i := 0; i < 1500; i++ {
		s.Add(metrics.Sample{Total: time.Duration(i%100+1) * time.Millisecond})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := metrics.FromSeries(s)
		_ = c.Median()
	}
}
