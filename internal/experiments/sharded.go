package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dsms"
	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/source"
	"repro/internal/stream"
)

// ShardedOptions parameterises the sharded-ingest scenario: P
// publishers batch-publishing synthetic weather tuples into a runtime
// of N shards, each stream carrying one continuous filter query so
// ingestion pays realistic per-tuple work.
type ShardedOptions struct {
	// Shards is the engine shard count.
	Shards int
	// Publishers is the number of concurrent publisher goroutines.
	Publishers int
	// BatchSize is the publish batch size (1 = tuple-at-a-time).
	BatchSize int
	// Tuples is the total number of tuples to publish across all
	// publishers.
	Tuples int
	// Streams is the number of input streams (default: one per shard so
	// every shard has work).
	Streams int
	// QueueSize is the per-shard queue capacity (default
	// runtime.DefaultQueueSize).
	QueueSize int
	// Policy is the backpressure policy.
	Policy runtime.Policy
}

func (o ShardedOptions) withDefaults() ShardedOptions {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Publishers <= 0 {
		o.Publishers = 4
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.Tuples <= 0 {
		o.Tuples = 100000
	}
	if o.Streams <= 0 {
		o.Streams = o.Shards
	}
	return o
}

// ShardedResult reports one scenario run.
type ShardedResult struct {
	Opts       ShardedOptions
	Stats      metrics.RuntimeStats
	Elapsed    time.Duration
	Throughput float64 // ingested tuples per second of wall time
}

// String renders a one-line summary.
func (r ShardedResult) String() string {
	total := r.Stats.Total()
	return fmt.Sprintf("shards=%d publishers=%d batch=%d policy=%s: %d offered, %d ingested, %d dropped in %v (%.0f tuples/s)",
		r.Opts.Shards, r.Opts.Publishers, r.Opts.BatchSize, r.Opts.Policy,
		total.Offered, total.Ingested, total.Dropped,
		r.Elapsed.Round(time.Millisecond), r.Throughput)
}

// RunShardedIngest stands up a sharded runtime, deploys one filter
// query per stream and drives it with concurrent batch publishers,
// returning wall-clock throughput and the runtime's own accounting.
func RunShardedIngest(o ShardedOptions) (ShardedResult, error) {
	o = o.withDefaults()
	rt := runtime.New("bench", runtime.Options{
		Shards:    o.Shards,
		QueueSize: o.QueueSize,
		Policy:    o.Policy,
	})
	defer rt.Close()

	schema := source.WeatherSchema()
	streams := make([]string, o.Streams)
	for i := range streams {
		streams[i] = fmt.Sprintf("weather%d", i)
		if err := rt.CreateStream(streams[i], schema); err != nil {
			return ShardedResult{}, err
		}
		g := dsms.NewQueryGraph(streams[i], dsms.NewFilterBox(expr.MustParse("rainrate > 5")))
		if _, err := rt.Deploy(g); err != nil {
			return ShardedResult{}, err
		}
	}

	// Pre-generate the tuple pool outside the timed section.
	ws := source.NewWeatherStation(0, 1000, 7)
	pool := make([]stream.Tuple, 2048)
	for i := range pool {
		pool[i] = ws.Next()
	}

	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < o.Publishers; p++ {
		// Spread the remainder so exactly o.Tuples are published.
		perPub := o.Tuples / o.Publishers
		if p < o.Tuples%o.Publishers {
			perPub++
		}
		wg.Add(1)
		go func(p, perPub int) {
			defer wg.Done()
			batch := make([]stream.Tuple, 0, o.BatchSize)
			name := streams[p%len(streams)]
			for i := 0; i < perPub; i++ {
				batch = append(batch, pool[(p*perPub+i)%len(pool)])
				if len(batch) == o.BatchSize {
					_, _ = rt.PublishBatch(name, batch)
					batch = batch[:0]
				}
			}
			if len(batch) > 0 {
				_, _ = rt.PublishBatch(name, batch)
			}
		}(p, perPub)
	}
	wg.Wait()
	rt.Flush()
	elapsed := time.Since(start)

	res := ShardedResult{Opts: o, Stats: rt.Stats(), Elapsed: elapsed}
	if sec := elapsed.Seconds(); sec > 0 {
		res.Throughput = float64(res.Stats.Total().Ingested) / sec
	}
	return res, nil
}

// RunSingleThreadIngest measures the pre-runtime baseline: one
// goroutine calling Engine.Ingest tuple-at-a-time against one engine
// with the same filter query. The sharded scenarios are reported as
// speedups over this number.
func RunSingleThreadIngest(tuples int) (ShardedResult, error) {
	if tuples <= 0 {
		tuples = 100000
	}
	eng := dsms.NewEngine("baseline")
	defer eng.Close()
	schema := source.WeatherSchema()
	if err := eng.CreateStream("weather0", schema); err != nil {
		return ShardedResult{}, err
	}
	if _, err := eng.Deploy(dsms.NewQueryGraph("weather0", dsms.NewFilterBox(expr.MustParse("rainrate > 5")))); err != nil {
		return ShardedResult{}, err
	}
	ws := source.NewWeatherStation(0, 1000, 7)
	pool := make([]stream.Tuple, 2048)
	for i := range pool {
		pool[i] = ws.Next()
	}
	start := time.Now()
	for i := 0; i < tuples; i++ {
		if err := eng.Ingest("weather0", pool[i%len(pool)]); err != nil {
			return ShardedResult{}, err
		}
	}
	eng.Flush()
	elapsed := time.Since(start)
	res := ShardedResult{
		Opts:    ShardedOptions{Shards: 1, Publishers: 1, BatchSize: 1, Tuples: tuples, Streams: 1},
		Elapsed: elapsed,
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.Throughput = float64(tuples) / sec
	}
	return res, nil
}
