package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dsms"
	"repro/internal/runtime"
	"repro/internal/stream"
)

// PartitionOptions parameterises the global re-aggregation scenario: a
// windowed aggregate over one N-shard partitioned stream (per-shard
// partial aggregation + runtime merge stage) measured against the same
// aggregate running independently on N single-shard streams — the
// per-shard baseline the merge stage's overhead is judged by.
type PartitionOptions struct {
	// Shards is the runtime shard count.
	Shards int
	// Publishers is the number of concurrent publisher goroutines.
	Publishers int
	// BatchSize is the publish batch size.
	BatchSize int
	// Tuples is the total number of tuples published per leg.
	Tuples int
	// WindowSize / WindowStep shape the tuple window (defaults 256/32).
	WindowSize, WindowStep int64
	// QueueSize is the per-shard queue capacity.
	QueueSize int
}

func (o PartitionOptions) withDefaults() PartitionOptions {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Publishers <= 0 {
		o.Publishers = 4
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.Tuples <= 0 {
		o.Tuples = 200000
	}
	if o.WindowSize <= 0 {
		o.WindowSize = 256
	}
	if o.WindowStep <= 0 {
		o.WindowStep = 32
	}
	// Round up so every per-shard stream gets the same tuple count and
	// both legs publish identical totals.
	if rem := o.Tuples % o.Shards; rem != 0 {
		o.Tuples += o.Shards - rem
	}
	return o
}

// PartitionLeg is one measured configuration.
type PartitionLeg struct {
	Throughput float64 // published tuples per second of ingest wall time
	IngestMS   float64 // publish + flush wall time
	DrainMS    float64 // time after flush until the last emission landed
	Emissions  int
}

// PartitionResult reports the global-aggregate leg, the per-shard
// baseline leg and the relative ingest-throughput overhead.
type PartitionResult struct {
	Opts        PartitionOptions
	Global      PartitionLeg
	PerShard    PartitionLeg
	OverheadPct float64
}

// String renders a two-line summary.
func (r PartitionResult) String() string {
	return fmt.Sprintf(
		"shards=%d window=%d/%d tuples=%d:\n  global agg:  %.0f tuples/s, %d emissions, merge drain %.1f ms\n  per-shard:   %.0f tuples/s, %d emissions, drain %.1f ms\n  ingest overhead: %.1f%%",
		r.Opts.Shards, r.Opts.WindowSize, r.Opts.WindowStep, r.Opts.Tuples,
		r.Global.Throughput, r.Global.Emissions, r.Global.DrainMS,
		r.PerShard.Throughput, r.PerShard.Emissions, r.PerShard.DrainMS,
		r.OverheadPct)
}

func partitionSchema() *stream.Schema {
	return stream.MustSchema(
		stream.Field{Name: "key", Type: stream.TypeString},
		stream.Field{Name: "a", Type: stream.TypeDouble},
		stream.Field{Name: "t", Type: stream.TypeTimestamp},
	)
}

func partitionGraph(input string, o PartitionOptions) *dsms.QueryGraph {
	return dsms.NewQueryGraph(input,
		dsms.NewAggregateBox(dsms.WindowSpec{Type: dsms.WindowTuple, Size: o.WindowSize, Step: o.WindowStep},
			dsms.AggSpec{Attr: "a", Func: dsms.AggAvg},
			dsms.AggSpec{Attr: "a", Func: dsms.AggMax},
			dsms.AggSpec{Attr: "t", Func: dsms.AggLastVal}))
}

func partitionPool(n int) []stream.Tuple {
	pool := make([]stream.Tuple, n)
	arrival := int64(1_000_000)
	for i := range pool {
		pool[i] = stream.NewTuple(
			stream.StringValue(fmt.Sprintf("k%04d", (i*31)%1024)),
			stream.DoubleValue(float64((i*17)%1000)),
			stream.TimestampMillis(arrival),
		)
		arrival += int64(i%3 + 1)
	}
	return pool
}

// windowCount is the number of tuple windows a dense n-tuple sequence
// completes.
func windowCount(n int, size, step int64) int {
	if int64(n) < size {
		return 0
	}
	return int((int64(n)-size)/step) + 1
}

// drainCounter consumes a subscription channel concurrently with the
// publishers (the output buffer is bounded; a blocked consumer would
// count as drops) and records when the expected emission count landed.
type drainCounter struct {
	want int
	mu   sync.Mutex
	got  int
	last time.Time
	done chan struct{}
}

func newDrainCounter(want int) *drainCounter {
	return &drainCounter{want: want, done: make(chan struct{})}
}

func (d *drainCounter) consume(c <-chan stream.Tuple) {
	for range c {
		d.mu.Lock()
		d.got++
		d.last = time.Now()
		if d.got == d.want {
			close(d.done)
		}
		d.mu.Unlock()
	}
}

func (d *drainCounter) wait(timeout time.Duration) (int, time.Time, bool) {
	select {
	case <-d.done:
	case <-time.After(timeout):
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.got, d.last, d.got >= d.want
}

func publishPartitionLeg(rt *runtime.Runtime, streams []string, o PartitionOptions, pool []stream.Tuple) error {
	perStream := o.Tuples / len(streams)
	var wg sync.WaitGroup
	errs := make(chan error, len(streams)*o.Publishers)
	for si, name := range streams {
		pubs := o.Publishers
		if pubs > 1 && len(streams) > 1 {
			pubs = 1 // one publisher per stream in the per-shard leg
		}
		per := perStream / pubs
		for p := 0; p < pubs; p++ {
			n := per
			if p == pubs-1 {
				n = perStream - per*(pubs-1)
			}
			wg.Add(1)
			go func(name string, seed, n int) {
				defer wg.Done()
				batch := make([]stream.Tuple, 0, o.BatchSize)
				for i := 0; i < n; i++ {
					batch = append(batch, pool[(seed+i)%len(pool)])
					if len(batch) == o.BatchSize || i == n-1 {
						if _, err := rt.PublishBatch(name, batch); err != nil {
							errs <- err
							return
						}
						batch = batch[:0]
					}
				}
			}(name, si*7919+p*104729, n)
		}
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// RunPartition measures the global re-aggregation path against the
// per-shard baseline and returns both legs.
func RunPartition(o PartitionOptions) (PartitionResult, error) {
	o = o.withDefaults()
	pool := partitionPool(4096)
	res := PartitionResult{Opts: o}

	// Leg 1: global aggregate over one partitioned stream. Every
	// emission crosses the merge stage.
	{
		rt := runtime.New("bench-global", runtime.Options{Shards: o.Shards, QueueSize: o.QueueSize})
		if err := rt.CreatePartitionedStream("events", partitionSchema(), "key"); err != nil {
			rt.Close()
			return res, err
		}
		dep, err := rt.Deploy(partitionGraph("events", o))
		if err != nil {
			rt.Close()
			return res, err
		}
		sub, err := rt.Subscribe(dep.Handle)
		if err != nil {
			rt.Close()
			return res, err
		}
		want := windowCount(o.Tuples, o.WindowSize, o.WindowStep)
		dc := newDrainCounter(want)
		go dc.consume(sub.C)

		start := time.Now()
		if err := publishPartitionLeg(rt, []string{"events"}, o, pool); err != nil {
			rt.Close()
			return res, err
		}
		rt.Flush()
		flushed := time.Now()
		got, last, ok := dc.wait(30 * time.Second)
		sub.Close()
		rt.Close()
		if !ok {
			return res, fmt.Errorf("global leg drained %d of %d emissions (dropped %d)", got, want, sub.Dropped())
		}
		drain := last.Sub(flushed)
		if drain < 0 {
			drain = 0
		}
		res.Global = PartitionLeg{
			Throughput: float64(o.Tuples) / flushed.Sub(start).Seconds(),
			IngestMS:   float64(flushed.Sub(start).Microseconds()) / 1e3,
			DrainMS:    float64(drain.Microseconds()) / 1e3,
			Emissions:  got,
		}
	}

	// Leg 2: the same aggregate on N independent single-shard streams —
	// per-shard answers, no merge stage.
	{
		rt := runtime.New("bench-pershard", runtime.Options{Shards: o.Shards, QueueSize: o.QueueSize})
		streams := make([]string, o.Shards)
		perStream := o.Tuples / o.Shards
		want := o.Shards * windowCount(perStream, o.WindowSize, o.WindowStep)
		dc := newDrainCounter(want)
		var subs []*runtime.Subscription
		for i := range streams {
			streams[i] = fmt.Sprintf("events%d", i)
			if err := rt.CreateStream(streams[i], partitionSchema()); err != nil {
				rt.Close()
				return res, err
			}
			dep, err := rt.Deploy(partitionGraph(streams[i], o))
			if err != nil {
				rt.Close()
				return res, err
			}
			sub, err := rt.Subscribe(dep.Handle)
			if err != nil {
				rt.Close()
				return res, err
			}
			subs = append(subs, sub)
			go dc.consume(sub.C)
		}

		start := time.Now()
		if err := publishPartitionLeg(rt, streams, o, pool); err != nil {
			rt.Close()
			return res, err
		}
		rt.Flush()
		flushed := time.Now()
		got, last, ok := dc.wait(30 * time.Second)
		for _, s := range subs {
			s.Close()
		}
		rt.Close()
		if !ok {
			return res, fmt.Errorf("per-shard leg drained %d of %d emissions", got, want)
		}
		drain := last.Sub(flushed)
		if drain < 0 {
			drain = 0
		}
		res.PerShard = PartitionLeg{
			Throughput: float64(o.Tuples) / flushed.Sub(start).Seconds(),
			IngestMS:   float64(flushed.Sub(start).Microseconds()) / 1e3,
			DrainMS:    float64(drain.Microseconds()) / 1e3,
			Emissions:  got,
		}
	}

	if res.PerShard.Throughput > 0 {
		res.OverheadPct = (res.PerShard.Throughput - res.Global.Throughput) / res.PerShard.Throughput * 100
	}
	return res, nil
}
