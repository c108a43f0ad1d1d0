package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/dsms"
	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/source"
	"repro/internal/stream"
)

// AdmissionStreamSpec describes one competing stream in the admission
// scenario: its priority class, optional quota, how many tuples its
// publishers offer and at what pace.
type AdmissionStreamSpec struct {
	// Name is the stream name (all specs share one runtime).
	Name string
	// Class is the stream's priority class.
	Class runtime.Class
	// Rate/Burst is the stream's token-bucket quota (0 = unlimited).
	Rate  float64
	Burst int
	// Publishers is the number of concurrent publisher goroutines
	// (default 1).
	Publishers int
	// Tuples is the total number of tuples offered across publishers.
	Tuples int
	// OfferRate paces each publisher to roughly this many tuples/second
	// (0 = publish flat out, saturating the runtime).
	OfferRate float64
}

// AdmissionOptions parameterises the admission-control scenario:
// several streams of different priority classes co-located on the same
// shard(s), publishing concurrently under a class-aware shedding
// policy.
type AdmissionOptions struct {
	// Shards is the engine shard count (default 1 so every stream
	// contends for the same queue).
	Shards int
	// QueueSize is the per-shard queue capacity (default 256, small
	// enough that a saturating publisher forces shedding).
	QueueSize int
	// Policy is the backpressure policy (default DropNewest, which is
	// class-aware: higher classes evict queued lower-class tuples).
	Policy runtime.Policy
	// BlockClass is the Block policy's class threshold.
	BlockClass runtime.Class
	// BatchPublish is the publish batch size (default 64).
	BatchPublish int
	// Streams are the competing streams (default: a paced Critical
	// stream vs a saturating BestEffort stream).
	Streams []AdmissionStreamSpec
}

func (o AdmissionOptions) withDefaults() AdmissionOptions {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 256
	}
	if o.BatchPublish <= 0 {
		o.BatchPublish = 64
	}
	if len(o.Streams) == 0 {
		o.Streams = []AdmissionStreamSpec{
			{Name: "critical", Class: runtime.Critical, Publishers: 1, Tuples: 20000, OfferRate: 40000},
			{Name: "besteffort", Class: runtime.BestEffort, Publishers: 4, Tuples: 200000},
		}
	}
	for i := range o.Streams {
		if o.Streams[i].Publishers <= 0 {
			o.Streams[i].Publishers = 1
		}
		// Tuples is taken as given: a caller-provided spec with
		// Tuples <= 0 registers its stream but offers nothing, so
		// aggressive scaling rounds down to zero load instead of
		// silently exploding to a default.
		if o.Streams[i].Tuples < 0 {
			o.Streams[i].Tuples = 0
		}
	}
	return o
}

// AdmissionResult reports one admission scenario run.
type AdmissionResult struct {
	Opts    AdmissionOptions
	Stats   metrics.RuntimeStats
	Elapsed time.Duration
}

// Sustained returns the fraction of a stream's offered tuples that were
// ingested (0 when the stream offered nothing).
func (r AdmissionResult) Sustained(streamName string) float64 {
	for _, st := range r.Stats.Streams {
		if st.Stream == streamName && st.Offered > 0 {
			return float64(st.Ingested) / float64(st.Offered)
		}
	}
	return 0
}

// String renders a per-stream summary plus the class rollup.
func (r AdmissionResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "admission: %d shard(s), queue %d, policy %s, %v elapsed\n",
		r.Opts.Shards, r.Opts.QueueSize, r.Opts.Policy, r.Elapsed.Round(time.Millisecond))
	for _, st := range r.Stats.Streams {
		sustained := 0.0
		if st.Offered > 0 {
			sustained = 100 * float64(st.Ingested) / float64(st.Offered)
		}
		fmt.Fprintf(&b, "  %-12s %-11s offered=%-8d ingested=%-8d shed=%-8d dropped=%-8d sustained=%.1f%%\n",
			st.Stream, st.Class, st.Offered, st.Ingested, st.Shed, st.Dropped, sustained)
	}
	return b.String()
}

// RunAdmission stands up a runtime whose streams carry different
// priority classes and quotas, drives them with concurrent publishers
// (saturating for the low classes, paced for the high ones) and reports
// the per-stream and per-class admission accounting. With the default
// scenario a Critical stream shares its only shard with a flooding
// BestEffort stream; class-aware shedding keeps the Critical stream's
// sustained throughput near 100% while the BestEffort stream is shed.
func RunAdmission(o AdmissionOptions) (AdmissionResult, error) {
	o = o.withDefaults()
	rt := runtime.New("admission", runtime.Options{
		Shards:     o.Shards,
		QueueSize:  o.QueueSize,
		Policy:     o.Policy,
		BlockClass: o.BlockClass,
	})
	defer rt.Close()

	schema := source.WeatherSchema()
	for _, spec := range o.Streams {
		opts := []runtime.StreamOption{runtime.WithClass(spec.Class)}
		if spec.Rate > 0 {
			opts = append(opts, runtime.WithQuota(spec.Rate, spec.Burst))
		}
		if err := rt.CreateStream(spec.Name, schema, opts...); err != nil {
			return AdmissionResult{}, err
		}
		// One continuous query per stream so draining pays realistic
		// per-tuple work.
		g := dsms.NewQueryGraph(spec.Name, dsms.NewFilterBox(expr.MustParse("rainrate > 5")))
		if _, err := rt.Deploy(g); err != nil {
			return AdmissionResult{}, err
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
	for _, spec := range o.Streams {
		// Pace per publisher so the stream's aggregate offer rate is
		// roughly spec.OfferRate.
		var pause time.Duration
		if spec.OfferRate > 0 {
			pause = time.Duration(float64(o.BatchPublish*spec.Publishers) / spec.OfferRate * float64(time.Second))
		}
		for p := 0; p < spec.Publishers; p++ {
			perPub := spec.Tuples / spec.Publishers
			if p < spec.Tuples%spec.Publishers {
				perPub++
			}
			wg.Add(1)
			go func(spec AdmissionStreamSpec, p, perPub int, pause time.Duration) {
				defer wg.Done()
				batch := make([]stream.Tuple, 0, o.BatchPublish)
				for i := 0; i < perPub; i++ {
					batch = append(batch, pool[(p*perPub+i)%len(pool)])
					if len(batch) == o.BatchPublish {
						_, _ = rt.PublishBatch(spec.Name, batch)
						batch = batch[:0]
						if pause > 0 {
							time.Sleep(pause)
						}
					}
				}
				if len(batch) > 0 {
					_, _ = rt.PublishBatch(spec.Name, batch)
				}
			}(spec, p, perPub, pause)
		}
	}
	wg.Wait()
	rt.Flush()
	elapsed := time.Since(start)

	return AdmissionResult{Opts: o, Stats: rt.Stats(), Elapsed: elapsed}, nil
}
