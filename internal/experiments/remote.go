package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/dsms"
	"repro/internal/dsmsd"
	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/runtime"
	"repro/internal/source"
	"repro/internal/stream"
	"repro/internal/streamql"
)

// RemoteShardsOptions parameterises the remote-backend scenario: a
// runtime whose shard slots mix in-process engines with remote dsmsd
// processes (stood up in-process over loopback TCP, with an optional
// simulated-intranet latency profile on each remote link), driven by
// the same concurrent batch-publisher workload as the sharded
// experiment. Every shard gets one stream and one continuous filter
// query so both backend kinds pay realistic per-tuple work.
type RemoteShardsOptions struct {
	// LocalShards and RemoteShards set the mixed topology (defaults 1
	// local + 2 remote).
	LocalShards  int
	RemoteShards int
	// Publishers is the number of concurrent publisher goroutines.
	Publishers int
	// BatchSize is the publish batch size.
	BatchSize int
	// Tuples is the total number of tuples published across streams.
	Tuples int
	// QueueSize is the per-shard queue capacity.
	QueueSize int
	// Policy is the backpressure policy.
	Policy runtime.Policy
	// Simnet applies the paper's 100 Mbps intranet profile to every
	// remote link (local shards stay in-process and pay nothing).
	Simnet bool
	// NetworkSeed seeds the simulated-latency jitter.
	NetworkSeed int64
}

func (o RemoteShardsOptions) withDefaults() RemoteShardsOptions {
	// The default topology is 1 local + 2 remote; either count may be
	// pinned to zero explicitly as long as one shard remains.
	if o.LocalShards < 0 {
		o.LocalShards = 0
	}
	if o.RemoteShards < 0 {
		o.RemoteShards = 0
	}
	if o.LocalShards == 0 && o.RemoteShards == 0 {
		o.LocalShards, o.RemoteShards = 1, 2
	}
	if o.Publishers <= 0 {
		o.Publishers = 4
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.Tuples <= 0 {
		o.Tuples = 40000
	}
	if o.NetworkSeed == 0 {
		o.NetworkSeed = 7
	}
	return o
}

// RemoteShardsResult reports one mixed-topology run.
type RemoteShardsResult struct {
	Opts    RemoteShardsOptions
	Stats   metrics.RuntimeStats
	Elapsed time.Duration
	// Throughput is total ingested tuples per second of wall time.
	Throughput float64
	// LocalIngested / RemoteIngested split the ingested tuples by
	// backend kind.
	LocalIngested  uint64
	RemoteIngested uint64
}

// String renders a one-line summary.
func (r RemoteShardsResult) String() string {
	total := r.Stats.Total()
	return fmt.Sprintf("local=%d remote=%d publishers=%d batch=%d simnet=%v: %d offered, %d ingested (%d local / %d remote), %d dropped, %d errors in %v (%.0f tuples/s)",
		r.Opts.LocalShards, r.Opts.RemoteShards, r.Opts.Publishers, r.Opts.BatchSize, r.Opts.Simnet,
		total.Offered, total.Ingested, r.LocalIngested, r.RemoteIngested,
		total.Dropped, total.Errors, r.Elapsed.Round(time.Millisecond), r.Throughput)
}

// checkInvariant verifies offered == ingested + dropped + errors on
// every shard and stream row of a flushed runtime snapshot.
func checkInvariant(st metrics.RuntimeStats) error {
	for _, sh := range st.Shards {
		if sh.Offered != sh.Ingested+sh.Dropped+sh.Errors {
			return fmt.Errorf("shard %d (%s): offered %d != ingested %d + dropped %d + errors %d",
				sh.Shard, sh.Backend, sh.Offered, sh.Ingested, sh.Dropped, sh.Errors)
		}
	}
	for _, row := range st.Streams {
		if row.Offered != row.Ingested+row.Dropped+row.Errors {
			return fmt.Errorf("stream %q: offered %d != ingested %d + dropped %d + errors %d",
				row.Stream, row.Offered, row.Ingested, row.Dropped, row.Errors)
		}
	}
	return nil
}

// RunRemoteShards stands up the mixed local/remote topology, lays one
// weather stream plus one continuous filter query on every shard, and
// drives the runtime with concurrent batch publishers. It returns the
// runtime's accounting (verified to satisfy the offered == ingested +
// dropped + errors invariant on both backend kinds) and wall-clock
// throughput, so the cost of crossing the wire per shard is directly
// comparable to the in-process baseline columns.
func RunRemoteShards(o RemoteShardsOptions) (RemoteShardsResult, error) {
	o = o.withDefaults()
	shards := o.LocalShards + o.RemoteShards

	var profile *netsim.Profile
	if o.Simnet {
		profile = netsim.Intranet100Mbps(o.NetworkSeed)
	}
	specs := make([]runtime.BackendSpec, o.LocalShards, shards)
	servers := make([]*dsmsd.Server, 0, o.RemoteShards)
	defer func() {
		for _, s := range servers {
			s.Close()
			s.Engine.Close()
		}
	}()
	for i := 0; i < o.RemoteShards; i++ {
		srv := dsmsd.NewServer(dsms.NewEngine(fmt.Sprintf("remote-%d", i)), profile)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return RemoteShardsResult{}, err
		}
		servers = append(servers, srv)
		specs = append(specs, runtime.BackendSpec{Addr: addr})
	}

	rt := runtime.New("remote-bench", runtime.Options{
		Backends:  specs,
		QueueSize: o.QueueSize,
		BatchSize: o.BatchSize,
		Policy:    o.Policy,
	})
	defer rt.Close()

	// Pick stream names that hash onto each shard in turn, so every
	// backend — local and remote — carries exactly one stream.
	schema := source.WeatherSchema()
	streams := make([]string, 0, shards)
	covered := make([]bool, shards)
	for i := 0; len(streams) < shards; i++ {
		name := fmt.Sprintf("weather%d", i)
		si := rt.ShardForStream(name)
		if covered[si] {
			continue
		}
		covered[si] = true
		if err := rt.CreateStream(name, schema); err != nil {
			return RemoteShardsResult{}, err
		}
		// The script form crosses the wire to remote shards; generate it
		// from the same filter graph the sharded experiment deploys.
		g := dsms.NewQueryGraph(name, dsms.NewFilterBox(expr.MustParse("rainrate > 5")))
		script, err := streamql.GenerateString(g, schema)
		if err != nil {
			return RemoteShardsResult{}, err
		}
		if _, _, err := rt.DeployScript(script); err != nil {
			return RemoteShardsResult{}, err
		}
		streams = append(streams, name)
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

	res := RemoteShardsResult{Opts: o, Stats: rt.Stats(), Elapsed: elapsed}
	if sec := elapsed.Seconds(); sec > 0 {
		res.Throughput = float64(res.Stats.Total().Ingested) / sec
	}
	for _, sh := range res.Stats.Shards {
		if strings.HasPrefix(sh.Backend, "remote") {
			res.RemoteIngested += sh.Ingested
		} else {
			res.LocalIngested += sh.Ingested
		}
	}
	if err := checkInvariant(res.Stats); err != nil {
		return res, fmt.Errorf("remote shards accounting: %w", err)
	}
	return res, nil
}
