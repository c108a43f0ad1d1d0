package experiments

import (
	"errors"
	"fmt"
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

// FailoverOptions parameterises the replicated-failover scenario: a
// stream owned by a remote dsmsd shard and replicated to a local
// follower, killed mid-run at a scripted publish count and restarted
// later, measuring the blast radius of the outage (tuples errored
// during down detection), the failover latency (kill to first batch
// accepted on the promoted follower) and whether the restarted process
// is re-adopted and re-fed to zero lag.
type FailoverOptions struct {
	// Tuples is the total number of tuples offered (default 30000).
	Tuples int
	// BatchSize is the publish batch size (default 64).
	BatchSize int
	// KillFrac is the fraction of batches after which the primary's
	// dsmsd is killed (default 1/3); it is restarted at 2*KillFrac.
	KillFrac float64
	// Simnet applies the paper's 100 Mbps intranet profile to the
	// remote link.
	Simnet bool
	// NetworkSeed seeds the simulated-latency jitter.
	NetworkSeed int64
}

// failoverPublishInterval paces the publish loop at one batch per
// interval, so the tuples lost while the primary is down measure the
// down-detection window rather than how fast an unpaced loop runs.
const failoverPublishInterval = time.Millisecond

func (o FailoverOptions) withDefaults() FailoverOptions {
	if o.Tuples <= 0 {
		o.Tuples = 30000
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.KillFrac <= 0 || o.KillFrac >= 0.5 {
		o.KillFrac = 1.0 / 3
	}
	if o.NetworkSeed == 0 {
		o.NetworkSeed = 7
	}
	return o
}

// FailoverResult reports one replicated-failover run.
type FailoverResult struct {
	Opts  FailoverOptions
	Stats metrics.RuntimeStats
	// Lost is the number of tuples accounted as errors — the blast
	// radius of the outage window (everything else was ingested; the
	// offered == ingested + dropped + errors invariant is verified).
	Lost uint64
	// FailoverLatency is the wall time from the kill to the first
	// batch accepted on the promoted follower.
	FailoverLatency time.Duration
	// Readopted reports whether the restarted dsmsd was re-adopted by
	// the probe before the run ended.
	Readopted bool
	// ResidualLag is the restarted follower's replication lag after
	// the final Flush (0 = fully re-fed from the retained log).
	ResidualLag uint64
	Elapsed     time.Duration
}

// String renders a one-line summary.
func (r FailoverResult) String() string {
	total := r.Stats.Total()
	offered := total.Offered
	if offered == 0 {
		offered = 1
	}
	return fmt.Sprintf("offered=%d ingested=%d lost=%d (%.2f%%), failover=%v, readopted=%v, residual lag=%d, elapsed=%v",
		total.Offered, total.Ingested, r.Lost,
		100*float64(r.Lost)/float64(offered),
		r.FailoverLatency.Round(time.Millisecond), r.Readopted, r.ResidualLag,
		r.Elapsed.Round(time.Millisecond))
}

// RunFailoverBlastRadius runs the kill/promote/restart/re-adopt cycle
// against a real dsmsd process over loopback and measures what the
// outage cost. Batches go out one per failoverPublishInterval. The
// kill and restart fire at deterministic logical publish counts via
// netsim.Script, and the restart waits until the query serves from the
// promoted follower; only the down-detection and re-adoption latencies
// are wall-clock.
func RunFailoverBlastRadius(o FailoverOptions) (FailoverResult, error) {
	o = o.withDefaults()

	var profile *netsim.Profile
	if o.Simnet {
		profile = netsim.Intranet100Mbps(o.NetworkSeed)
	}
	srv := dsmsd.NewServer(dsms.NewEngine("failover-primary"), profile)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return FailoverResult{}, err
	}
	var srv2 *dsmsd.Server
	defer func() {
		srv.Close()
		srv.Engine.Close()
		if srv2 != nil {
			srv2.Close()
			srv2.Engine.Close()
		}
	}()

	readopted := make(chan struct{})
	markReadopted := sync.OnceFunc(func() { close(readopted) })
	rt := runtime.New("failover-bench", runtime.Options{
		Replication: 2,
		Backends: []runtime.BackendSpec{
			{Addr: addr, Remote: runtime.RemoteOptions{
				MaxReconnects:    2,
				ReconnectBackoff: 2 * time.Millisecond,
				HealthInterval:   5 * time.Millisecond,
				CallTimeout:      2 * time.Second,
				OnHealthEvent: func(event string, err error) {
					if event == "readopted" && err == nil {
						markReadopted()
					}
				},
			}},
			{}, // local follower / failover target
		},
	})
	defer rt.Close()

	// A stream owned by the remote shard, plus a continuous filter so
	// the failover carries a deployed query along.
	schema := source.WeatherSchema()
	name := ""
	for i := 0; ; i++ {
		cand := fmt.Sprintf("weather%d", i)
		if rt.ShardForStream(cand) == 0 {
			name = cand
			break
		}
	}
	if err := rt.CreateStream(name, schema); err != nil {
		return FailoverResult{}, err
	}
	g := dsms.NewQueryGraph(name, dsms.NewFilterBox(expr.MustParse("rainrate > 5")))
	script, err := streamql.GenerateString(g, schema)
	if err != nil {
		return FailoverResult{}, err
	}
	id, _, err := rt.DeployScript(script)
	if err != nil {
		return FailoverResult{}, err
	}

	ws := source.NewWeatherStation(0, 1000, o.NetworkSeed)
	pool := make([]stream.Tuple, 2048)
	for i := range pool {
		pool[i] = ws.Next()
	}

	batches := (o.Tuples + o.BatchSize - 1) / o.BatchSize
	killAt := uint64(float64(batches) * o.KillFrac)
	restartAt := 2 * killAt
	var killedAt time.Time
	fault := netsim.NewScript(
		netsim.Event{At: killAt, Name: "kill-primary", Do: func() {
			// Quiesce to a replication checkpoint first: everything
			// offered before the kill is ingested and on the follower,
			// so the measured loss is the down-detection window alone
			// (tuples in flight toward a dead shard during an
			// unflushed kill would be added on top of it).
			rt.Flush()
			srv.Close()
			srv.Engine.Close()
			killedAt = time.Now()
		}},
		netsim.Event{At: restartAt, Name: "restart-primary", Do: func() {
			// Wait for the failover to move the query's primary part to
			// the follower, then rebind the same address with an empty
			// replacement process.
			deadline := time.Now().Add(5 * time.Second)
			for !servesFrom(rt, id, 1) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			eng := dsms.NewEngine("failover-reborn")
			for time.Now().Before(deadline) {
				s := dsmsd.NewServer(eng, nil)
				if _, err := s.Listen(addr); err == nil {
					srv2 = s
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			eng.Close()
		}},
	)

	res := FailoverResult{Opts: o}
	start := time.Now()
	published := 0
	for b := 0; b < batches; b++ {
		n := o.BatchSize
		if rest := o.Tuples - published; n > rest {
			n = rest
		}
		batch := make([]stream.Tuple, n)
		for i := range batch {
			batch[i] = pool[(published+i)%len(pool)]
		}
		_, _ = rt.PublishBatch(name, batch)
		published += n
		// First batch landing with the query on the follower marks the
		// end of the failover window.
		if res.FailoverLatency == 0 && !killedAt.IsZero() && servesFrom(rt, id, 1) {
			res.FailoverLatency = time.Since(killedAt)
		}
		fault.Advance(1)
		time.Sleep(failoverPublishInterval)
	}
	if !fault.Done() {
		return res, errors.New("experiments: fault script did not finish (kill/restart fractions out of range)")
	}
	// The promotion runs concurrently with the publish loop (down
	// detection is asynchronous); if the loop outran it, give it a
	// bounded window to land before measuring.
	if res.FailoverLatency == 0 {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if servesFrom(rt, id, 1) {
				res.FailoverLatency = time.Since(killedAt)
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Give the probe a bounded window to re-adopt the restarted
	// process, then Flush: a re-adopted follower must be re-fed from
	// the retained replication log to zero lag.
	select {
	case <-readopted:
		res.Readopted = true
	case <-time.After(10 * time.Second):
	}
	rt.Flush()
	res.Elapsed = time.Since(start)
	res.Stats = rt.Stats()
	res.Lost = res.Stats.Total().Errors
	for _, l := range rt.ReplicaLag(name) {
		if l.Lag > res.ResidualLag {
			res.ResidualLag = l.Lag
		}
	}
	if err := checkInvariant(res.Stats); err != nil {
		return res, fmt.Errorf("failover accounting: %w", err)
	}
	return res, nil
}

// servesFrom reports whether query id's primary part is on shard.
func servesFrom(rt *runtime.Runtime, id string, shard int) bool {
	d, ok := rt.Query(id)
	return ok && d.Shards()[0] == shard
}
