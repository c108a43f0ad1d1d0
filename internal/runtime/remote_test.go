// Remote-backend tests live in an external test package so they can
// import internal/client (whose dependency chain includes the runtime)
// to assert the documented client.ErrConnClosed failover contract.
package runtime_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dsms"
	"repro/internal/dsmsd"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/runtime"
	"repro/internal/stream"
)

func testSchema() *stream.Schema {
	return stream.MustSchema(
		stream.Field{Name: "a", Type: stream.TypeDouble},
		stream.Field{Name: "t", Type: stream.TypeTimestamp},
	)
}

func mkTuple(a float64, ms int64) stream.Tuple {
	return stream.NewTuple(stream.DoubleValue(a), stream.TimestampMillis(ms))
}

// startDSMSD stands up an in-process dsmsd server over loopback.
func startDSMSD(t *testing.T, name string, profile *netsim.Profile) (*dsmsd.Server, string) {
	t.Helper()
	srv := dsmsd.NewServer(dsms.NewEngine(name), profile)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

// fastRemote keeps reconnect budgets tiny so failover tests finish in
// milliseconds.
func fastRemote() runtime.RemoteOptions {
	return runtime.RemoteOptions{
		MaxReconnects:    2,
		ReconnectBackoff: 2 * time.Millisecond,
		HealthInterval:   -1, // probe off: the publish path must detect death itself
	}
}

// streamNamesPerShard picks one stream name hashing onto each shard.
func streamNamesPerShard(t *testing.T, rt *runtime.Runtime) []string {
	t.Helper()
	names := make([]string, rt.NumShards())
	covered := 0
	for i := 0; covered < len(names); i++ {
		name := fmt.Sprintf("s%d", i)
		if si := rt.ShardForStream(name); names[si] == "" {
			names[si] = name
			covered++
		}
	}
	return names
}

// checkInvariant asserts offered == ingested + dropped + errors on
// every shard and stream row.
func checkInvariant(t *testing.T, rt *runtime.Runtime) {
	t.Helper()
	st := rt.Stats()
	for _, sh := range st.Shards {
		if sh.Offered != sh.Ingested+sh.Dropped+sh.Errors {
			t.Errorf("shard %d (%s): offered %d != ingested %d + dropped %d + errors %d",
				sh.Shard, sh.Backend, sh.Offered, sh.Ingested, sh.Dropped, sh.Errors)
		}
	}
	for _, row := range st.Streams {
		if row.Offered != row.Ingested+row.Dropped+row.Errors {
			t.Errorf("stream %q: offered %d != ingested %d + dropped %d + errors %d",
				row.Stream, row.Offered, row.Ingested, row.Dropped, row.Errors)
		}
	}
}

// TestMixedTopologyEndToEnd runs a 1 local + 1 remote runtime through
// the full surface: stream DDL, script deploy, publish, merged
// subscription and stats, with the remote shard behaving exactly like
// the local one.
func TestMixedTopologyEndToEnd(t *testing.T) {
	srv, addr := startDSMSD(t, "remote-0", nil)
	defer srv.Close()
	defer srv.Engine.Close()

	rt := runtime.New("mixed", runtime.Options{
		Backends: []runtime.BackendSpec{{}, {Addr: addr, Remote: fastRemote()}},
	})
	defer rt.Close()

	names := streamNamesPerShard(t, rt)
	for _, name := range names {
		if err := rt.CreateStream(name, testSchema()); err != nil {
			t.Fatal(err)
		}
	}
	// Schema lookups route regardless of owning backend.
	for _, name := range names {
		if _, err := rt.StreamSchema(name); err != nil {
			t.Fatalf("schema %q: %v", name, err)
		}
	}
	// Deploy one filter per stream via the script path (the only form
	// that crosses the wire) and subscribe through the runtime.
	remoteStream := names[1]
	id, handle, err := rt.DeployScript(fmt.Sprintf(
		"CREATE INPUT STREAM %s (a double, t timestamp); CREATE OUTPUT STREAM big; SELECT * FROM %s WHERE a > 100 INTO big;",
		remoteStream, remoteStream))
	if err != nil {
		t.Fatal(err)
	}
	if id == "" || handle == "" {
		t.Fatalf("deploy = %q, %q", id, handle)
	}
	sub, err := rt.Subscribe(handle)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const n = 500
	for i := 0; i < n; i++ {
		if err := rt.Publish(remoteStream, mkTuple(float64(i), int64(i)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	rt.Flush()

	want := n - 101 // a in 101..499 passes the filter
	got := 0
	deadline := time.After(5 * time.Second)
	for got < want {
		select {
		case <-sub.C:
			got++
		case <-deadline:
			t.Fatalf("received %d filtered tuples, want %d", got, want)
		}
	}

	if qc := rt.QueryCount(); qc != 1 {
		t.Errorf("QueryCount = %d, want 1", qc)
	}
	st := rt.Stats()
	if st.Shards[0].Backend != "local" || st.Shards[1].Backend != fmt.Sprintf("remote(%s)", addr) {
		t.Errorf("backend kinds = %q, %q", st.Shards[0].Backend, st.Shards[1].Backend)
	}
	if !st.Shards[1].Healthy {
		t.Error("remote shard reported unhealthy")
	}
	checkInvariant(t, rt)

	if err := rt.Withdraw(id); err != nil {
		t.Fatal(err)
	}
	if qc := rt.QueryCount(); qc != 0 {
		t.Errorf("QueryCount after withdraw = %d, want 0", qc)
	}
	if err := rt.DropStream(remoteStream); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteFailoverMidPublish kills a remote shard's dsmsd between
// batches and asserts the two documented failover guarantees: the
// terminal error surfaces from PublishBatchVerdict as
// client.ErrConnClosed, and the offered == ingested + dropped + errors
// invariant survives the crash (in-flight tuples drain to the error
// counters, refused tuples are accounted synchronously).
func TestRemoteFailoverMidPublish(t *testing.T) {
	srv, addr := startDSMSD(t, "remote-f", nil)
	defer srv.Engine.Close()

	rt := runtime.New("failover", runtime.Options{
		Backends: []runtime.BackendSpec{{Addr: addr, Remote: fastRemote()}},
	})
	defer rt.Close()

	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	batch := make([]stream.Tuple, 32)
	for i := range batch {
		batch[i] = mkTuple(float64(i), int64(i)*1000)
	}
	if v, err := rt.PublishBatchVerdict("s", batch); err != nil || v.Accepted != len(batch) {
		t.Fatalf("pre-kill publish = %+v, %v", v, err)
	}
	rt.Flush()

	srv.Close() // kill the dsmsd process mid-stream

	// Publish until the shard declares its backend down; the loop is
	// bounded because the reconnect budget is.
	var pubErr error
	deadline := time.Now().Add(10 * time.Second)
	for pubErr == nil {
		if time.Now().After(deadline) {
			t.Fatal("publishes kept succeeding after the dsmsd died")
		}
		_, pubErr = rt.PublishBatchVerdict("s", batch)
	}
	if !errors.Is(pubErr, client.ErrConnClosed) {
		t.Fatalf("publish error = %v, want errors.Is(..., client.ErrConnClosed)", pubErr)
	}

	rt.Flush() // terminates: queued tuples drain into the error counters
	st := rt.Stats()
	if st.Shards[0].Healthy {
		t.Error("shard still reports healthy after failover")
	}
	if st.Shards[0].Errors == 0 {
		t.Error("no tuples accounted as errors after the crash")
	}
	checkInvariant(t, rt)
}

// TestRuntimeCloseClosesRemoteSubscriptions pins the shutdown
// contract remote shards must share with local ones: closing the
// runtime closes every subscription channel, so consumers ranging
// over them terminate instead of blocking forever.
func TestRuntimeCloseClosesRemoteSubscriptions(t *testing.T) {
	srv, addr := startDSMSD(t, "remote-c", nil)
	defer srv.Close()
	defer srv.Engine.Close()

	rt := runtime.New("closer", runtime.Options{
		Backends: []runtime.BackendSpec{{Addr: addr, Remote: fastRemote()}},
	})
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	_, handle, err := rt.DeployScript(
		"CREATE INPUT STREAM s (a double, t timestamp); CREATE OUTPUT STREAM o; SELECT * FROM s WHERE a > 0 INTO o;")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe(handle)
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()

	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.C:
			if !ok {
				return // channel closed: consumers terminate
			}
		case <-deadline:
			t.Fatal("subscription channel still open after Runtime.Close")
		}
	}
}

// TestPartitionedPublishSurvivesDownedShard publishes a partitioned
// stream across a live local shard and a killed remote shard: the
// failed shard's buckets must be refused (surfacing
// client.ErrConnClosed) while every other bucket is still dispatched,
// and the stream row's offered == ingested + dropped + errors
// accounting must balance across the split.
func TestPartitionedPublishSurvivesDownedShard(t *testing.T) {
	srv, addr := startDSMSD(t, "remote-p", nil)
	defer srv.Engine.Close()

	rt := runtime.New("part", runtime.Options{
		Backends: []runtime.BackendSpec{{}, {Addr: addr, Remote: fastRemote()}},
	})
	defer rt.Close()

	schema := stream.MustSchema(
		stream.Field{Name: "deviceid", Type: stream.TypeString},
		stream.Field{Name: "v", Type: stream.TypeDouble},
	)
	if err := rt.CreatePartitionedStream("ps", schema, "deviceid"); err != nil {
		t.Fatal(err)
	}
	// 64 distinct keys cover both shards with near certainty.
	batch := make([]stream.Tuple, 64)
	for i := range batch {
		batch[i] = stream.NewTuple(stream.StringValue(fmt.Sprintf("dev%d", i)), stream.DoubleValue(float64(i)))
	}
	if v, err := rt.PublishBatchVerdict("ps", batch); err != nil || v.Accepted != len(batch) {
		t.Fatalf("pre-kill publish = %+v, %v", v, err)
	}
	rt.Flush()

	srv.Close()

	var pubErr error
	deadline := time.Now().Add(10 * time.Second)
	for pubErr == nil {
		if time.Now().After(deadline) {
			t.Fatal("publishes kept succeeding after the dsmsd died")
		}
		_, pubErr = rt.PublishBatchVerdict("ps", batch)
	}
	if !errors.Is(pubErr, client.ErrConnClosed) {
		t.Fatalf("publish error = %v, want errors.Is(..., client.ErrConnClosed)", pubErr)
	}
	// With the remote shard in fail-fast mode, the local buckets must
	// still be accepted on the same call that reports the error.
	beforeLocal := rt.Stats().Shards[0].Offered
	v, err := rt.PublishBatchVerdict("ps", batch)
	if err == nil || v.Accepted == 0 {
		t.Fatalf("split publish = %+v, %v; want partial acceptance plus the shard error", v, err)
	}
	if after := rt.Stats().Shards[0].Offered; after != beforeLocal+uint64(v.Accepted) {
		t.Errorf("local shard offered %d -> %d, want +%d (its buckets must still be dispatched)", beforeLocal, after, v.Accepted)
	}
	rt.Flush()
	checkInvariant(t, rt)
}

// TestDownedShardFailsFastUntilReadopted pins the whole contract for a
// dead shard without replication, on a partitioned stream across a
// local shard and a remote dsmsd: deploys fail naming the dead shard
// and roll back the healthy shard's part, publishes keep exact
// accounting (the dead shard's buckets are errors, the live shard's
// are served, and no key ever changes shard), and once a restarted
// dsmsd is re-adopted the same script deploys on both shards and the
// dead shard's keys land on it again.
func TestDownedShardFailsFastUntilReadopted(t *testing.T) {
	const decl = "CREATE INPUT STREAM ps (deviceid string, v double); CREATE OUTPUT STREAM o; "
	for _, tc := range []struct{ name, script string }{
		{"filter", decl + "SELECT * FROM ps WHERE v >= 0 INTO o;"},
		{"staged-aggregate", decl + "CREATE WINDOW w (SIZE 8 ADVANCE 4 TUPLES); SELECT avg(v) AS av FROM ps[w] INTO o;"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startDSMSD(t, "remote-d", nil)
			// Non-blocking sends: the restarted dsmsd's teardown at the end
			// of the test posts a second down.
			down, readopted := make(chan struct{}, 1), make(chan struct{}, 1)
			signal := func(c chan struct{}) {
				select {
				case c <- struct{}{}:
				default:
				}
			}
			rt := runtime.New("down", runtime.Options{
				Backends: []runtime.BackendSpec{{}, {Addr: addr, Remote: runtime.RemoteOptions{
					MaxReconnects:    2,
					ReconnectBackoff: time.Millisecond,
					HealthInterval:   3 * time.Millisecond,
					CallTimeout:      2 * time.Second,
					OnHealthEvent: func(event string, err error) {
						if event == "down" {
							signal(down)
						} else if event == "readopted" && err == nil {
							signal(readopted)
						}
					},
				}}},
			})
			defer rt.Close()

			schema := stream.MustSchema(
				stream.Field{Name: "deviceid", Type: stream.TypeString},
				stream.Field{Name: "v", Type: stream.TypeDouble},
			)
			if err := rt.CreatePartitionedStream("ps", schema, "deviceid"); err != nil {
				t.Fatal(err)
			}
			// The same 64 keys every time, so each shard's share of a
			// batch is a constant: n0 tuples hash to shard 0, n1 to shard 1.
			publish := func() (runtime.PublishVerdict, error) {
				batch := make([]stream.Tuple, 64)
				for i := range batch {
					batch[i] = stream.NewTuple(stream.StringValue(fmt.Sprintf("dev%d", i)), stream.DoubleValue(float64(i)))
				}
				return rt.PublishBatchVerdict("ps", batch)
			}
			if v, err := publish(); err != nil || v.Accepted != 64 {
				t.Fatalf("pre-kill publish = %+v, %v", v, err)
			}
			rt.Flush()
			st := rt.Stats()
			n0, n1 := st.Shards[0].Offered, st.Shards[1].Offered
			if n0 == 0 || n1 == 0 || n0+n1 != 64 {
				t.Fatalf("keys split %d/%d across the shards, want both non-empty", n0, n1)
			}

			srv.Close()
			srv.Engine.Close()
			select {
			case <-down:
			case <-time.After(10 * time.Second):
				t.Fatal("probe never declared the killed dsmsd down")
			}

			// Deploy fails on the dead shard and leaves nothing behind on
			// the healthy one.
			before := len(listParts(t, rt.Backend(0)))
			if _, _, err := rt.DeployScript(tc.script); err == nil || !strings.Contains(err.Error(), "shard 1") {
				t.Fatalf("deploy with shard 1 down: err = %v, want one naming shard 1", err)
			}
			if got := len(listParts(t, rt.Backend(0))); got != before {
				t.Errorf("healthy shard runs %d queries after the failed deploy, want %d (rollback)", got, before)
			}
			if rt.QueryCount() != 0 {
				t.Errorf("runtime registered %d queries from a failed deploy", rt.QueryCount())
			}

			// Publishes: shard 1's bucket is refused and accounted, shard
			// 0's is served, and neither receives the other's keys.
			for round := 1; round <= 3; round++ {
				v, err := publish()
				if !errors.Is(err, client.ErrConnClosed) || uint64(v.Accepted) != n0 {
					t.Fatalf("publish %d with shard 1 down = %+v, %v; want %d accepted and client.ErrConnClosed", round, v, err, n0)
				}
			}
			rt.Flush()
			st = rt.Stats()
			if got := st.Shards[0].Offered; got != 4*n0 {
				t.Errorf("shard 0 offered %d, want %d (only its own keys, every round)", got, 4*n0)
			}
			if got := st.Shards[1].Errors; got != 3*n1 {
				t.Errorf("shard 1 errors %d, want %d (its keys, refused while down)", got, 3*n1)
			}
			checkInvariant(t, rt)

			// A restarted process remembers nothing; the probe re-adopts it.
			srv2 := restartDSMSD(t, addr)
			defer srv2.Close()
			defer srv2.Engine.Close()
			select {
			case <-readopted:
			case <-time.After(10 * time.Second):
				t.Fatal("restarted dsmsd was never re-adopted")
			}

			id, _, err := rt.DeployScript(tc.script)
			if err != nil {
				t.Fatalf("deploy after re-adoption: %v", err)
			}
			if d, ok := rt.Query(id); !ok || len(d.Parts) != 2 {
				t.Fatalf("deployment %+v, want one part per shard", d)
			}
			if got := len(listParts(t, rt.Backend(1))); got != 1 {
				t.Errorf("re-adopted shard runs %d queries, want 1", got)
			}
			if v, err := publish(); err != nil || v.Accepted != 64 {
				t.Fatalf("publish after re-adoption = %+v, %v", v, err)
			}
			rt.Flush()
			st = rt.Stats()
			if got := st.Shards[0].Offered; got != 5*n0 {
				t.Errorf("shard 0 offered %d, want %d (shard 1's keys never moved to it)", got, 5*n0)
			}
			if got := st.Shards[1].Ingested; got != 2*n1 {
				t.Errorf("shard 1 ingested %d, want %d (its keys land on it again)", got, 2*n1)
			}
			checkInvariant(t, rt)
		})
	}
}

// restartDSMSD binds a fresh, empty dsmsd to an address a killed one
// just released, retrying briefly while the old listener unwinds.
func restartDSMSD(t *testing.T, addr string) *dsmsd.Server {
	t.Helper()
	eng := dsms.NewEngine("reborn")
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv := dsmsd.NewServer(eng, nil)
		if _, err := srv.Listen(addr); err == nil {
			return srv
		}
		if time.Now().After(deadline) {
			eng.Close()
			t.Fatalf("could not rebind %s", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSlowRemoteShardShedsWithoutStallingSiblings puts a high-latency
// netsim profile on one remote shard and publishes a best-effort
// stream into it while a sibling local shard carries a normal-class
// stream: the slow shard's class-aware drop policy must shed the
// best-effort overload (its queue drains one slow round trip at a
// time) without the sibling losing a tuple or the publishers stalling
// on the slow link.
func TestSlowRemoteShardShedsWithoutStallingSiblings(t *testing.T) {
	slow := netsim.NewProfile("slow-lan", 4*time.Millisecond, 0, 0, 1)
	srv, addr := startDSMSD(t, "remote-slow", slow)
	defer srv.Close()
	defer srv.Engine.Close()

	rt := runtime.New("slow", runtime.Options{
		Backends:  []runtime.BackendSpec{{}, {Addr: addr, Remote: fastRemote()}},
		QueueSize: 64,
		Policy:    runtime.Block,
		// Block only Normal and above: the best-effort stream on the
		// slow shard sheds instead of stalling its publisher.
		BlockClass: runtime.Normal,
	})
	defer rt.Close()

	names := streamNamesPerShard(t, rt)
	localStream, slowStream := names[0], names[1]
	if err := rt.CreateStream(localStream, testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateStream(slowStream, testSchema(), runtime.WithClass(runtime.BestEffort)); err != nil {
		t.Fatal(err)
	}

	const n = 4000
	batch := make([]stream.Tuple, 50)
	for i := range batch {
		batch[i] = mkTuple(float64(i), int64(i)*1000)
	}
	done := make(chan error, 2)
	publish := func(name string) {
		for i := 0; i < n/len(batch); i++ {
			if _, err := rt.PublishBatchVerdict(name, batch); err != nil {
				done <- fmt.Errorf("publish %s: %w", name, err)
				return
			}
		}
		done <- nil
	}
	start := time.Now()
	go publish(slowStream)
	go publish(localStream)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	publishElapsed := time.Since(start)
	rt.Flush()

	st := rt.Stats()
	var localRow, slowRow metrics.StreamStat
	for _, row := range st.Streams {
		switch row.Stream {
		case localStream:
			localRow = row
		case slowStream:
			slowRow = row
		}
	}
	if localRow.Stream == "" || slowRow.Stream == "" {
		t.Fatalf("missing stream rows in %+v", st.Streams)
	}
	if slowRow.Dropped == 0 {
		t.Errorf("slow remote shard shed nothing (ingested %d); want its drop policy to trigger", slowRow.Ingested)
	}
	if localRow.Dropped != 0 || localRow.Ingested != n {
		t.Errorf("sibling local shard: ingested %d dropped %d, want %d and 0 (no collateral shedding)", localRow.Ingested, localRow.Dropped, n)
	}
	// The best-effort publisher never blocks on the slow link, and the
	// sibling only ever waits for its own fast local drain: the offered
	// load must clear far faster than draining 2*n tuples over the slow
	// link would take.
	if publishElapsed > 5*time.Second {
		t.Errorf("publishers took %v; the slow shard stalled its siblings", publishElapsed)
	}
	checkInvariant(t, rt)
}
