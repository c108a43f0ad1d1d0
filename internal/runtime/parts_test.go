// Part-table tests: every deployment shape — plain, partitioned,
// replicated, staged — keeps its parts in one table, so teardown,
// re-adoption and promotion must behave the same for all of them:
// staged subscriptions end when their stream or runtime goes away,
// re-adopting a shard whose engine never restarted neither duplicates
// output nor leaks parts, a query withdrawn while a shard was down stops
// running there once it heals, and a filter over a replicated
// partitioned stream deploys and fails over like any other query.
package runtime_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dsms"
	"repro/internal/expr"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// listParts names the parts a backend runs.
func listParts(t *testing.T, be runtime.ShardBackend) []string {
	t.Helper()
	names, err := be.ListParts()
	if err != nil {
		t.Fatalf("ListParts on %s: %v", be.Kind(), err)
	}
	return names
}

// keyedTuples builds n tuples of mergeSchema whose field i is the
// tuple's unique identity from..from+n-1, spread over 16 keys.
func keyedTuples(from, n int) []stream.Tuple {
	ts := make([]stream.Tuple, n)
	for k := range ts {
		i := from + k
		ts[k] = stream.NewTuple(
			stream.StringValue(fmt.Sprintf("k%d", i%16)),
			stream.IntValue(int64(i)),
			stream.DoubleValue(float64(i)),
			stream.StringValue("x"))
	}
	return ts
}

// deliveredOnce drains a subscription until it has been quiet for
// 200ms and requires every identity in want to arrive exactly once and
// nothing else to arrive at all.
func deliveredOnce(t *testing.T, sub *runtime.Subscription, want map[int64]bool) {
	t.Helper()
	seen := map[int64]int{}
	n := 0
	deadline := time.After(10 * time.Second)
	for n < len(want) || len(sub.C) > 0 {
		select {
		case tu, ok := <-sub.C:
			if !ok {
				t.Fatalf("subscription closed after %d of %d deliveries", n, len(want))
			}
			seen[tu.Values[1].Int()]++
			n++
		case <-deadline:
			t.Fatalf("received %d deliveries, want %d", n, len(want))
		}
	}
	// Late duplicates would arrive after the expected count.
	quiet := time.After(200 * time.Millisecond)
drain:
	for {
		select {
		case tu, ok := <-sub.C:
			if !ok {
				break drain
			}
			seen[tu.Values[1].Int()]++
			n++
		case <-quiet:
			break drain
		}
	}
	for i, c := range seen {
		if c != 1 || !want[i] {
			t.Errorf("tuple i=%d delivered %d times (expected: %v)", i, c, want[i])
		}
	}
	if n != len(want) {
		t.Errorf("received %d deliveries, want %d (one per accepted tuple)", n, len(want))
	}
}

// TestStagedSubscriptionEnds: a staged global aggregate's subscription
// is fed by its merge stage, not by an engine, so only tearing the
// query down ends it. Dropping its stream and closing the runtime must
// both do that, exactly as they end a plain query's subscription.
func TestStagedSubscriptionEnds(t *testing.T) {
	for _, end := range []string{"drop-stream", "close"} {
		t.Run(end, func(t *testing.T) {
			rt := runtime.New("staged-end", runtime.Options{Shards: 2})
			defer rt.Close()
			if err := rt.CreatePartitionedStream("s", mergeSchema(), "key"); err != nil {
				t.Fatal(err)
			}
			dep, err := rt.Deploy(dsms.NewQueryGraph("s", dsms.NewAggregateBox(
				dsms.WindowSpec{Type: dsms.WindowTuple, Size: 4, Step: 4},
				dsms.AggSpec{Attr: "i", Func: dsms.AggSum})))
			if err != nil {
				t.Fatal(err)
			}
			sub, err := rt.Subscribe(dep.Handle)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			if _, err := rt.PublishBatch("s", keyedTuples(0, 40)); err != nil {
				t.Fatal(err)
			}
			rt.Flush()

			if end == "close" {
				rt.Close()
			} else if err := rt.DropStream("s"); err != nil {
				t.Fatal(err)
			}
			deadline := time.After(3 * time.Second)
			for {
				select {
				case _, ok := <-sub.C:
					if !ok {
						return
					}
				case <-deadline:
					t.Fatalf("staged subscription still open 3s after %s", end)
				}
			}
		})
	}
}

// TestReadoptLiveShardExactlyOnce re-adopts a local shard whose engine
// never restarted (FailShard then ReadoptShard, the shape of a healed
// network partition): its old parts are still running, so re-adoption
// must withdraw them before redeploying, or the shard runs every query
// twice and subscribers see its output twice.
func TestReadoptLiveShardExactlyOnce(t *testing.T) {
	t.Run("partitioned-filter", func(t *testing.T) {
		rt := runtime.New("readopt-part", runtime.Options{Shards: 2})
		defer rt.Close()
		if err := rt.CreatePartitionedStream("s", mergeSchema(), "key"); err != nil {
			t.Fatal(err)
		}
		dep, err := rt.Deploy(dsms.NewQueryGraph("s", dsms.NewFilterBox(expr.MustParse("i >= 0"))))
		if err != nil {
			t.Fatal(err)
		}
		sub, err := rt.Subscribe(dep.Handle)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		want := map[int64]bool{}
		publish := func(from, n int) {
			if v, err := rt.PublishBatchVerdict("s", keyedTuples(from, n)); err != nil || v.Accepted != n {
				t.Fatalf("publish [%d,%d) = %+v, %v", from, from+n, v, err)
			}
			for i := from; i < from+n; i++ {
				want[int64(i)] = true
			}
		}
		publish(0, 50)
		rt.Flush()
		rt.FailShard(1, errors.New("injected partition"))
		if err := rt.ReadoptShard(1); err != nil {
			t.Fatal(err)
		}
		publish(50, 50)
		rt.Flush()
		deliveredOnce(t, sub, want)
		for i := 0; i < rt.NumShards(); i++ {
			if qc := len(listParts(t, rt.Backend(i))); qc != 1 {
				t.Errorf("shard %d runs %d queries for 1 deployment", i, qc)
			}
		}
		checkInvariant(t, rt)
	})

	t.Run("replicated-window", func(t *testing.T) {
		rt := runtime.New("readopt-repl", runtime.Options{Shards: 2, Replication: 2})
		defer rt.Close()
		// One stream owned by each shard: shard 1 holds one primary and
		// one standby part going into the re-adoption.
		var ids []string
		for _, name := range streamNamesPerShard(t, rt) {
			if err := rt.CreateStream(name, testSchema()); err != nil {
				t.Fatal(err)
			}
			dep, err := rt.Deploy(replAggGraph(name, dsms.WindowSpec{Type: dsms.WindowTuple, Size: 8, Step: 4}))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, dep.ID)
			seq := 0
			if _, err := publishStamped(rt, name, &seq, 20); err != nil {
				t.Fatal(err)
			}
		}
		rt.Flush()
		rt.FailShard(1, errors.New("injected partition"))
		if err := rt.ReadoptShard(1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rt.NumShards(); i++ {
			if qc := len(listParts(t, rt.Backend(i))); qc != len(ids) {
				t.Errorf("shard %d runs %d parts for %d deployments, want one each", i, qc, len(ids))
			}
		}
		for _, id := range ids {
			if err := rt.Withdraw(id); err != nil {
				t.Errorf("withdraw %s: %v", id, err)
			}
		}
		for i := 0; i < rt.NumShards(); i++ {
			if qc := len(listParts(t, rt.Backend(i))); qc != 0 {
				t.Errorf("shard %d still runs %d parts after every query was withdrawn", i, qc)
			}
		}
	})
}

// withdrawFlavours are the two-shard topologies the withdraw-while-down
// schedules run on: two in-process engines, or an in-process engine and
// a dsmsd on shard 1. Either way shard 1's engine outlives FailShard,
// the shape of a healed network partition.
var withdrawFlavours = []struct {
	name string
	open func(t *testing.T, name string, reg *telemetry.Registry) *runtime.Runtime
}{
	{"local", func(t *testing.T, name string, reg *telemetry.Registry) *runtime.Runtime {
		return runtime.New(name, runtime.Options{Shards: 2, Metrics: reg})
	}},
	{"remote dsmsd", func(t *testing.T, name string, reg *telemetry.Registry) *runtime.Runtime {
		srv, addr := startDSMSD(t, name+"-d", nil)
		t.Cleanup(srv.Engine.Close)
		t.Cleanup(srv.Close)
		return runtime.New(name, runtime.Options{Metrics: reg, Backends: []runtime.BackendSpec{
			{Addr: "local"}, {Addr: addr, Remote: fastRemote()}}})
	}},
}

// withdrawWhileDown runs the measured schedule on rt: deploy a filter
// over a stream shard 1 owns (or, partitioned, one spread over both
// shards), fail shard 1, withdraw the query, heal shard 1. It returns
// the deployment as it was before the withdraw.
func withdrawWhileDown(t *testing.T, rt *runtime.Runtime, partitioned bool) runtime.Deployment {
	t.Helper()
	input := streamNamesPerShard(t, rt)[1]
	var err error
	if partitioned {
		input = "p"
		err = rt.CreatePartitionedStream(input, mergeSchema(), "key")
	} else {
		err = rt.CreateStream(input, mergeSchema())
	}
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := rt.DeployScript(fmt.Sprintf("CREATE INPUT STREAM %s (key string, i int, d double, s string); "+
		"CREATE OUTPUT STREAM o; SELECT * FROM %s WHERE i >= 0 INTO o;", input, input))
	if err != nil {
		t.Fatal(err)
	}
	dep, _ := rt.Query(id)
	rt.FailShard(1, errors.New("injected partition"))
	if err := rt.Withdraw(dep.Handle); err != nil {
		t.Fatalf("withdraw while shard 1 is down: %v", err)
	}
	if err := rt.ReadoptShard(1); err != nil {
		t.Fatal(err)
	}
	return dep
}

// TestWithdrawWhileDownHealedShardRunsNothing: a query withdrawn while
// the shard running it is down (its engine alive behind a partition)
// must not run there once the shard heals. Re-adoption deletes the
// part no table holds and counts it.
func TestWithdrawWhileDownHealedShardRunsNothing(t *testing.T) {
	for _, f := range withdrawFlavours {
		for _, partitioned := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/partitioned=%v", f.name, partitioned), func(t *testing.T) {
				reg := telemetry.NewRegistry()
				rt := f.open(t, "wd", reg)
				defer rt.Close()
				withdrawWhileDown(t, rt, partitioned)
				if names := listParts(t, rt.Backend(1)); len(names) != 0 {
					t.Errorf("healed shard 1 runs %v, want nothing", names)
				}
				if rt.QueryCount() != 0 {
					t.Errorf("runtime runs %d parts after its one query was withdrawn", rt.QueryCount())
				}
				if got := reg.Counter("exacml_orphan_parts_deleted_total", "", telemetry.L("shard", "1")).Load(); got != 1 {
					t.Errorf("exacml_orphan_parts_deleted_total{shard=1} = %d, want 1", got)
				}
			})
		}
	}
}

// TestWithdrawWhileDownHandleStopsServing: after the same schedule,
// neither the runtime nor the healed shard serves the withdrawn query:
// its handle and its parts' names no longer subscribe.
func TestWithdrawWhileDownHandleStopsServing(t *testing.T) {
	for _, f := range withdrawFlavours {
		for _, partitioned := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/partitioned=%v", f.name, partitioned), func(t *testing.T) {
				rt := f.open(t, "wd", nil)
				defer rt.Close()
				dep := withdrawWhileDown(t, rt, partitioned)
				if sub, err := rt.Subscribe(dep.Handle); err == nil {
					sub.Close()
					t.Errorf("withdrawn handle %s still subscribes", dep.Handle)
				}
				for k, p := range dep.Parts {
					if _, err := partOutput(t, rt.Backend(dep.Shards()[k]), p.ID); err == nil {
						t.Errorf("shard %d still serves withdrawn part %s", dep.Shards()[k], p.ID)
					}
				}
			})
		}
	}
}

// gatedBackend holds its first PutPart, after the put has landed,
// until release is closed.
type gatedBackend struct {
	*runtime.LocalBackend
	once         sync.Once
	put, release chan struct{}
}

func (b *gatedBackend) PutPart(name string, req runtime.DeployRequest, st *dsms.QueryState) (runtime.BackendDeployment, error) {
	d, err := b.LocalBackend.PutPart(name, req, st)
	b.once.Do(func() {
		close(b.put)
		<-b.release
	})
	return d, err
}

// TestDeployRacingReadoptKeepsItsParts: a shard re-adopted while a
// deploy's part on it is put but not yet committed to the runtime's
// tables must not take that part for an orphan.
func TestDeployRacingReadoptKeepsItsParts(t *testing.T) {
	gated := &gatedBackend{LocalBackend: runtime.NewLocalBackend(dsms.NewEngine("g1")),
		put: make(chan struct{}), release: make(chan struct{})}
	rt := runtime.NewWithBackends("race", runtime.Options{},
		[]runtime.ShardBackend{runtime.NewLocalBackend(dsms.NewEngine("g0")), gated})
	defer rt.Close()
	input := streamNamesPerShard(t, rt)[1]
	if err := rt.CreateStream(input, mergeSchema()); err != nil {
		t.Fatal(err)
	}
	deployed := make(chan error, 1)
	go func() {
		_, err := rt.Deploy(dsms.NewQueryGraph(input, dsms.NewFilterBox(expr.MustParse("i >= 0"))))
		deployed <- err
	}()
	<-gated.put
	rt.FailShard(1, errors.New("injected partition"))
	if err := rt.ReadoptShard(1); err != nil {
		t.Fatal(err)
	}
	close(gated.release)
	if err := <-deployed; err != nil {
		t.Fatal(err)
	}
	if names := listParts(t, gated); len(names) != 1 {
		t.Fatalf("shard 1 runs %v, want the deployed query's part", names)
	}
}

// TestRuntimesSharingADsmsdKeepTheirParts: two differently-named
// runtimes fronting one dsmsd both deploy their first query, rq00001,
// over the same stream. Part names carry the runtime's name, so neither
// put replaces the other's part, and one runtime's orphan sweep (a
// withdraw while the shard was down, then the heal) deletes only its
// own.
func TestRuntimesSharingADsmsdKeepTheirParts(t *testing.T) {
	srv, addr := startDSMSD(t, "shared", nil)
	defer srv.Engine.Close()
	defer srv.Close()
	script := "CREATE INPUT STREAM s (a double, t timestamp); CREATE OUTPUT STREAM o; SELECT * FROM s WHERE a > 1 INTO o;"
	var rts []*runtime.Runtime
	for _, name := range []string{"a", "a2"} {
		rt := runtime.New(name, runtime.Options{Backends: []runtime.BackendSpec{{Addr: addr, Remote: fastRemote()}}})
		defer rt.Close()
		if err := rt.CreateStream("s", testSchema()); err != nil {
			t.Fatal(err)
		}
		if id, _, err := rt.DeployScript(script); err != nil || id != "rq00001" {
			t.Fatalf("runtime %s deploy = %q, %v; want rq00001", name, id, err)
		}
		rts = append(rts, rt)
	}
	if names := srv.Engine.Queries(); len(names) != 2 {
		t.Fatalf("dsmsd runs %v, want one part per runtime", names)
	}
	a := rts[0]
	a.FailShard(0, errors.New("injected partition"))
	if err := a.Withdraw("rq00001"); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadoptShard(0); err != nil {
		t.Fatal(err)
	}
	if names := srv.Engine.Queries(); len(names) != 1 || names[0] != "a2/rq00001/p0" {
		t.Fatalf("dsmsd runs %v after runtime a's heal, want only a2/rq00001/p0", names)
	}
	if _, err := rts[1].Subscribe("rq00001"); err != nil {
		t.Fatalf("runtime a2's query stopped serving: %v", err)
	}
}

// TestRestorePinsRecordedHandle: a deploy's handle is
// dsms://<runtime name>/streams/<id>, and a restored query answers to
// the handle its catalog recorded, in whatever form the runtime that
// wrote it issued (a single-shard query once carried its engine's).
func TestRestorePinsRecordedHandle(t *testing.T) {
	rt := runtime.New("cloud", runtime.Options{})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	const script = "CREATE INPUT STREAM s (a double, t timestamp); CREATE OUTPUT STREAM o; SELECT * FROM s WHERE a > 1 INTO o;"
	const recorded = "dsms://cloud/streams/q00001"
	dep, err := rt.RestoreQuery("rq00001", recorded, script, nil)
	if err != nil || dep.Handle != recorded {
		t.Fatalf("restore = %+v, %v; want the recorded handle %s", dep, err, recorded)
	}
	sub, err := rt.Subscribe(recorded)
	if err != nil {
		t.Fatalf("subscribe by the recorded handle: %v", err)
	}
	sub.Close()
	if _, err := rt.RestoreQuery("rq00007", recorded, script, nil); err == nil {
		t.Error("a restore took a handle another query holds")
	}
	id, handle, err := rt.DeployScript(script)
	if err != nil || id != "rq00002" || handle != "dsms://cloud/streams/rq00002" {
		t.Fatalf("deploy after restore = %q, %q, %v; want rq00002 under dsms://cloud/streams/rq00002", id, handle, err)
	}
	if err := rt.Withdraw(recorded); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Subscribe(recorded); err == nil {
		t.Error("withdrawn restored handle still subscribes")
	}
	if n := rt.QueryCount(); n != 1 {
		t.Errorf("runtime runs %d parts, want the deployed query's one", n)
	}
}

// TestFilterOverReplicatedPartitionedStream deploys a filter over a
// replicated partitioned stream — one primary part per partition on
// its sub-stream "s@p", a warm standby on the partition's follower —
// then kills partition 0's primary at a Flush boundary. The standby is
// already feeding the subscription, so every accepted tuple that
// passes the filter must arrive exactly once across the cut; the
// per-partition watermark must not let one partition's positions
// swallow the other's.
func TestFilterOverReplicatedPartitionedStream(t *testing.T) {
	rt := runtime.New("filter-repl", runtime.Options{Shards: 2, Replication: 2})
	defer rt.Close()
	if err := rt.CreatePartitionedStream("s", mergeSchema(), "key"); err != nil {
		t.Fatal(err)
	}
	dep, err := rt.Deploy(dsms.NewQueryGraph("s", dsms.NewFilterBox(expr.MustParse("d < 100 OR d >= 110"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Parts) != 2 || dep.Shards()[0] != 0 || dep.Shards()[1] != 1 {
		t.Fatalf("deployment on shards %v with %d parts, want one per partition on [0 1]", dep.Shards(), len(dep.Parts))
	}
	for i := 0; i < rt.NumShards(); i++ {
		if qc := len(listParts(t, rt.Backend(i))); qc != 2 {
			t.Errorf("shard %d runs %d parts, want a primary and a standby", i, qc)
		}
	}
	sub, err := rt.Subscribe(dep.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	want := map[int64]bool{}
	publish := func(from, n int) {
		for off := from; off < from+n; off += 25 {
			if v, err := rt.PublishBatchVerdict("s", keyedTuples(off, 25)); err != nil || v.Accepted != 25 {
				t.Fatalf("publish [%d,%d) = %+v, %v", off, off+25, v, err)
			}
		}
		for i := from; i < from+n; i++ {
			if i < 100 || i >= 110 {
				want[int64(i)] = true
			}
		}
	}
	publish(0, 300)
	rt.Flush() // checkpoint: both partitions' followers hold the full flow
	rt.FailShard(0, errors.New("injected primary death"))
	publish(300, 200)
	rt.Flush()

	if d, _ := rt.Query(dep.ID); d.Shards()[0] != 1 || d.Shards()[1] != 1 {
		t.Errorf("after failover the partitions are served by %v, want [1 1]", d.Shards())
	}
	deliveredOnce(t, sub, want)
	checkInvariant(t, rt)
}
