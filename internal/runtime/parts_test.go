// Part-table tests: every deployment shape — plain, partitioned,
// replicated, staged — keeps its parts in one table, so teardown,
// re-adoption and promotion must behave the same for all of them:
// staged subscriptions end when their stream or runtime goes away,
// re-adopting a shard whose engine never restarted neither duplicates
// output nor leaks parts, and a filter over a replicated partitioned
// stream deploys and fails over like any other query.
package runtime_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dsms"
	"repro/internal/expr"
	"repro/internal/runtime"
	"repro/internal/stream"
)

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
			if qc := rt.Backend(i).QueryCount(); qc != 1 {
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
			if qc := rt.Backend(i).QueryCount(); qc != len(ids) {
				t.Errorf("shard %d runs %d parts for %d deployments, want one each", i, qc, len(ids))
			}
		}
		for _, id := range ids {
			if err := rt.Withdraw(id); err != nil {
				t.Errorf("withdraw %s: %v", id, err)
			}
		}
		for i := 0; i < rt.NumShards(); i++ {
			if qc := rt.Backend(i).QueryCount(); qc != 0 {
				t.Errorf("shard %d still runs %d parts after every query was withdrawn", i, qc)
			}
		}
	})
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
		if qc := rt.Backend(i).QueryCount(); qc != 2 {
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
