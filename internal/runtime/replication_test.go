// Replicated-shard tests over in-process backends: mirroring, scripted
// primary kills (netsim.Script keyed on logical publish counts, so a
// chaos run is reproducible tuple-for-tuple under -race), double
// failures, flaky-link catch-up and live query migration. The golden
// assertions compare the replicated topology's emissions bit-for-bit
// against an unkilled single-shard reference run.
package runtime_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dsms"
	"repro/internal/netsim"
	"repro/internal/runtime"
	"repro/internal/stream"
)

// replInput builds a deterministic input: dense monotone arrivals (so
// every time-window step contains tuples and emission sequence numbers
// strictly advance) and pre-stamped ArrivalMillis (so two runs see
// identical window boundaries regardless of wall clock).
func replInput(n int) []stream.Tuple {
	ts := make([]stream.Tuple, n)
	arrival := int64(1000)
	for i := range ts {
		ts[i] = stream.NewTuple(
			stream.DoubleValue(float64((i*37)%200-100)),
			stream.TimestampMillis(arrival),
		)
		ts[i].ArrivalMillis = arrival
		arrival += int64(i%3 + 1)
	}
	return ts
}

// cloneInput deep-copies tuples for one publish run: the runtime owns
// published batches (replication stamping, engine seal), so two runs
// must never share storage.
func cloneInput(in []stream.Tuple) []stream.Tuple {
	out := make([]stream.Tuple, len(in))
	for i, t := range in {
		t.Values = append([]stream.Value(nil), t.Values...)
		out[i] = t
	}
	return out
}

// publishChunks publishes the input in fixed-size batches, asserting
// full acceptance, advancing the fault script (when given) by one
// logical tick per batch.
func publishChunks(t *testing.T, rt *runtime.Runtime, name string, in []stream.Tuple, chunk int, script *netsim.Script) {
	t.Helper()
	for off := 0; off < len(in); off += chunk {
		end := off + chunk
		if end > len(in) {
			end = len(in)
		}
		v, err := rt.PublishBatchVerdict(name, in[off:end])
		if err != nil || v.Accepted != end-off {
			t.Fatalf("publish [%d:%d) = %+v, %v", off, end, v, err)
		}
		if script != nil {
			script.Advance(1)
		}
	}
}

// collectEmissions reads a subscription until it has been quiet for
// 200ms (forwarder goroutines deliver asynchronously even after Flush,
// so a non-blocking drain would race them).
func collectEmissions(t *testing.T, sub *runtime.Subscription, atLeast int) []stream.Tuple {
	t.Helper()
	var out []stream.Tuple
	deadline := time.After(10 * time.Second)
	for {
		select {
		case tu, ok := <-sub.C:
			if !ok {
				return out
			}
			out = append(out, tu)
		case <-time.After(200 * time.Millisecond):
			if len(out) >= atLeast {
				return out
			}
		case <-deadline:
			t.Fatalf("collected %d emissions, want at least %d", len(out), atLeast)
		}
	}
}

// sameEmissions requires bit-identical emission streams: same count,
// same order, same Seq/ArrivalMillis provenance, same values.
func sameEmissions(t *testing.T, got, want []stream.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("emitted %d tuples, reference emitted %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].ArrivalMillis != want[i].ArrivalMillis {
			t.Fatalf("emission %d provenance: got (seq=%d,ts=%d) want (seq=%d,ts=%d)",
				i, got[i].Seq, got[i].ArrivalMillis, want[i].Seq, want[i].ArrivalMillis)
		}
		if len(got[i].Values) != len(want[i].Values) {
			t.Fatalf("emission %d has %d values, want %d", i, len(got[i].Values), len(want[i].Values))
		}
		for k := range want[i].Values {
			if got[i].Values[k] != want[i].Values[k] {
				t.Fatalf("emission %d value %d: got %v (%v) want %v (%v)",
					i, k, got[i].Values[k], got[i].Values[k].Type(),
					want[i].Values[k], want[i].Values[k].Type())
			}
		}
	}
}

// replAggGraph is the windowed aggregate whose state must survive
// failover and migration.
func replAggGraph(input string, win dsms.WindowSpec) *dsms.QueryGraph {
	return dsms.NewQueryGraph(input, dsms.NewAggregateBox(win,
		dsms.AggSpec{Attr: "a", Func: dsms.AggSum},
		dsms.AggSpec{Attr: "a", Func: dsms.AggMin},
		dsms.AggSpec{Attr: "a", Func: dsms.AggMax},
		dsms.AggSpec{Attr: "a", Func: dsms.AggCount},
	))
}

// referenceEmissions runs the same query over the same input on a
// plain single-shard runtime: the golden baseline a replicated run
// with failures must match bit-for-bit.
func referenceEmissions(t *testing.T, input []stream.Tuple, win dsms.WindowSpec) []stream.Tuple {
	t.Helper()
	ref := runtime.New("ref", runtime.Options{Shards: 1})
	defer ref.Close()
	if err := ref.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	dep, err := ref.Deploy(replAggGraph("s", win))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := ref.Subscribe(dep.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	publishChunks(t, ref, "s", cloneInput(input), 50, nil)
	ref.Flush()
	return collectEmissions(t, sub, 1)
}

// followerShards extracts the follower shard indices from ReplicaLag.
func followerShards(rt *runtime.Runtime, name string) []int {
	var out []int
	for _, l := range rt.ReplicaLag(name) {
		out = append(out, l.Shard)
	}
	return out
}

// localEngineSeq reads a local shard engine's sealed sequence counter.
func localEngineSeq(t *testing.T, rt *runtime.Runtime, shard int, name string) uint64 {
	t.Helper()
	lb, ok := rt.Backend(shard).(*runtime.LocalBackend)
	if !ok {
		t.Fatalf("shard %d is not a local backend", shard)
	}
	seq, err := lb.Engine().StreamSeq(name)
	if err != nil {
		t.Fatalf("shard %d StreamSeq: %v", shard, err)
	}
	return seq
}

// TestReplicatedStreamMirrorsToFollowers: after a Flush every follower
// engine holds the identical tuple flow (same count, same sequence
// lineage) with zero reported lag and no gaps.
func TestReplicatedStreamMirrorsToFollowers(t *testing.T) {
	rt := runtime.New("mirror", runtime.Options{Shards: 3, Replication: 3})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	const n = 700
	publishChunks(t, rt, "s", cloneInput(replInput(n)), 64, nil)
	rt.Flush()

	primary := rt.ShardForStream("s")
	if got := localEngineSeq(t, rt, primary, "s"); got != n {
		t.Fatalf("primary sealed %d tuples, want %d", got, n)
	}
	followers := followerShards(rt, "s")
	if len(followers) != 2 {
		t.Fatalf("ReplicaLag reports %d followers, want 2", len(followers))
	}
	for _, fi := range followers {
		if got := localEngineSeq(t, rt, fi, "s"); got != n {
			t.Errorf("follower shard %d sealed %d tuples, want %d", fi, got, n)
		}
	}
	for _, l := range rt.ReplicaLag("s") {
		if l.Lag != 0 || l.Gaps != 0 || l.Errors != 0 || l.Paused {
			t.Errorf("follower %d lag after Flush: %+v, want fully caught up", l.Shard, l)
		}
	}
	checkInvariant(t, rt)
}

// TestReplicatedFailoverGolden kills the primary's shard mid-run — at
// a scripted logical publish count, with tuples still queued — and
// requires the promoted follower's emissions to be bit-identical to an
// unkilled single-shard run: the standby part's window state replayed
// the same flow, so the consumer cannot tell the failover happened.
func TestReplicatedFailoverGolden(t *testing.T) {
	wins := []dsms.WindowSpec{
		{Type: dsms.WindowTuple, Size: 64, Step: 8},
		{Type: dsms.WindowTime, Size: 200, Step: 50},
	}
	for _, win := range wins {
		t.Run(fmt.Sprint(win), func(t *testing.T) {
			input := replInput(600)
			want := referenceEmissions(t, input, win)

			rt := runtime.New("chaos", runtime.Options{Shards: 3, Replication: 2})
			defer rt.Close()
			if err := rt.CreateStream("s", testSchema()); err != nil {
				t.Fatal(err)
			}
			dep, err := rt.Deploy(replAggGraph("s", win))
			if err != nil {
				t.Fatal(err)
			}
			sub, err := rt.Subscribe(dep.ID)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()

			primary := rt.ShardForStream("s")
			script := netsim.NewScript(netsim.Event{
				At:   6, // mid-run: tuples from earlier batches still queued
				Name: "kill-primary",
				Do:   func() { rt.FailShard(primary, errors.New("injected shard death")) },
			})
			publishChunks(t, rt, "s", cloneInput(input), 50, script)
			if !script.Done() {
				t.Fatal("fault script never fired")
			}
			rt.Flush()

			got := collectEmissions(t, sub, len(want))
			sameEmissions(t, got, want)
			checkInvariant(t, rt)

			// The promotion must be externally visible: the query now
			// lives on a surviving shard and the stats mark the dead one.
			if d, ok := rt.Query(dep.ID); !ok || len(d.Parts) != 1 {
				t.Fatalf("query lookup after failover = %+v, %v", d, ok)
			}
			if rt.Stats().Shards[primary].Healthy {
				t.Error("killed shard still reports healthy")
			}
		})
	}
}

// TestReplicatedDoubleFailure kills the primary and then the promoted
// follower: the stream must fail over twice (replication 3 leaves one
// survivor), the survivor must hold the full tuple flow, and the
// accounting invariant must hold through both transitions.
func TestReplicatedDoubleFailure(t *testing.T) {
	input := replInput(600)
	win := dsms.WindowSpec{Type: dsms.WindowTuple, Size: 32, Step: 16}
	want := referenceEmissions(t, input, win)

	rt := runtime.New("double", runtime.Options{Shards: 3, Replication: 3})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	dep, err := rt.Deploy(replAggGraph("s", win))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe(dep.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	primary := rt.ShardForStream("s")
	second := -1 // resolved at first failover: wherever the query moved
	script := netsim.NewScript(
		netsim.Event{At: 4, Name: "kill-primary", Do: func() {
			rt.FailShard(primary, errors.New("injected death 1"))
			if d, ok := rt.Query(dep.ID); ok {
				second = d.Shards()[0]
			}
		}},
		netsim.Event{At: 8, Name: "kill-promoted", Do: func() {
			if second >= 0 {
				rt.FailShard(second, errors.New("injected death 2"))
			}
		}},
	)
	publishChunks(t, rt, "s", cloneInput(input), 50, script)
	if !script.Done() {
		t.Fatal("fault script never finished")
	}
	rt.Flush()

	got := collectEmissions(t, sub, len(want))
	sameEmissions(t, got, want)
	checkInvariant(t, rt)

	d, ok := rt.Query(dep.ID)
	if !ok {
		t.Fatal("query vanished after double failure")
	}
	survivor := d.Shards()[0]
	if survivor == primary || survivor == second {
		t.Fatalf("query still on a dead shard %d (killed %d and %d)", survivor, primary, second)
	}
	if got := localEngineSeq(t, rt, survivor, "s"); got != uint64(len(input)) {
		t.Errorf("survivor sealed %d tuples, want %d", got, len(input))
	}
}

// flakyReplica wraps a local backend with an unreliable replication
// link: every third ship attempt fails and successful ones are slowed,
// so the follower genuinely lags and must catch up through the
// shipper's retry loop.
type flakyReplica struct {
	*runtime.LocalBackend
	calls atomic.Int64
}

func (f *flakyReplica) Replicate(name string, log, base uint64, reset bool, ts []stream.Tuple) (uint64, error) {
	if n := f.calls.Add(1); n%3 == 1 {
		return 0, fmt.Errorf("injected link error %d", n)
	}
	time.Sleep(200 * time.Microsecond)
	return f.LocalBackend.Replicate(name, log, base, reset, ts)
}

// TestFollowerCatchUpOverFlakyLink: a follower behind a lossy, slow
// link still converges to the full flow (Flush waits for it), with the
// ship errors surfaced in ReplicaLag.
func TestFollowerCatchUpOverFlakyLink(t *testing.T) {
	backends := []runtime.ShardBackend{
		&flakyReplica{LocalBackend: runtime.NewLocalBackend(dsms.NewEngine("f0"))},
		&flakyReplica{LocalBackend: runtime.NewLocalBackend(dsms.NewEngine("f1"))},
	}
	rt := runtime.NewWithBackends("flaky", runtime.Options{Replication: 2}, backends)
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	const n = 3000
	publishChunks(t, rt, "s", cloneInput(replInput(n)), 100, nil)
	rt.Flush()

	followers := followerShards(rt, "s")
	if len(followers) != 1 {
		t.Fatalf("followers = %v, want exactly one", followers)
	}
	fb := backends[followers[0]].(*flakyReplica)
	applied, err := runtime.ReplicaApplied(rt, fb.LocalBackend, "s")
	if err != nil || applied != n {
		t.Fatalf("follower applied %d tuples (%v), want %d", applied, err, n)
	}
	lag := rt.ReplicaLag("s")[0]
	if lag.Lag != 0 || lag.Gaps != 0 {
		t.Errorf("lag after Flush = %+v, want caught up with no gaps", lag)
	}
	if lag.Errors == 0 {
		t.Error("flaky link produced no recorded ship errors; injection did not engage")
	}
	checkInvariant(t, rt)
}

// TestMigrateQueryLiveGolden migrates a running windowed query to a
// follower replica mid-stream — publishers keep publishing before and
// after — and requires bit-identical emissions versus an unkilled
// single-shard run. A second migration moves it back onto the original
// shard (now the standby), covering the standby-reuse path.
func TestMigrateQueryLiveGolden(t *testing.T) {
	win := dsms.WindowSpec{Type: dsms.WindowTime, Size: 200, Step: 50}
	input := replInput(600)
	want := referenceEmissions(t, input, win)

	rt := runtime.New("migrate", runtime.Options{Shards: 2, Replication: 2})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	dep, err := rt.Deploy(replAggGraph("s", win))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe(dep.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	primary := rt.ShardForStream("s")
	target := followerShards(rt, "s")[0]
	script := netsim.NewScript(
		netsim.Event{At: 4, Name: "migrate-away", Do: func() {
			if err := rt.MigrateQuery(dep.ID, target); err != nil {
				t.Errorf("migrate to %d: %v", target, err)
			}
		}},
		netsim.Event{At: 9, Name: "migrate-back", Do: func() {
			if err := rt.MigrateQuery(dep.ID, primary); err != nil {
				t.Errorf("migrate back to %d: %v", primary, err)
			}
		}},
	)
	publishChunks(t, rt, "s", cloneInput(input), 50, script)
	if !script.Done() {
		t.Fatal("migration script never finished")
	}
	rt.Flush()

	got := collectEmissions(t, sub, len(want))
	sameEmissions(t, got, want)
	checkInvariant(t, rt)

	d, _ := rt.Query(dep.ID)
	if d.Shards()[0] != primary {
		t.Errorf("query on shard %d after round-trip migration, want %d", d.Shards()[0], primary)
	}
}

// TestMigrateQueryRejectsBadTargets pins the guard rails: unknown
// queries, non-replica targets and out-of-range shards are refused.
func TestMigrateQueryRejectsBadTargets(t *testing.T) {
	rt := runtime.New("guard", runtime.Options{Shards: 3, Replication: 2})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	dep, err := rt.Deploy(replAggGraph("s", dsms.WindowSpec{Type: dsms.WindowTuple, Size: 4, Step: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.MigrateQuery("rq99999", 0); err == nil {
		t.Error("migrating an unknown query succeeded")
	}
	if err := rt.MigrateQuery(dep.ID, 99); err == nil {
		t.Error("migrating to an out-of-range shard succeeded")
	}
	primary := rt.ShardForStream("s")
	follower := followerShards(rt, "s")[0]
	for i := 0; i < rt.NumShards(); i++ {
		if i != primary && i != follower {
			if err := rt.MigrateQuery(dep.ID, i); err == nil {
				t.Errorf("migrating to non-replica shard %d succeeded", i)
			}
		}
	}
}
