// Global re-aggregation goldens: a windowed aggregate over an N-shard
// partitioned stream must produce bit-identical emissions — values,
// Seq/ArrivalMillis provenance, and order — to the same query over a
// single-shard stream fed the same tuple sequence.
package runtime_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dsms"
	"repro/internal/expr"
	"repro/internal/netsim"
	"repro/internal/runtime"
	"repro/internal/stream"
)

func mergeSchema() *stream.Schema {
	return stream.MustSchema(
		stream.Field{Name: "key", Type: stream.TypeString},
		stream.Field{Name: "i", Type: stream.TypeInt},
		stream.Field{Name: "d", Type: stream.TypeDouble},
		stream.Field{Name: "s", Type: stream.TypeString},
	)
}

// mergeAggPool is the spec pool scenarios draw from; every aggregate
// function appears. Doubles in the generated tuples are integer-valued,
// so per-partition float sums re-added in partition order are bit-exact.
var mergeAggPool = []dsms.AggSpec{
	{Attr: "i", Func: dsms.AggCount},
	{Attr: "i", Func: dsms.AggSum},
	{Attr: "d", Func: dsms.AggSum},
	{Attr: "d", Func: dsms.AggAvg},
	{Attr: "i", Func: dsms.AggAvg},
	{Attr: "i", Func: dsms.AggMin},
	{Attr: "d", Func: dsms.AggMax},
	{Attr: "s", Func: dsms.AggMin},
	{Attr: "s", Func: dsms.AggMax},
	{Attr: "s", Func: dsms.AggFirstVal},
	{Attr: "d", Func: dsms.AggLastVal},
}

type mergeScenario struct {
	name    string
	seed    int64
	shards  int
	remote  bool // one shard served by a dsmsd over loopback
	boxes   func(win dsms.WindowSpec, aggs []dsms.AggSpec) []*dsms.Box
	win     dsms.WindowSpec
	inOrder bool // arrival timestamps non-decreasing vs jittered
	tuples  int
}

func aggOnly(win dsms.WindowSpec, aggs []dsms.AggSpec) []*dsms.Box {
	return []*dsms.Box{dsms.NewAggregateBox(win, aggs...)}
}

func filterThenAgg(win dsms.WindowSpec, aggs []dsms.AggSpec) []*dsms.Box {
	return []*dsms.Box{
		dsms.NewFilterBox(expr.MustParse("i != 13")),
		dsms.NewAggregateBox(win, aggs...),
	}
}

func filterMapAgg(win dsms.WindowSpec, aggs []dsms.AggSpec) []*dsms.Box {
	return []*dsms.Box{
		dsms.NewFilterBox(expr.MustParse("i > -95")),
		dsms.NewMapBox("key", "i", "d", "s"),
		dsms.NewAggregateBox(win, aggs...),
	}
}

// genMergeTuples builds a deterministic tuple sequence with explicit
// non-zero arrival timestamps (so both the partitioned publish stamp
// and the single-shard engine seal preserve them verbatim) and
// integer-valued doubles (bit-exact partition-order float sums).
func genMergeTuples(rng *rand.Rand, n int, inOrder bool) []stream.Tuple {
	ts := make([]stream.Tuple, n)
	arrival := int64(1_000_000)
	for i := range ts {
		if inOrder {
			arrival += int64(rng.Intn(5)) * 3
		} else {
			arrival = 1_000_000 + int64(i)*7 + int64(rng.Intn(60)) - 30
		}
		ts[i] = stream.NewTuple(
			stream.StringValue(fmt.Sprintf("k%02d", rng.Intn(12))),
			stream.IntValue(int64(rng.Intn(201)-100)),
			stream.DoubleValue(float64(rng.Intn(2001)-1000)),
			stream.StringValue(fmt.Sprintf("s%03d", rng.Intn(500))),
		)
		ts[i].ArrivalMillis = arrival
	}
	return ts
}

// publishInBatches sends the sequence with rng-drawn batch boundaries.
// Each runtime gets its own copy: the partitioned publish path stamps
// Seq/arrival in place.
func publishInBatches(t *testing.T, rt *runtime.Runtime, name string, ts []stream.Tuple, rng *rand.Rand) {
	t.Helper()
	for off := 0; off < len(ts); {
		n := 1 + rng.Intn(24)
		if off+n > len(ts) {
			n = len(ts) - off
		}
		batch := make([]stream.Tuple, n)
		copy(batch, ts[off:off+n])
		if got, err := rt.PublishBatch(name, batch); err != nil || got != n {
			t.Fatalf("PublishBatch(%s) at %d: n=%d err=%v", name, off, got, err)
		}
		off += n
	}
}

// baselineEmissions runs the query on a 1-shard runtime and returns its
// full emission sequence.
func baselineEmissions(t *testing.T, sc mergeScenario, aggs []dsms.AggSpec, ts []stream.Tuple, rng *rand.Rand) []stream.Tuple {
	t.Helper()
	rt := runtime.New("base-"+sc.name, runtime.Options{Shards: 1, QueueSize: 4096})
	defer rt.Close()
	if err := rt.CreateStream("s", mergeSchema()); err != nil {
		t.Fatal(err)
	}
	dep, err := rt.Deploy(dsms.NewQueryGraph("s", sc.boxes(sc.win, aggs)...))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe(dep.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	publishInBatches(t, rt, "s", ts, rng)
	rt.Flush()
	var out []stream.Tuple
	for len(sub.C) > 0 {
		out = append(out, <-sub.C)
	}
	return out
}

// collectEmissionsN reads exactly want tuples, then verifies the stage
// stays quiet (no over-emission).
func collectEmissionsN(t *testing.T, c <-chan stream.Tuple, want int) []stream.Tuple {
	t.Helper()
	out := make([]stream.Tuple, 0, want)
	deadline := time.After(10 * time.Second)
	for len(out) < want {
		select {
		case tu, ok := <-c:
			if !ok {
				t.Fatalf("output closed after %d of %d emissions", len(out), want)
			}
			out = append(out, tu)
		case <-deadline:
			t.Fatalf("received %d of %d emissions", len(out), want)
		}
	}
	select {
	case tu := <-c:
		t.Fatalf("extra emission beyond the %d expected: %v (seq %d)", want, tu, tu.Seq)
	case <-time.After(100 * time.Millisecond):
	}
	return out
}

func assertSameEmissions(t *testing.T, got, want []stream.Tuple) {
	t.Helper()
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("emission %d: partitioned %v != single-shard %v", i, got[i], want[i])
		}
		if got[i].Seq != want[i].Seq {
			t.Fatalf("emission %d: Seq %d != %d", i, got[i].Seq, want[i].Seq)
		}
		if got[i].ArrivalMillis != want[i].ArrivalMillis {
			t.Fatalf("emission %d: ArrivalMillis %d != %d", i, got[i].ArrivalMillis, want[i].ArrivalMillis)
		}
	}
}

// TestGlobalAggMatchesSingleShard is the partitioned-vs-single-shard
// equivalence golden: for randomized window specs, aggregate sets,
// arrival orders, batch boundaries and shard counts — with and without
// a remote (dsmsd) shard — the merged global aggregate must equal the
// single-shard run bit for bit: same values, same Seq and arrival
// provenance, same order.
func TestGlobalAggMatchesSingleShard(t *testing.T) {
	scenarios := []mergeScenario{
		{name: "tuple_partial_inorder", seed: 101, shards: 2, boxes: aggOnly,
			win:     dsms.WindowSpec{Type: dsms.WindowTuple, Size: 8, Step: 3},
			inOrder: true, tuples: 500},
		{name: "tuple_partial_jitter", seed: 202, shards: 4, boxes: aggOnly,
			win:    dsms.WindowSpec{Type: dsms.WindowTuple, Size: 11, Step: 7},
			tuples: 700},
		{name: "time_relay_inorder", seed: 303, shards: 3, boxes: aggOnly,
			win:     dsms.WindowSpec{Type: dsms.WindowTime, Size: 100, Step: 40},
			inOrder: true, tuples: 600},
		{name: "time_relay_jitter", seed: 404, shards: 4, boxes: aggOnly,
			win:    dsms.WindowSpec{Type: dsms.WindowTime, Size: 60, Step: 25},
			tuples: 600},
		{name: "filter_tuple_relay", seed: 505, shards: 3, boxes: filterThenAgg,
			win:     dsms.WindowSpec{Type: dsms.WindowTuple, Size: 5, Step: 5},
			inOrder: true, tuples: 500},
		{name: "filter_map_time_hopping", seed: 606, shards: 2, boxes: filterMapAgg,
			win:     dsms.WindowSpec{Type: dsms.WindowTime, Size: 50, Step: 130},
			inOrder: true, tuples: 500},
		{name: "remote_tuple_partial", seed: 707, shards: 2, remote: true, boxes: aggOnly,
			win:     dsms.WindowSpec{Type: dsms.WindowTuple, Size: 6, Step: 2},
			inOrder: true, tuples: 400},
		{name: "remote_time_relay", seed: 808, shards: 2, remote: true, boxes: aggOnly,
			win:    dsms.WindowSpec{Type: dsms.WindowTime, Size: 80, Step: 35},
			tuples: 400},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(sc.seed))
			// Randomize shard count a bit further for local scenarios.
			shards := sc.shards
			if !sc.remote {
				shards += rng.Intn(2)
			}
			// Draw a random non-empty spec subset (order preserved, so
			// output column order is deterministic per seed).
			var aggs []dsms.AggSpec
			for _, a := range mergeAggPool {
				if rng.Intn(3) > 0 {
					aggs = append(aggs, a)
				}
			}
			if len(aggs) == 0 {
				aggs = append(aggs, mergeAggPool[0])
			}
			ts := genMergeTuples(rng, sc.tuples, sc.inOrder)
			want := baselineEmissions(t, sc, aggs, ts, rand.New(rand.NewSource(sc.seed+1)))
			if len(want) == 0 {
				t.Fatal("baseline produced no emissions; widen the scenario")
			}

			opts := runtime.Options{Shards: shards, QueueSize: 4096}
			if sc.remote {
				srv, addr := startDSMSD(t, "merge-"+sc.name, nil)
				defer srv.Close()
				defer srv.Engine.Close()
				specs := make([]runtime.BackendSpec, shards)
				specs[1] = runtime.BackendSpec{Addr: addr, Remote: fastRemote()}
				opts = runtime.Options{Backends: specs, QueueSize: 4096}
			}
			rt := runtime.New("part-"+sc.name, opts)
			defer rt.Close()
			if err := rt.CreatePartitionedStream("s", mergeSchema(), "key"); err != nil {
				t.Fatal(err)
			}
			dep, err := rt.Deploy(dsms.NewQueryGraph("s", sc.boxes(sc.win, aggs)...))
			if err != nil {
				t.Fatal(err)
			}
			if len(dep.Parts) != shards {
				t.Fatalf("staged deploy has %d parts, want %d", len(dep.Parts), shards)
			}
			sub, err := rt.Subscribe(dep.Handle)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			publishInBatches(t, rt, "s", ts, rand.New(rand.NewSource(sc.seed+2)))
			rt.Flush()
			got := collectEmissionsN(t, sub.C, len(want))
			assertSameEmissions(t, got, want)
			checkInvariant(t, rt)
		})
	}
}

// TestSubscriptionWatermarkAssumption pins the Subscription dedup
// contract (see the Subscription doc):
//
//  1. Where dedup is applied — replica merging of a single-shard
//     query's parts — a tuple-window aggregate's Seq strictly advances
//     between emissions, so the watermark passes every emission through.
//  2. A time-window aggregate can stamp consecutive emissions with the
//     same Seq (two windows sharing their last tuple). The partitioned
//     merge path bypasses dedup, so none of them is swallowed.
//  3. On a replicated stream the same repeats reach the watermark,
//     which keys on Seq and the ordinal among equal-Seq emissions, so
//     every window arrives once — also when the primary dies
//     mid-stream and the standby's copies take over.
func TestSubscriptionWatermarkAssumption(t *testing.T) {
	// Three tuples at arrival 5, 50, 500 under a 100ms window hopping by
	// 10ms: every window containing t=50 has it as its last tuple, so
	// consecutive emissions carry the same provenance Seq.
	win := dsms.WindowSpec{Type: dsms.WindowTime, Size: 100, Step: 10}
	mk := func(arr int64) stream.Tuple {
		tu := stream.NewTuple(
			stream.StringValue(fmt.Sprintf("k%d", arr%3)),
			stream.IntValue(arr),
			stream.DoubleValue(float64(arr)),
			stream.StringValue("x"))
		tu.ArrivalMillis = arr
		return tu
	}
	arrivals := []int64{5, 50, 500}
	timeGraph := func() *dsms.QueryGraph {
		return dsms.NewQueryGraph("s", dsms.NewAggregateBox(win,
			dsms.AggSpec{Attr: "i", Func: dsms.AggCount},
			dsms.AggSpec{Attr: "d", Func: dsms.AggLastVal}))
	}
	t.Run("replica_dedup_strict_advance", func(t *testing.T) {
		rt := runtime.New("wm-repl", runtime.Options{Shards: 2, Replication: 2})
		defer rt.Close()
		if err := rt.CreateStream("s", mergeSchema()); err != nil {
			t.Fatal(err)
		}
		graph := dsms.NewQueryGraph("s", dsms.NewAggregateBox(
			dsms.WindowSpec{Type: dsms.WindowTuple, Size: 4, Step: 2},
			dsms.AggSpec{Attr: "i", Func: dsms.AggSum}))
		dep, err := rt.Deploy(graph)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := rt.Subscribe(dep.Handle)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		ts := genMergeTuples(rand.New(rand.NewSource(42)), 20, true)
		if _, err := rt.PublishBatch("s", ts); err != nil {
			t.Fatal(err)
		}
		rt.Flush()
		// 20 tuples, Size 4, Step 2: windows end at 4, 6, ..., 20.
		got := collectEmissionsN(t, sub.C, 9)
		for i := 1; i < len(got); i++ {
			if got[i].Seq <= got[i-1].Seq {
				t.Fatalf("emission %d: Seq %d does not strictly advance past %d — the replica dedup watermark would drop it",
					i, got[i].Seq, got[i-1].Seq)
			}
		}
	})

	t.Run("time_window_repeated_seq_bypasses_dedup", func(t *testing.T) {
		wantN := 0
		runOne := func(name string, partitioned bool) []stream.Tuple {
			opts := runtime.Options{Shards: 1}
			if partitioned {
				opts = runtime.Options{Shards: 2}
			}
			rt := runtime.New(name, opts)
			defer rt.Close()
			var err error
			if partitioned {
				err = rt.CreatePartitionedStream("s", mergeSchema(), "key")
			} else {
				err = rt.CreateStream("s", mergeSchema())
			}
			if err != nil {
				t.Fatal(err)
			}
			dep, err := rt.Deploy(timeGraph())
			if err != nil {
				t.Fatal(err)
			}
			sub, err := rt.Subscribe(dep.Handle)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			for _, a := range arrivals {
				if _, err := rt.PublishBatch("s", []stream.Tuple{mk(a)}); err != nil {
					t.Fatal(err)
				}
			}
			rt.Flush()
			if !partitioned {
				var out []stream.Tuple
				for len(sub.C) > 0 {
					out = append(out, <-sub.C)
				}
				return out
			}
			return collectEmissionsN(t, sub.C, wantN)
		}

		want := runOne("wm-base", false)
		if len(want) < 3 {
			t.Fatalf("baseline emitted only %d windows; scenario too narrow", len(want))
		}
		repeats := 0
		for i := 1; i < len(want); i++ {
			if want[i].Seq == want[i-1].Seq {
				repeats++
			}
		}
		if repeats == 0 {
			t.Fatal("scenario failed to produce repeated provenance Seqs; the counterexample is gone")
		}
		wantN = len(want)
		got := runOne("wm-part", true)
		assertSameEmissions(t, got, want)
	})

	t.Run("replicated_time_window_repeated_seq", func(t *testing.T) {
		run := func(name string, opts runtime.Options, kill bool) []stream.Tuple {
			rt := runtime.New(name, opts)
			defer rt.Close()
			if err := rt.CreateStream("s", mergeSchema()); err != nil {
				t.Fatal(err)
			}
			dep, err := rt.Deploy(timeGraph())
			if err != nil {
				t.Fatal(err)
			}
			sub, err := rt.Subscribe(dep.Handle)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			for i, a := range arrivals {
				if kill && i == len(arrivals)-1 {
					// The last arrival closes every window; the standby
					// alone emits them.
					rt.FailShard(dep.Shards()[0], errors.New("injected primary death"))
				}
				if _, err := rt.PublishBatch("s", []stream.Tuple{mk(a)}); err != nil {
					t.Fatal(err)
				}
			}
			rt.Flush()
			var out []stream.Tuple
			for quiet := false; !quiet; {
				select {
				case tu := <-sub.C:
					out = append(out, tu)
				case <-time.After(200 * time.Millisecond):
					quiet = true
				}
			}
			return out
		}
		want := run("wm-repl-base", runtime.Options{Shards: 1}, false)
		for _, kill := range []bool{false, true} {
			got := run(fmt.Sprintf("wm-repl-kill-%v", kill), runtime.Options{Shards: 2, Replication: 2}, kill)
			if len(got) != len(want) {
				t.Fatalf("primary killed %v: %d emissions, single-shard run emits %d", kill, len(got), len(want))
			}
			assertSameEmissions(t, got, want)
		}
	})
}

// TestGlobalAggFailoverChaos kills a partition's primary shard
// mid-window during a global aggregate over a replicated partitioned
// stream. The fault script is keyed on logical publish ticks, so the
// run is reproducible. After failover the merged global emissions must
// be bit-identical to an unkilled single-shard run of the same query
// over the same input, and the runtime's accounting invariant
// (offered == ingested + dropped + errors) must hold.
func TestGlobalAggFailoverChaos(t *testing.T) {
	cases := []struct {
		name  string
		boxes func(win dsms.WindowSpec, aggs []dsms.AggSpec) []*dsms.Box
		win   dsms.WindowSpec
	}{
		// Terminal tuple-window aggregate: partial-aggregate plan.
		{"partial", aggOnly, dsms.WindowSpec{Type: dsms.WindowTuple, Size: 16, Step: 5}},
		// Filtered time-window aggregate: relay plan.
		{"relay", filterThenAgg, dsms.WindowSpec{Type: dsms.WindowTime, Size: 90, Step: 30}},
	}
	aggs := []dsms.AggSpec{
		{Attr: "i", Func: dsms.AggCount},
		{Attr: "d", Func: dsms.AggSum},
		{Attr: "i", Func: dsms.AggMin},
		{Attr: "s", Func: dsms.AggMax},
		{Attr: "d", Func: dsms.AggLastVal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1234))
			ts := genMergeTuples(rng, 600, true)
			sc := mergeScenario{name: "chaos-" + tc.name, boxes: tc.boxes, win: tc.win}
			want := baselineEmissions(t, sc, aggs, ts, rand.New(rand.NewSource(5)))
			if len(want) == 0 {
				t.Fatal("baseline produced no emissions")
			}

			rt := runtime.New("chaos-"+tc.name, runtime.Options{Shards: 3, Replication: 2})
			defer rt.Close()
			if err := rt.CreatePartitionedStream("s", mergeSchema(), "key"); err != nil {
				t.Fatal(err)
			}
			dep, err := rt.Deploy(dsms.NewQueryGraph("s", tc.boxes(tc.win, aggs)...))
			if err != nil {
				t.Fatal(err)
			}
			sub, err := rt.Subscribe(dep.Handle)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()

			// Kill partition 1's primary after six 50-tuple chunks:
			// tuples are mid-flight and every window straddling the cut
			// is open on the dead shard.
			const victim = 1
			script := netsim.NewScript(netsim.Event{
				At:   6,
				Name: "kill-primary",
				Do:   func() { rt.FailShard(victim, errors.New("injected shard death")) },
			})
			for off := 0; off < len(ts); off += 50 {
				end := off + 50
				if end > len(ts) {
					end = len(ts)
				}
				batch := make([]stream.Tuple, end-off)
				copy(batch, ts[off:end])
				if n, err := rt.PublishBatch("s", batch); err != nil || n != end-off {
					t.Fatalf("publish [%d:%d) = %d, %v", off, end, n, err)
				}
				script.Advance(1)
			}
			if !script.Done() {
				t.Fatal("fault script never fired")
			}
			rt.Flush()

			got := collectEmissionsN(t, sub.C, len(want))
			assertSameEmissions(t, got, want)
			checkInvariant(t, rt)

			if rt.Stats().Shards[victim].Healthy {
				t.Error("killed shard still reports healthy")
			}
		})
	}
}
