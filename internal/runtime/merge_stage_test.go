package runtime

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dsms"
	"repro/internal/dsmsd"
	"repro/internal/stream"
	"repro/internal/streamql"
	"repro/internal/telemetry"
)

// TestRemoteStagedRowsSurviveSlowMerge holds the merge stage of a
// relay-mode global aggregate over two dsmsd shards while more than a
// subscription buffer of rows is relayed to it from each, then lets it
// go. The emissions must still be the single-shard answer: a held
// merge backs up into its parts over TCP, and no relayed row is shed.
func TestRemoteStagedRowsSurviveSlowMerge(t *testing.T) {
	const perPart = 3 * dsms.DefaultSubscriptionBuffer
	var specs []BackendSpec
	var outputs []*telemetry.Counter
	for i := range 2 {
		name := fmt.Sprintf("slow-merge-d%d", i)
		eng := dsms.NewEngine(name)
		reg := telemetry.NewRegistry()
		eng.EnableTelemetry(reg, 1<<20)
		outputs = append(outputs, reg.Counter("exacml_engine_output_tuples_total", "", telemetry.L("engine", name)))
		srv := dsmsd.NewServer(eng, nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		t.Cleanup(srv.Close)
		specs = append(specs, BackendSpec{Addr: addr, Remote: RemoteOptions{HealthInterval: -1}})
	}
	rt := New("slow-merge", Options{Backends: specs})
	defer rt.Close()
	if err := rt.CreatePartitionedStream("s", exploreSchema(), "key"); err != nil {
		t.Fatal(err)
	}
	q := timeRelayQuery(2000, 1000)
	script, err := streamql.GenerateString(q, exploreSchema())
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := rt.DeployScript(script)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := rt.lookupDep(id)
	if ds.ms == nil || ds.ms.alg.drv == nil {
		t.Fatal("the time-window aggregate did not deploy as a relay-mode staged query")
	}
	sub, err := rt.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Keys alternate between the two partitions, so each part relays
	// perPart rows.
	keys := make([]string, 2)
	for n := 0; keys[0] == "" || keys[1] == ""; n++ {
		k := fmt.Sprintf("k%d", n)
		keys[hashValue(stream.StringValue(k))%2] = k
	}
	in := make([]stream.Tuple, 2*perPart)
	for n := range in {
		in[n] = stream.NewTuple(stream.StringValue(keys[n%2]), stream.IntValue(int64(n)), stream.DoubleValue(float64(n)))
		in[n].ArrivalMillis = int64(10 * (n + 1))
	}
	ref := make([]stream.Tuple, len(in))
	for n := range in {
		ref[n] = in[n]
		ref[n].Seq = uint64(n + 1)
	}
	want, _, err := dsms.RunGraphOnSlice(q, exploreSchema(), ref)
	if err != nil || len(want) < 10 {
		t.Fatalf("single-shard reference: %d emissions, %v", len(want), err)
	}

	ds.ms.mu.Lock()
	for from := 0; from < len(in); from += 64 {
		if _, err := rt.PublishBatch("s", in[from:from+64]); err != nil {
			ds.ms.mu.Unlock()
			t.Fatal(err)
		}
	}
	// Hold the merge until each dsmsd has relayed more rows than a
	// subscription buffer holds, or, when TCP backpressure stops it
	// short of that, for two seconds.
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if outputs[0].Load() > 2*dsms.DefaultSubscriptionBuffer && outputs[1].Load() > 2*dsms.DefaultSubscriptionBuffer {
			break
		}
	}
	t.Logf("relayed while held: %d and %d records", outputs[0].Load(), outputs[1].Load())
	ds.ms.mu.Unlock()
	rt.Flush()

	got := make([]stream.Tuple, 0, len(want))
	deadline := time.After(20 * time.Second)
	for len(got) < len(want) {
		select {
		case tu := <-sub.C:
			got = append(got, tu)
		case <-deadline:
			t.Fatalf("%d of %d emissions (%d dropped) 20s after the merge was released", len(got), len(want), sub.Dropped())
		}
	}
	select {
	case tu := <-sub.C:
		t.Fatalf("extra emission beyond the %d expected: %v", len(want), tu)
	case <-time.After(100 * time.Millisecond):
	}
	for i := range want {
		if !got[i].Equal(want[i]) || got[i].Seq != want[i].Seq || got[i].ArrivalMillis != want[i].ArrivalMillis {
			t.Fatalf("emission %d: %v (seq %d, arrival %d), single-shard %v (seq %d, arrival %d)",
				i, got[i], got[i].Seq, got[i].ArrivalMillis, want[i], want[i].Seq, want[i].ArrivalMillis)
		}
	}
}
