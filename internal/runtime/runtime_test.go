package runtime

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dsms"
	"repro/internal/expr"
	"repro/internal/stream"
)

func testSchema() *stream.Schema {
	return stream.MustSchema(
		stream.Field{Name: "a", Type: stream.TypeDouble},
		stream.Field{Name: "t", Type: stream.TypeTimestamp},
	)
}

func gpsSchema() *stream.Schema {
	return stream.MustSchema(
		stream.Field{Name: "deviceid", Type: stream.TypeString},
		stream.Field{Name: "speed", Type: stream.TypeDouble},
	)
}

func mkTuple(a float64, ms int64) stream.Tuple {
	return stream.NewTuple(stream.DoubleValue(a), stream.TimestampMillis(ms))
}

// passthrough deploys a keep-everything filter so every ingested tuple
// reaches subscribers.
func passthrough(t *testing.T, rt *Runtime, streamName string) Deployment {
	t.Helper()
	dep, err := rt.Deploy(dsms.NewQueryGraph(streamName, dsms.NewFilterBox(expr.MustParse("a >= 0 OR a < 0"))))
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestPolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{Block, DropNewest, DropOldest} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy must fail")
	}
}

// TestConcurrentPublishBatchFlush exercises the headline path: many
// goroutines batch-publishing into a sharded runtime, with Flush
// providing a deterministic cut.
func TestConcurrentPublishBatchFlush(t *testing.T) {
	rt := New("conc", Options{Shards: 4, QueueSize: 512})
	defer rt.Close()
	const streams = 4
	for i := 0; i < streams; i++ {
		name := fmt.Sprintf("s%d", i)
		if err := rt.CreateStream(name, testSchema()); err != nil {
			t.Fatal(err)
		}
		passthrough(t, rt, name)
	}

	const publishers = 8
	const batches = 40
	const batchSize = 16
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := make([]stream.Tuple, batchSize)
			for b := 0; b < batches; b++ {
				for i := range buf {
					buf[i] = mkTuple(float64(b*batchSize+i), int64(p+1)*1000)
				}
				name := fmt.Sprintf("s%d", (p+b)%streams)
				if n, err := rt.PublishBatch(name, buf); err != nil || n != batchSize {
					t.Errorf("PublishBatch: n=%d err=%v", n, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	rt.Flush()

	const want = publishers * batches * batchSize
	st := rt.Stats()
	total := st.Total()
	if total.Offered != want || total.Accepted != want || total.Ingested != want {
		t.Fatalf("stats = %+v, want offered=accepted=ingested=%d", total, want)
	}
	if total.Dropped != 0 || total.Errors != 0 || total.QueueDepth != 0 {
		t.Fatalf("unexpected drops/errors/depth: %+v", total)
	}
}

// TestDropNewestAccounting saturates a paused shard and checks that the
// policy sheds the excess without blocking and that every tuple is
// accounted for.
func TestDropNewestAccounting(t *testing.T) {
	rt := New("shed", Options{Shards: 1, QueueSize: 8, Policy: DropNewest})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	passthrough(t, rt, "s")
	rt.PauseDrain()

	tuples := make([]stream.Tuple, 20)
	for i := range tuples {
		tuples[i] = mkTuple(float64(i), 1)
	}
	done := make(chan struct{})
	var n int
	var err error
	go func() {
		n, err = rt.PublishBatch("s", tuples)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DropNewest publish blocked on a saturated shard")
	}
	if err != nil || n != 8 {
		t.Fatalf("accepted = %d, err = %v, want 8 accepted", n, err)
	}
	st := rt.Stats().Total()
	if st.Offered != 20 || st.Accepted != 8 || st.Dropped != 12 {
		t.Fatalf("paused stats = %+v", st)
	}

	rt.ResumeDrain()
	rt.Flush()
	st = rt.Stats().Total()
	if st.Ingested != 8 || st.Offered != st.Ingested+st.Dropped+st.Errors {
		t.Fatalf("accounting violated after flush: %+v", st)
	}
}

// TestDropOldestKeepsFreshest checks Aurora-style eviction: the queue
// retains the newest tuples, publishers never block, and the dropped
// tuples are the oldest ones.
func TestDropOldestKeepsFreshest(t *testing.T) {
	rt := New("fresh", Options{Shards: 1, QueueSize: 8, Policy: DropOldest})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	dep := passthrough(t, rt, "s")
	sub, err := rt.Subscribe(dep.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	rt.PauseDrain()

	for i := 0; i < 20; i++ {
		if err := rt.Publish("s", mkTuple(float64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats().Total()
	if st.Offered != 20 || st.Accepted != 20 || st.Dropped != 12 {
		t.Fatalf("paused stats = %+v", st)
	}

	rt.ResumeDrain()
	rt.Flush()
	st = rt.Stats().Total()
	if st.Ingested != 8 || st.Offered != st.Ingested+st.Dropped+st.Errors {
		t.Fatalf("accounting violated after flush: %+v", st)
	}
	// The surviving tuples must be the freshest 8, in order.
	for want := 12; want < 20; want++ {
		select {
		case tu := <-sub.C:
			if got := tu.Values[0].Double(); got != float64(want) {
				t.Fatalf("survivor = %v, want %d", got, want)
			}
		case <-time.After(time.Second):
			t.Fatalf("missing survivor %d", want)
		}
	}
}

// TestBlockBackpressure checks that Block publishers wait for space
// instead of shedding, and complete once the drain resumes.
func TestBlockBackpressure(t *testing.T) {
	rt := New("block", Options{Shards: 1, QueueSize: 8, Policy: Block})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	passthrough(t, rt, "s")
	rt.PauseDrain()

	done := make(chan error, 1)
	go func() {
		tuples := make([]stream.Tuple, 50)
		for i := range tuples {
			tuples[i] = mkTuple(float64(i), 1)
		}
		_, err := rt.PublishBatch("s", tuples)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("Block publisher finished against a paused full shard")
	case <-time.After(50 * time.Millisecond):
	}
	rt.ResumeDrain()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rt.Flush()
	st := rt.Stats().Total()
	if st.Ingested != 50 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 50 ingested, 0 dropped", st)
	}
}

// TestSingleShardEquivalence feeds the same tuples through a one-shard
// runtime and a plain engine and compares query outputs.
func TestSingleShardEquivalence(t *testing.T) {
	graph := func() *dsms.QueryGraph {
		return dsms.NewQueryGraph("s", dsms.NewFilterBox(expr.MustParse("a > 100")))
	}

	eng := dsms.NewEngine("plain")
	defer eng.Close()
	if err := eng.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	edep, err := eng.Deploy(graph())
	if err != nil {
		t.Fatal(err)
	}
	esub, err := eng.Subscribe(edep.Handle)
	if err != nil {
		t.Fatal(err)
	}

	rt := New("plain", Options{Shards: 1})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	rdep, err := rt.Deploy(graph())
	if err != nil {
		t.Fatal(err)
	}
	rsub, err := rt.Subscribe(rdep.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer rsub.Close()

	for i := 0; i < 300; i++ {
		tu := mkTuple(float64(i*7%500), int64(i)*1000)
		if err := eng.Ingest("s", tu); err != nil {
			t.Fatal(err)
		}
		if err := rt.Publish("s", tu); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	rt.Flush()

	var want, got []stream.Tuple
	for len(esub.C) > 0 {
		want = append(want, <-esub.C)
	}
	for len(rsub.C) > 0 {
		got = append(got, <-rsub.C)
	}
	if len(want) == 0 {
		t.Fatal("baseline produced no output")
	}
	if len(got) != len(want) {
		t.Fatalf("runtime delivered %d tuples, engine %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) || got[i].Seq != want[i].Seq {
			t.Fatalf("tuple %d: runtime %v (seq %d) != engine %v (seq %d)",
				i, got[i], got[i].Seq, want[i], want[i].Seq)
		}
	}
}

// TestPartitionedStream spreads one stream across all shards by key,
// runs the query on every shard and checks the merged subscription
// delivers everything with per-key order preserved.
func TestPartitionedStream(t *testing.T) {
	rt := New("part", Options{Shards: 4, QueueSize: 1024})
	defer rt.Close()
	if err := rt.CreatePartitionedStream("gps", gpsSchema(), "deviceid"); err != nil {
		t.Fatal(err)
	}
	dep, err := rt.Deploy(dsms.NewQueryGraph("gps", dsms.NewFilterBox(expr.MustParse("speed >= 0"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Parts) != 4 {
		t.Fatalf("partitioned deploy has %d parts, want 4", len(dep.Parts))
	}
	sub, err := rt.Subscribe(dep.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const devices = 8
	const perDevice = 50
	batch := make([]stream.Tuple, 0, devices)
	for i := 0; i < perDevice; i++ {
		batch = batch[:0]
		for d := 0; d < devices; d++ {
			batch = append(batch, stream.NewTuple(
				stream.StringValue(fmt.Sprintf("dev%d", d)),
				stream.DoubleValue(float64(i)),
			))
		}
		if n, err := rt.PublishBatch("gps", batch); err != nil || n != devices {
			t.Fatalf("PublishBatch: n=%d err=%v", n, err)
		}
	}
	rt.Flush()

	seen := map[string]float64{}
	count := 0
	deadline := time.After(5 * time.Second)
	for count < devices*perDevice {
		select {
		case tu := <-sub.C:
			dev := tu.Values[0].Str()
			speed := tu.Values[1].Double()
			if prev, ok := seen[dev]; ok && speed != prev+1 {
				t.Fatalf("device %s out of order: %v after %v", dev, speed, prev)
			}
			seen[dev] = speed
			count++
		case <-deadline:
			t.Fatalf("merged subscription delivered %d of %d tuples", count, devices*perDevice)
		}
	}
	if dropped := sub.Dropped(); count+int(dropped) != devices*perDevice {
		t.Fatalf("count %d + dropped %d != %d", count, dropped, devices*perDevice)
	}

	// The key hash must actually spread devices across shards.
	busy := 0
	for _, sh := range rt.Stats().Shards {
		if sh.Ingested > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("partitioning used %d shard(s), want ≥2", busy)
	}
}

// TestPartitionedStreamBadKeys checks registration-time validation of
// the partition key: empty and unknown key fields are rejected and
// leave no stream behind on any shard.
func TestPartitionedStreamBadKeys(t *testing.T) {
	rt := New("badkey", Options{Shards: 4})
	defer rt.Close()
	if err := rt.CreatePartitionedStream("gps", gpsSchema(), ""); err == nil {
		t.Fatal("empty partition key must fail")
	}
	if err := rt.CreatePartitionedStream("gps", gpsSchema(), "   "); err == nil {
		t.Fatal("blank partition key must fail")
	}
	if err := rt.CreatePartitionedStream("gps", gpsSchema(), "nope"); err == nil {
		t.Fatal("unknown partition key must fail")
	}
	// A failed registration must not leave the name claimed anywhere:
	// registering correctly afterwards succeeds, and publishing works.
	if err := rt.CreatePartitionedStream("gps", gpsSchema(), "deviceid"); err != nil {
		t.Fatalf("valid registration after failures: %v", err)
	}
	if err := rt.Publish("gps", stream.NewTuple(stream.StringValue("dev1"), stream.DoubleValue(1))); err != nil {
		t.Fatal(err)
	}
	rt.Flush()
	if total := rt.Stats().Total(); total.Ingested != 1 {
		t.Fatalf("total = %+v, want 1 ingested", total)
	}
}

// TestPublishRejectsInvalidTuples checks the synchronous schema gate.
func TestPublishRejectsInvalidTuples(t *testing.T) {
	rt := New("bad", Options{Shards: 2})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := rt.Publish("s", stream.NewTuple(stream.StringValue("nope"))); err == nil {
		t.Fatal("schema-violating tuple must be rejected")
	}
	if err := rt.Publish("missing", mkTuple(1, 1)); err == nil {
		t.Fatal("unknown stream must be rejected")
	}
	st := rt.Stats()
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	if total := st.Total(); total.Offered != 0 {
		t.Fatalf("rejected tuples must not reach shards: %+v", total)
	}
}

// TestDeployScriptWithdraw drives the PEP-facing surface end to end.
func TestDeployScriptWithdraw(t *testing.T) {
	rt := New("pep", Options{Shards: 3})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	id, handle, err := rt.DeployScript(`
CREATE INPUT STREAM s (a double, t timestamp);
CREATE OUTPUT STREAM out;
SELECT * FROM s WHERE a > 10 INTO out;
`)
	if err != nil {
		t.Fatal(err)
	}
	if id == "" || handle == "" {
		t.Fatalf("empty id/handle: %q %q", id, handle)
	}
	if _, ok := rt.Query(id); !ok {
		t.Fatal("deployment not registered under id")
	}
	if _, ok := rt.Query(handle); !ok {
		t.Fatal("deployment not registered under handle")
	}
	if rt.QueryCount() != 1 {
		t.Fatalf("QueryCount = %d", rt.QueryCount())
	}
	if err := rt.Withdraw(id); err != nil {
		t.Fatal(err)
	}
	if rt.QueryCount() != 0 {
		t.Fatalf("QueryCount after withdraw = %d", rt.QueryCount())
	}
	if err := rt.Withdraw(id); err == nil {
		t.Fatal("double withdraw must fail")
	}
}
