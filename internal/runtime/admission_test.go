package runtime

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/stream"
)

func TestClassRoundTrip(t *testing.T) {
	for _, c := range []Class{BestEffort, Normal, Critical} {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if got, err := ParseClass(""); err != nil || got != Normal {
		t.Errorf("empty class = %v, %v, want Normal", got, err)
	}
	if _, err := ParseClass("vip"); err == nil {
		t.Error("bogus class must fail")
	}
}

// TestRegistrationRejectsBadConfig guards the library API: classes
// outside the defined range and negative rates must fail at
// registration instead of panicking the publish path later.
func TestRegistrationRejectsBadConfig(t *testing.T) {
	rt := New("badcfg", Options{Shards: 2})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema(), WithClass(Class(3))); err == nil {
		t.Fatal("out-of-range class must fail")
	}
	if err := rt.CreateStream("s", testSchema(), WithClass(Class(-1))); err == nil {
		t.Fatal("negative class must fail")
	}
	if err := rt.CreateStream("s", testSchema(), WithQuota(-5, 0)); err == nil {
		t.Fatal("negative rate must fail")
	}
	if err := rt.CreateStream("s", testSchema(), WithQuota(math.NaN(), 0)); err == nil {
		t.Fatal("NaN rate must fail")
	}
	if err := rt.CreateStream("s", testSchema(), WithQuota(math.Inf(1), 0)); err == nil {
		t.Fatal("infinite rate must fail")
	}
	if err := rt.CreateStream("s", testSchema(), WithQuota(1e18, 0)); err == nil {
		t.Fatal("overflowing rate must fail")
	}
	if err := rt.CreatePartitionedStream("gps", gpsSchema(), "deviceid", WithClass(Class(9))); err == nil {
		t.Fatal("out-of-range class must fail for partitioned streams")
	}
	// The failed registrations left nothing behind.
	if err := rt.CreateStream("s", testSchema(), WithClass(Critical), WithQuota(100, 10)); err != nil {
		t.Fatal(err)
	}
	row := streamRow(t, rt.Stats(), "s")
	if row.Class != "critical" || row.Rate != 100 || row.Burst != 10 {
		t.Fatalf("stream row = %+v", row)
	}
	// Burst defaulting (one second of rate) is normalized at
	// registration, so stats report what the bucket enforces.
	if err := rt.CreateStream("defburst", testSchema(), WithQuota(250.5, 0)); err != nil {
		t.Fatal(err)
	}
	if row := streamRow(t, rt.Stats(), "defburst"); row.Burst != 251 {
		t.Fatalf("defaulted burst = %d, want ceil(rate) = 251", row.Burst)
	}
}

func TestParseStreamSpecs(t *testing.T) {
	specs, err := ParseStreamSpecs("Weather=besteffort:5000:256, gps=critical")
	if err != nil {
		t.Fatal(err)
	}
	if got := specs["weather"]; got.Class != BestEffort || got.Rate != 5000 || got.Burst != 256 {
		t.Fatalf("weather spec = %+v", got)
	}
	if got := specs["gps"]; got.Class != Critical || got.Rate != 0 {
		t.Fatalf("gps spec = %+v", got)
	}
	if specs, err := ParseStreamSpecs(""); err != nil || len(specs) != 0 {
		t.Fatalf("empty spec = %v, %v", specs, err)
	}
	for _, bad := range []string{"weather", "weather=vip", "w=normal:x", "w=normal:5:y", "w=normal:1:2:3",
		"w=normal:nan", "w=normal:+inf", "w=normal:1e13"} {
		if _, err := ParseStreamSpecs(bad); err == nil {
			t.Errorf("spec %q must fail", bad)
		}
	}
}

// streamRow finds a stream's row in a stats snapshot.
func streamRow(t *testing.T, st metrics.RuntimeStats, name string) metrics.StreamStat {
	t.Helper()
	for _, row := range st.Streams {
		if row.Stream == name {
			return row
		}
	}
	t.Fatalf("no stats row for stream %q", name)
	return metrics.StreamStat{}
}

// checkStreamInvariant asserts the post-flush per-stream accounting.
func checkStreamInvariant(t *testing.T, row metrics.StreamStat) {
	t.Helper()
	if row.Offered != row.Ingested+row.Dropped+row.Errors {
		t.Fatalf("stream %s: offered %d != ingested %d + dropped %d + errors %d",
			row.Stream, row.Offered, row.Ingested, row.Dropped, row.Errors)
	}
	if row.Shed > row.Dropped {
		t.Fatalf("stream %s: shed %d > dropped %d", row.Stream, row.Shed, row.Dropped)
	}
}

// TestClassAwareDropNewest fills a paused shard with BestEffort tuples,
// then publishes Critical tuples: each must evict a queued BestEffort
// victim instead of being dropped.
func TestClassAwareDropNewest(t *testing.T) {
	rt := New("cls", Options{Shards: 1, QueueSize: 128, Policy: DropNewest})
	defer rt.Close()
	if err := rt.CreateStream("be", testSchema(), WithClass(BestEffort)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateStream("crit", testSchema(), WithClass(Critical)); err != nil {
		t.Fatal(err)
	}
	passthrough(t, rt, "be")
	passthrough(t, rt, "crit")
	rt.PauseDrain()

	flood := make([]stream.Tuple, 1000)
	for i := range flood {
		flood[i] = mkTuple(float64(i), 1)
	}
	if n, err := rt.PublishBatch("be", flood); err != nil || n != 128 {
		t.Fatalf("flood: n=%d err=%v, want 128 accepted", n, err)
	}
	urgent := make([]stream.Tuple, 100)
	for i := range urgent {
		urgent[i] = mkTuple(float64(i), 2)
	}
	done := make(chan struct{})
	var n int
	var err error
	go func() {
		n, err = rt.PublishBatch("crit", urgent)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Critical publish blocked on a paused full shard")
	}
	if err != nil || n != 100 {
		t.Fatalf("critical: n=%d err=%v, want 100 accepted", n, err)
	}

	rt.ResumeDrain()
	rt.Flush()
	st := rt.Stats()
	crit := streamRow(t, st, "crit")
	be := streamRow(t, st, "be")
	if crit.Ingested != 100 || crit.Dropped != 0 {
		t.Fatalf("critical row = %+v, want 100 ingested, 0 dropped", crit)
	}
	if be.Ingested != 28 || be.Dropped != 972 {
		t.Fatalf("besteffort row = %+v, want 28 ingested, 972 dropped", be)
	}
	checkStreamInvariant(t, crit)
	checkStreamInvariant(t, be)
	if len(st.Classes) != 2 {
		t.Fatalf("classes = %+v, want 2 rows", st.Classes)
	}
	for _, c := range st.Classes {
		if c.Offered != c.Ingested+c.Dropped+c.Errors {
			t.Fatalf("class %s accounting violated: %+v", c.Class, c)
		}
	}
}

// TestClassAwareDropOldest checks that a low-class tuple never evicts a
// queued higher-class one: with the queue full of Critical, incoming
// BestEffort is dropped even under DropOldest.
func TestClassAwareDropOldest(t *testing.T) {
	rt := New("old", Options{Shards: 1, QueueSize: 8, Policy: DropOldest})
	defer rt.Close()
	if err := rt.CreateStream("be", testSchema(), WithClass(BestEffort)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateStream("crit", testSchema(), WithClass(Critical)); err != nil {
		t.Fatal(err)
	}
	passthrough(t, rt, "be")
	passthrough(t, rt, "crit")
	rt.PauseDrain()

	for i := 0; i < 8; i++ {
		if err := rt.Publish("crit", mkTuple(float64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := rt.Publish("be", mkTuple(float64(i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	rt.ResumeDrain()
	rt.Flush()
	st := rt.Stats()
	crit := streamRow(t, st, "crit")
	be := streamRow(t, st, "be")
	if crit.Ingested != 8 || crit.Dropped != 0 {
		t.Fatalf("critical row = %+v, want all 8 ingested", crit)
	}
	if be.Ingested != 0 || be.Dropped != 5 {
		t.Fatalf("besteffort row = %+v, want all 5 dropped", be)
	}
	checkStreamInvariant(t, crit)
	checkStreamInvariant(t, be)
}

// TestBlockClassSheds checks that with BlockClass set, Block applies
// backpressure only at or above the threshold: BestEffort publishers
// are shed instead of waiting on a full queue.
func TestBlockClassSheds(t *testing.T) {
	rt := New("blockcls", Options{Shards: 1, QueueSize: 8, Policy: Block, BlockClass: Normal})
	defer rt.Close()
	if err := rt.CreateStream("be", testSchema(), WithClass(BestEffort)); err != nil {
		t.Fatal(err)
	}
	passthrough(t, rt, "be")
	rt.PauseDrain()

	tuples := make([]stream.Tuple, 20)
	for i := range tuples {
		tuples[i] = mkTuple(float64(i), 1)
	}
	done := make(chan struct{})
	var n int
	var err error
	go func() {
		n, err = rt.PublishBatch("be", tuples)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("BestEffort publish blocked despite BlockClass=Normal")
	}
	if err != nil || n != 8 {
		t.Fatalf("accepted = %d, err = %v, want 8", n, err)
	}
	rt.ResumeDrain()
	rt.Flush()
	be := streamRow(t, rt.Stats(), "be")
	if be.Ingested != 8 || be.Dropped != 12 {
		t.Fatalf("besteffort row = %+v", be)
	}
	checkStreamInvariant(t, be)
}

// TestQuotaSplitBatch drives a batch across a quota boundary: the
// token bucket admits only a prefix, the rest is shed before reaching
// any shard, and the accounting stays consistent.
func TestQuotaSplitBatch(t *testing.T) {
	rt := New("quota", Options{Shards: 1})
	defer rt.Close()
	// A near-zero refill rate makes the bucket a fixed budget of 5.
	if err := rt.CreateStream("s", testSchema(), WithQuota(1e-9, 5)); err != nil {
		t.Fatal(err)
	}
	dep := passthrough(t, rt, "s")
	sub, err := rt.Subscribe(dep.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	batch := make([]stream.Tuple, 8)
	for i := range batch {
		batch[i] = mkTuple(float64(i), 1)
	}
	v, err := rt.PublishBatchVerdict("s", batch)
	if err != nil {
		t.Fatal(err)
	}
	if v.Offered != 8 || v.Accepted != 5 || v.Shed != 3 {
		t.Fatalf("verdict = %+v, want offered 8, accepted 5, shed 3", v)
	}
	// A follow-up batch is fully shed: the budget is exhausted.
	v, err = rt.PublishBatchVerdict("s", batch[:2])
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted != 0 || v.Shed != 2 {
		t.Fatalf("exhausted verdict = %+v, want 0 accepted, 2 shed", v)
	}
	rt.Flush()

	row := streamRow(t, rt.Stats(), "s")
	if row.Offered != 10 || row.Shed != 5 || row.Dropped != 5 || row.Ingested != 5 {
		t.Fatalf("stream row = %+v", row)
	}
	checkStreamInvariant(t, row)
	// Quota sheds never reach a shard: shard counters see only the
	// admitted prefix.
	if total := rt.Stats().Total(); total.Offered != 5 || total.Ingested != 5 {
		t.Fatalf("shard total = %+v, want only the 5 admitted tuples", total)
	}
	// The admitted tuples are the batch prefix, in order.
	for want := 0; want < 5; want++ {
		select {
		case tu := <-sub.C:
			if got := tu.Values[0].Double(); got != float64(want) {
				t.Fatalf("admitted tuple = %v, want %d", got, want)
			}
		case <-time.After(time.Second):
			t.Fatalf("missing admitted tuple %d", want)
		}
	}
}

// TestQuotaOnPartitionedStream checks the quota is enforced before the
// key split, so a partial grant admits a cross-shard prefix.
func TestQuotaOnPartitionedStream(t *testing.T) {
	rt := New("pquota", Options{Shards: 4})
	defer rt.Close()
	if err := rt.CreatePartitionedStream("gps", gpsSchema(), "deviceid", WithClass(Critical), WithQuota(1e-9, 6)); err != nil {
		t.Fatal(err)
	}
	batch := make([]stream.Tuple, 10)
	for i := range batch {
		batch[i] = stream.NewTuple(stream.StringValue(strings.Repeat("d", i+1)), stream.DoubleValue(float64(i)))
	}
	v, err := rt.PublishBatchVerdict("gps", batch)
	if err != nil {
		t.Fatal(err)
	}
	if v.Offered != 10 || v.Accepted != 6 || v.Shed != 4 {
		t.Fatalf("verdict = %+v", v)
	}
	rt.Flush()
	row := streamRow(t, rt.Stats(), "gps")
	if row.Class != "critical" || row.Offered != 10 || row.Shed != 4 || row.Ingested != 6 {
		t.Fatalf("stream row = %+v", row)
	}
	checkStreamInvariant(t, row)
}
