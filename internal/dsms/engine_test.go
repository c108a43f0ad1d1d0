package dsms

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/stream"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine("test")
	t.Cleanup(e.Close)
	if err := e.CreateStream("weather", weatherSchema()); err != nil {
		t.Fatalf("CreateStream: %v", err)
	}
	return e
}

func weatherTuple(i int, rain float64) stream.Tuple {
	return stream.NewTuple(
		stream.TimestampMillis(int64(i)*30000),
		stream.DoubleValue(25), stream.DoubleValue(80),
		stream.DoubleValue(rain), stream.DoubleValue(rain*2),
		stream.IntValue(0), stream.DoubleValue(1000),
	)
}

func TestEngineCreateStream(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateStream("weather", weatherSchema()); err == nil {
		t.Error("duplicate stream must fail")
	}
	if err := e.CreateStream("", nil); err == nil {
		t.Error("empty stream must fail")
	}
	ss, err := e.StreamSchema("Weather")
	if err != nil || ss.Len() != 7 {
		t.Errorf("StreamSchema: (%v,%v)", ss, err)
	}
	if _, err := e.StreamSchema("nosuch"); err == nil {
		t.Error("unknown stream must fail")
	}
	if got := e.Streams(); len(got) != 1 || got[0] != "weather" {
		t.Errorf("Streams = %v", got)
	}
}

func TestEngineDeployAndHandle(t *testing.T) {
	e := newTestEngine(t)
	g := NewQueryGraph("weather", NewFilterBox(expr.MustParse("rainrate > 5")))
	dep, err := e.Deploy(g)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if !strings.HasPrefix(dep.Handle, "dsms://test/streams/") {
		t.Errorf("handle = %q", dep.Handle)
	}
	if dep.OutputSchema.Len() != 7 {
		t.Errorf("output schema = %v", dep.OutputSchema)
	}
	if got, ok := e.Query(dep.Handle); !ok || got.ID != dep.ID {
		t.Error("Query by handle")
	}
	if got, ok := e.Query(dep.ID); !ok || got.Handle != dep.Handle {
		t.Error("Query by id")
	}
	if e.QueryCount() != 1 {
		t.Errorf("QueryCount = %d", e.QueryCount())
	}
}

// TestEnginePutReplacesByName: a put under a running query's name
// replaces it (its subscribers see the close), and an unnamed deploy
// skips the ids names have taken.
func TestEnginePutReplacesByName(t *testing.T) {
	e := newTestEngine(t)
	g := NewQueryGraph("weather", NewFilterBox(expr.MustParse("rainrate > 5")))
	if _, err := e.Put("q00001", g, nil); err != nil {
		t.Fatal(err)
	}
	sub, err := e.Subscribe("q00001")
	if err != nil {
		t.Fatal(err)
	}
	if d, err := e.Put("q00001", g, nil); err != nil || d.ID != "q00001" {
		t.Fatalf("second put = %+v, %v", d, err)
	}
	if _, open := <-sub.C; open {
		t.Error("the replaced query's subscription is still open")
	}
	if d, err := e.Deploy(g); err != nil || d.ID != "q00002" {
		t.Fatalf("unnamed deploy = %+v, %v; want q00002", d, err)
	}
	if got := e.Queries(); len(got) != 2 || got[0] != "q00001" || got[1] != "q00002" {
		t.Errorf("Queries = %v, want [q00001 q00002]", got)
	}
}

func TestEngineDeployErrors(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Deploy(nil); err == nil {
		t.Error("nil graph must fail")
	}
	if _, err := e.Deploy(NewQueryGraph("nosuch")); err == nil {
		t.Error("unknown input must fail")
	}
	if _, err := e.Deploy(NewQueryGraph("weather", NewMapBox("bogus"))); err == nil {
		t.Error("invalid graph must fail")
	}
}

func TestEngineIngestAndSubscribe(t *testing.T) {
	e := newTestEngine(t)
	g := NewQueryGraph("weather",
		NewFilterBox(expr.MustParse("rainrate > 5")),
		NewMapBox("samplingtime", "rainrate"),
	)
	dep, err := e.Deploy(g)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	sub, err := e.Subscribe(dep.Handle)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	rains := []float64{9, 3, 6, 5, 13}
	for i, r := range rains {
		if err := e.Ingest("weather", weatherTuple(i, r)); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	e.Flush()
	var got []float64
	for len(sub.C) > 0 {
		tu := <-sub.C
		got = append(got, tu.Values[1].Double())
	}
	want := []float64{9, 6, 13}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if sub.Dropped() != 0 {
		t.Errorf("Dropped = %d", sub.Dropped())
	}
}

func TestEngineWithdraw(t *testing.T) {
	e := newTestEngine(t)
	dep, err := e.Deploy(NewQueryGraph("weather"))
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	sub, err := e.Subscribe(dep.ID)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := e.Withdraw(dep.Handle); err != nil {
		t.Fatalf("Withdraw: %v", err)
	}
	// Subscription channel must be closed.
	if _, open := <-sub.C; open {
		t.Error("subscription should be closed after withdraw")
	}
	if e.QueryCount() != 0 {
		t.Errorf("QueryCount = %d after withdraw", e.QueryCount())
	}
	if err := e.Withdraw(dep.Handle); err == nil {
		t.Error("double withdraw must fail")
	}
	// Ingest still works with no queries.
	if err := e.Ingest("weather", weatherTuple(0, 1)); err != nil {
		t.Errorf("Ingest after withdraw: %v", err)
	}
}

func TestEngineMultipleQueriesSameStream(t *testing.T) {
	e := newTestEngine(t)
	d1, err := e.Deploy(NewQueryGraph("weather", NewFilterBox(expr.MustParse("rainrate > 5"))))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := e.Deploy(NewQueryGraph("weather", NewFilterBox(expr.MustParse("rainrate <= 5"))))
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := e.Subscribe(d1.ID)
	s2, _ := e.Subscribe(d2.ID)
	for i := 0; i < 10; i++ {
		_ = e.Ingest("weather", weatherTuple(i, float64(i)))
	}
	e.Flush()
	if len(s1.C)+len(s2.C) != 10 {
		t.Errorf("partition sizes %d + %d != 10", len(s1.C), len(s2.C))
	}
	if len(s1.C) != 4 { // 6,7,8,9
		t.Errorf("s1 got %d tuples, want 4", len(s1.C))
	}
}

func TestEngineDropStreamWithdrawsQueries(t *testing.T) {
	e := newTestEngine(t)
	dep, err := e.Deploy(NewQueryGraph("weather"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DropStream("weather"); err != nil {
		t.Fatalf("DropStream: %v", err)
	}
	if _, ok := e.Query(dep.ID); ok {
		t.Error("query should be withdrawn with its stream")
	}
	if err := e.Ingest("weather", weatherTuple(0, 1)); err == nil {
		t.Error("ingest into dropped stream must fail")
	}
	if err := e.DropStream("weather"); err == nil {
		t.Error("double drop must fail")
	}
}

func TestEngineIngestValidation(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Ingest("nosuch", stream.NewTuple()); err == nil {
		t.Error("unknown stream must fail")
	}
	if err := e.Ingest("weather", stream.NewTuple(stream.IntValue(1))); err == nil {
		t.Error("non-conforming tuple must fail")
	}
}

func TestEngineSequenceNumbers(t *testing.T) {
	e := newTestEngine(t)
	dep, _ := e.Deploy(NewQueryGraph("weather"))
	sub, _ := e.Subscribe(dep.ID)
	for i := 0; i < 3; i++ {
		_ = e.Ingest("weather", weatherTuple(i, 1))
	}
	e.Flush()
	var seqs []uint64
	for len(sub.C) > 0 {
		seqs = append(seqs, (<-sub.C).Seq)
	}
	if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 3 {
		t.Errorf("seqs = %v", seqs)
	}
}

func TestEngineClose(t *testing.T) {
	e := NewEngine("closing")
	_ = e.CreateStream("s", singleAttrSchema())
	dep, _ := e.Deploy(NewQueryGraph("s"))
	e.Close()
	if _, ok := e.Query(dep.ID); ok {
		t.Error("queries should be withdrawn on close")
	}
	if err := e.CreateStream("t", singleAttrSchema()); err == nil {
		t.Error("create after close must fail")
	}
	if _, err := e.Deploy(NewQueryGraph("s")); err == nil {
		t.Error("deploy after close must fail")
	}
	e.Close() // idempotent
}

func TestEngineUnsubscribe(t *testing.T) {
	e := newTestEngine(t)
	dep, _ := e.Deploy(NewQueryGraph("weather"))
	sub, _ := e.Subscribe(dep.ID)
	e.Unsubscribe(dep.ID, sub)
	if _, open := <-sub.C; open {
		t.Error("unsubscribed channel should be closed")
	}
	_ = e.Ingest("weather", weatherTuple(0, 1))
	e.Flush() // must not panic or block
}

func TestEngineLogicalClock(t *testing.T) {
	e := newTestEngine(t)
	var now int64 = 1000
	e.SetClock(func() int64 { return now })
	dep, _ := e.Deploy(NewQueryGraph("weather"))
	sub, _ := e.Subscribe(dep.ID)
	_ = e.Ingest("weather", weatherTuple(0, 1))
	e.Flush()
	tu := <-sub.C
	if tu.ArrivalMillis != 1000 {
		t.Errorf("arrival = %d, want 1000", tu.ArrivalMillis)
	}
}

func TestRunGraphOnSliceErrors(t *testing.T) {
	s := singleAttrSchema()
	bad := NewQueryGraph("s", NewMapBox("zz"))
	if _, _, err := RunGraphOnSlice(bad, s, nil); err == nil {
		t.Error("invalid graph must fail")
	}
	g := NewQueryGraph("s")
	if _, _, err := RunGraphOnSlice(g, s, []stream.Tuple{stream.NewTuple()}); err == nil {
		t.Error("non-conforming tuple must fail")
	}
}
