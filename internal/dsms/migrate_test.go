package dsms

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// drainSub empties a subscription's buffered emissions after a Flush
// (the pipelines have quiesced, so everything emitted is buffered).
func drainSub(sub *Subscription) []stream.Tuple {
	var out []stream.Tuple
	for {
		select {
		case t := <-sub.C:
			out = append(out, t)
		default:
			return out
		}
	}
}

// migrateGraph is the windowed aggregate under migration test: every
// accumulator flavour the state carries (sums, nonnull counts, min/max
// deques, first/last provenance).
func migrateGraph(win WindowSpec) *QueryGraph {
	return NewQueryGraph("s", NewAggregateBox(win,
		AggSpec{Attr: "i", Func: AggSum},
		AggSpec{Attr: "i", Func: AggMin},
		AggSpec{Attr: "d", Func: AggAvg},
		AggSpec{Attr: "d", Func: AggMax},
		AggSpec{Attr: "s", Func: AggMin},
		AggSpec{Attr: "t", Func: AggFirstVal},
		AggSpec{Attr: "i", Func: AggLastVal},
		AggSpec{Attr: "s", Func: AggCount},
	))
}

// TestMigratedQueryGolden is the migration golden test: a query run
// uninterrupted over an input must emit bit-for-bit what the same
// query emits when it is cut mid-stream — state exported from engine A
// and put with it into a fresh engine B (which continues the stream's
// sequence lineage) before the rest of the input
// flows. Same window closes, same values, same Seq/ArrivalMillis
// provenance: the consumer cannot tell the migration happened.
func TestMigratedQueryGolden(t *testing.T) {
	windows := []WindowSpec{
		{Type: WindowTuple, Size: 64, Step: 1}, // deep ring crosses the cut
		{Type: WindowTuple, Size: 5, Step: 2},
		{Type: WindowTuple, Size: 3, Step: 7},   // hopping: skip counter crosses the cut
		{Type: WindowTime, Size: 500, Step: 25}, // step ≪ size
		{Type: WindowTime, Size: 100, Step: 100},
	}
	schema := goldenSchema()
	for seed := int64(1); seed <= 2; seed++ {
		for _, ooo := range []bool{false, true} {
			input := goldenStream(rand.New(rand.NewSource(seed)), 600, ooo)
			cut := len(input) / 2
			for _, win := range windows {
				name := fmt.Sprintf("seed=%d/ooo=%v/%s", seed, ooo, win)
				t.Run(name, func(t *testing.T) {
					// Reference: one engine, no interruption.
					full := NewEngine("full")
					defer full.Close()
					if err := full.CreateStream("s", schema); err != nil {
						t.Fatal(err)
					}
					fdep, err := full.Deploy(migrateGraph(win))
					if err != nil {
						t.Fatal(err)
					}
					fsub, err := full.Subscribe(fdep.ID)
					if err != nil {
						t.Fatal(err)
					}
					if err := full.IngestBatch("s", append([]stream.Tuple(nil), input...)); err != nil {
						t.Fatal(err)
					}
					full.Flush()
					want := drainSub(fsub)

					// Migrated: first half on A, export, import into a fresh
					// B continuing the sequence lineage, second half on B.
					a := NewEngine("a")
					defer a.Close()
					if err := a.CreateStream("s", schema); err != nil {
						t.Fatal(err)
					}
					adep, err := a.Deploy(migrateGraph(win))
					if err != nil {
						t.Fatal(err)
					}
					asub, err := a.Subscribe(adep.ID)
					if err != nil {
						t.Fatal(err)
					}
					if err := a.IngestBatch("s", append([]stream.Tuple(nil), input[:cut]...)); err != nil {
						t.Fatal(err)
					}
					a.Flush()
					st, err := a.ExportQueryState(adep.ID)
					if err != nil {
						t.Fatal(err)
					}
					got := drainSub(asub)

					b := NewEngine("b")
					defer b.Close()
					if err := b.CreateStream("s", schema); err != nil {
						t.Fatal(err)
					}
					bdep, err := b.Put("migrated", migrateGraph(win), st)
					if err != nil {
						t.Fatal(err)
					}
					if seq, _ := b.StreamSeq("s"); seq != st.InputSeq {
						t.Fatalf("stream sequence after the put = %d, want the exported %d", seq, st.InputSeq)
					}
					bsub, err := b.Subscribe(bdep.ID)
					if err != nil {
						t.Fatal(err)
					}
					if err := b.IngestBatch("s", append([]stream.Tuple(nil), input[cut:]...)); err != nil {
						t.Fatal(err)
					}
					b.Flush()
					got = append(got, drainSub(bsub)...)

					if fsub.Dropped() != 0 || asub.Dropped() != 0 || bsub.Dropped() != 0 {
						t.Fatalf("subscription dropped emissions (full=%d a=%d b=%d); grow the buffer",
							fsub.Dropped(), asub.Dropped(), bsub.Dropped())
					}
					if len(got) != len(want) {
						t.Fatalf("migrated run emitted %d windows, uninterrupted run %d", len(got), len(want))
					}
					for i := range want {
						if got[i].Seq != want[i].Seq || got[i].ArrivalMillis != want[i].ArrivalMillis {
							t.Fatalf("window %d provenance: got (seq=%d,ts=%d) want (seq=%d,ts=%d)",
								i, got[i].Seq, got[i].ArrivalMillis, want[i].Seq, want[i].ArrivalMillis)
						}
						for k := range want[i].Values {
							if !valuesIdentical(got[i].Values[k], want[i].Values[k]) {
								t.Fatalf("window %d, agg %d: got %v (%v) want %v (%v)",
									i, k, got[i].Values[k], got[i].Values[k].Type(),
									want[i].Values[k], want[i].Values[k].Type())
							}
						}
					}
				})
			}
		}
	}
}

// TestSetStreamSeqRefusesRewind pins the lineage guard: a replica that
// already sealed past the exported position must not be rewound (its
// tuples would re-use sequence numbers the consumer already saw).
func TestSetStreamSeqRefusesRewind(t *testing.T) {
	e := NewEngine("seq")
	defer e.Close()
	schema := stream.MustSchema(stream.Field{Name: "i", Type: stream.TypeInt})
	if err := e.CreateStream("s", schema); err != nil {
		t.Fatal(err)
	}
	var ts []stream.Tuple
	for i := 0; i < 10; i++ {
		ts = append(ts, stream.NewTuple(stream.IntValue(int64(i))))
	}
	if err := e.IngestBatch("s", ts); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if err := e.setStreamSeq("s", 3); !errors.Is(err, errSeqBehind) {
		t.Fatalf("rewind to 3 after 10 seals = %v, want errSeqBehind", err)
	}
	if err := e.setStreamSeq("s", 10); err != nil {
		t.Fatalf("set to current position = %v, want nil", err)
	}
	if err := e.setStreamSeq("s", 25); err != nil {
		t.Fatalf("fast-forward = %v, want nil", err)
	}
	if seq, _ := e.StreamSeq("s"); seq != 25 {
		t.Fatalf("StreamSeq = %d, want 25", seq)
	}
}
