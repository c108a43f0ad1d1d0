package stream

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randSchema builds a random schema covering every field type at least
// as often as the rng allows.
func randSchema(rng *rand.Rand) *Schema {
	types := []FieldType{TypeInt, TypeDouble, TypeString, TypeBool, TypeTimestamp}
	n := 1 + rng.Intn(6)
	fields := make([]Field, n)
	for i := range fields {
		fields[i] = Field{Name: fmt.Sprintf("f%d", i), Type: types[rng.Intn(len(types))]}
	}
	return MustSchema(fields...)
}

// randValue produces a value for the field type: usually exact, sometimes
// null, sometimes a widening int (valid for double/timestamp columns),
// and — when allowBad — occasionally a type mismatch.
func randValue(rng *rand.Rand, ft FieldType, allowBad bool) Value {
	roll := rng.Intn(100)
	if roll < 10 {
		return Value{} // null
	}
	if allowBad && roll < 15 {
		// A string never widens into any other column type, and an int
		// never fits a string column.
		if ft == TypeString {
			return IntValue(rng.Int63n(1000))
		}
		return StringValue("bad")
	}
	if roll < 30 && (ft == TypeDouble || ft == TypeTimestamp) {
		return IntValue(rng.Int63n(1 << 20)) // widening int literal
	}
	switch ft {
	case TypeInt:
		return IntValue(rng.Int63n(1<<40) - (1 << 39))
	case TypeDouble:
		switch rng.Intn(10) {
		case 0:
			return DoubleValue(math.NaN())
		case 1:
			return DoubleValue(math.Inf(1))
		default:
			return DoubleValue(rng.NormFloat64() * 1e6)
		}
	case TypeString:
		return StringValue(fmt.Sprintf("s-%d", rng.Intn(1000)))
	case TypeBool:
		return BoolValue(rng.Intn(2) == 0)
	case TypeTimestamp:
		return TimestampMillis(rng.Int63n(1 << 41))
	}
	panic("unreachable")
}

// TestColBatchRoundTripProperty drives randomized batches through
// LoadTuples + MaterializeRows and asserts the result is bit-identical
// to the row path (NormalizeBatch), including error text when the batch
// is invalid. The same ColBatch is reused across iterations so pooled
// reuse (stale nulls, stale string headers, capacity reuse) is part of
// the property.
func TestColBatchRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randSchema(rng)
		cb := NewColBatch(s)
		for iter := 0; iter < 200; iter++ {
			n := rng.Intn(70)
			ts := make([]Tuple, n)
			for i := range ts {
				vals := make([]Value, s.Len())
				for f := range vals {
					vals[f] = randValue(rng, s.Field(f).Type, true)
				}
				if rng.Intn(50) == 0 {
					vals = vals[:rng.Intn(s.Len())] // arity violation
				}
				ts[i] = Tuple{Values: vals, ArrivalMillis: rng.Int63n(1 << 40)}
			}

			want, wantErr := NormalizeBatch(s, ts, false, false)
			gotErr := cb.LoadTuples(ts, false)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seed %d iter %d: row err %v, col err %v", seed, iter, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("seed %d iter %d: error text diverged:\n row: %s\n col: %s",
						seed, iter, wantErr, gotErr)
				}
				continue
			}

			// Stamp Seq the way seal would, then materialize every row
			// with an identity projection and compare value-for-value.
			for i := 0; i < cb.Len(); i++ {
				cb.Seq[i] = uint64(1000 + i)
			}
			cols := make([]int, s.Len())
			sel := make([]int32, cb.Len())
			for i := range cols {
				cols[i] = i
			}
			for i := range sel {
				sel[i] = int32(i)
			}
			rows, _ := cb.MaterializeRows(cols, sel, nil, nil)
			if len(rows) != len(want) {
				t.Fatalf("seed %d iter %d: got %d rows, want %d", seed, iter, len(rows), len(want))
			}
			for i := range rows {
				if rows[i].ArrivalMillis != want[i].ArrivalMillis {
					t.Fatalf("seed %d iter %d row %d: arrival %d != %d",
						seed, iter, i, rows[i].ArrivalMillis, want[i].ArrivalMillis)
				}
				if rows[i].Seq != uint64(1000+i) {
					t.Fatalf("seed %d iter %d row %d: seq %d", seed, iter, i, rows[i].Seq)
				}
				for f := range rows[i].Values {
					g, w := rows[i].Values[f], want[i].Values[f]
					if g.Type() != w.Type() || !valueBitIdentical(g, w) {
						t.Fatalf("seed %d iter %d row %d field %d: got %v (%s), want %v (%s)",
							seed, iter, i, f, g, g.Type(), w, w.Type())
					}
				}
			}
		}
	}
}

// valueBitIdentical compares values including NaN payload-level float
// equality (NaN == NaN here, unlike Equal's numeric semantics).
func valueBitIdentical(a, b Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Type() {
	case TypeDouble:
		return math.Float64bits(a.Double()) == math.Float64bits(b.Double())
	case TypeString:
		return a.Str() == b.Str()
	case TypeInvalid:
		return true
	default:
		return a.Int() == b.Int()
	}
}

// TestColBatchSelectionAndProjection checks that MaterializeRows honors
// arbitrary selection vectors and column reorderings, the contract the
// columnar filter/map pipeline relies on.
func TestColBatchSelectionAndProjection(t *testing.T) {
	s := MustSchema(
		Field{Name: "a", Type: TypeInt},
		Field{Name: "b", Type: TypeString},
		Field{Name: "c", Type: TypeDouble},
	)
	ts := make([]Tuple, 10)
	for i := range ts {
		ts[i] = Tuple{
			Values: []Value{
				IntValue(int64(i)),
				StringValue(fmt.Sprintf("row%d", i)),
				DoubleValue(float64(i) / 2),
			},
			ArrivalMillis: int64(100 + i),
		}
	}
	cb := NewColBatch(s)
	if err := cb.LoadTuples(ts, true); err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		cb.Seq[i] = uint64(i)
	}
	// Project (c, a) over rows 7, 2, 2.
	rows, _ := cb.MaterializeRows([]int{2, 0}, []int32{7, 2, 2}, nil, nil)
	wantRows := []struct {
		c   float64
		a   int64
		arr int64
	}{{3.5, 7, 107}, {1, 2, 102}, {1, 2, 102}}
	for i, w := range wantRows {
		got := rows[i]
		if got.Values[0].Double() != w.c || got.Values[1].Int() != w.a || got.ArrivalMillis != w.arr {
			t.Fatalf("row %d: got %v arrival=%d, want (%v,%v) arrival=%d",
				i, got.Values, got.ArrivalMillis, w.c, w.a, w.arr)
		}
	}
}
