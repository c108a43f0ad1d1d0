package stream

import "fmt"

// Column is one typed vector of a ColBatch. Exactly one of the payload
// slices is populated, chosen by Type: Ints carries int, timestamp
// (unix millis) and bool (0/1) columns, Floats carries double columns,
// Strs carries string columns. Nulls is a per-row bitmap; HasNulls is a
// batch-level fast-path flag so fully non-null columns skip the bitmap
// entirely in inner loops.
type Column struct {
	Type     FieldType
	Ints     []int64
	Floats   []float64
	Strs     []string
	Nulls    []uint64
	HasNulls bool
}

// IsNull reports whether the value at row is absent.
func (c *Column) IsNull(row int) bool {
	return c.HasNulls && c.Nulls[uint(row)>>6]&(1<<(uint(row)&63)) != 0
}

func (c *Column) setNull(row int) {
	c.Nulls[uint(row)>>6] |= 1 << (uint(row) & 63)
	c.HasNulls = true
}

// Value reboxes the row's value into the tagged-union form. It is the
// row-materialization primitive: the hot path never calls it per tuple
// except at subscription push and wire-codec boundaries.
func (c *Column) Value(row int) Value {
	if c.IsNull(row) {
		return Value{}
	}
	switch c.Type {
	case TypeInt:
		return Value{typ: TypeInt, i: c.Ints[row]}
	case TypeDouble:
		return Value{typ: TypeDouble, f: c.Floats[row]}
	case TypeString:
		return Value{typ: TypeString, s: c.Strs[row]}
	case TypeBool:
		return Value{typ: TypeBool, i: c.Ints[row]}
	case TypeTimestamp:
		return Value{typ: TypeTimestamp, i: c.Ints[row]}
	default:
		return Value{}
	}
}

// ColBatch is a batch of tuples in columnar form: one typed vector per
// schema field plus the per-row Seq/Arrival headers the engine stamps
// at seal time. The layout is resolved against the schema once, so
// every consumer indexes vectors directly instead of switching on a
// tagged union per value.
//
// The engine runs one batch through every query deployed on a stream
// and then returns it to the stream's pool. Queries must never mutate
// a batch (they carry private selection vectors instead); the seal path
// is the only writer, before the first query runs.
type ColBatch struct {
	Arrival []int64
	Seq     []uint64
	Cols    []Column

	schema *Schema
	n      int
}

// NewColBatch creates an empty batch laid out for the schema.
func NewColBatch(s *Schema) *ColBatch {
	cb := &ColBatch{schema: s, Cols: make([]Column, s.Len())}
	for i := range cb.Cols {
		cb.Cols[i].Type = s.Field(i).Type
	}
	return cb
}

// Len reports the number of rows.
func (cb *ColBatch) Len() int { return cb.n }

// Schema reports the layout schema.
func (cb *ColBatch) Schema() *Schema { return cb.schema }

// Cap reports the row capacity (for pool size policies).
func (cb *ColBatch) Cap() int { return cap(cb.Arrival) }

// Reset resizes the batch for n rows, reusing vector capacity and
// clearing the null bitmaps.
func (cb *ColBatch) Reset(n int) {
	if cap(cb.Arrival) < n {
		cb.Arrival = make([]int64, n)
		cb.Seq = make([]uint64, n)
	}
	cb.Arrival = cb.Arrival[:n]
	cb.Seq = cb.Seq[:n]
	words := (n + 63) / 64
	for i := range cb.Cols {
		c := &cb.Cols[i]
		switch c.Type {
		case TypeInt, TypeBool, TypeTimestamp:
			if cap(c.Ints) < n {
				c.Ints = make([]int64, n)
			}
			c.Ints = c.Ints[:n]
		case TypeDouble:
			if cap(c.Floats) < n {
				c.Floats = make([]float64, n)
			}
			c.Floats = c.Floats[:n]
		case TypeString:
			// Drop stale string headers so a pooled batch does not pin
			// the previous batch's string data.
			clear(c.Strs)
			if cap(c.Strs) < n {
				c.Strs = make([]string, n)
			}
			c.Strs = c.Strs[:n]
		}
		if cap(c.Nulls) < words {
			c.Nulls = make([]uint64, words)
		}
		c.Nulls = c.Nulls[:words]
		clear(c.Nulls)
		c.HasNulls = false
	}
	cb.n = n
}

// LoadTuples fills the batch from a row batch in one fused pass:
// validation, widening coercion (int literals into double/timestamp
// columns) and transposition happen per value, with no intermediate
// normalized row batch. Semantics — including error text — match
// NormalizeBatch followed by a transpose: validation is atomic (the
// batch is garbage on error and must not be dispatched), prevalidated
// skips nothing here beyond what Normalize would re-check, because the
// per-value type switch is the transpose loop itself. Arrival times and
// sequence numbers are copied (zero means "unstamped"; the seal path
// fills both, preserving any non-zero values a fronting runtime already
// assigned).
//
// The input slice and its tuples are not retained: every value is
// copied into the vectors, so the caller may reuse ts immediately.
func (cb *ColBatch) LoadTuples(ts []Tuple, prevalidated bool) error {
	s := cb.schema
	nf := s.Len()
	cb.Reset(len(ts))
	for i := range ts {
		t := &ts[i]
		if len(t.Values) != nf {
			if prevalidated {
				return fmt.Errorf("tuple %d: arity %d != schema arity %d", i, len(t.Values), nf)
			}
			return fmt.Errorf("tuple %d: stream: tuple arity %d != schema arity %d", i, len(t.Values), nf)
		}
		cb.Arrival[i] = t.ArrivalMillis
		cb.Seq[i] = t.Seq
		for f := 0; f < nf; f++ {
			v := t.Values[f]
			c := &cb.Cols[f]
			if v.typ == TypeInvalid {
				c.setNull(i)
				continue
			}
			switch c.Type {
			case TypeInt:
				if v.typ != TypeInt {
					return loadTypeErr(i, s, f, v)
				}
				c.Ints[i] = v.i
			case TypeDouble:
				switch v.typ {
				case TypeDouble:
					c.Floats[i] = v.f
				case TypeInt:
					c.Floats[i] = float64(v.i)
				default:
					return loadTypeErr(i, s, f, v)
				}
			case TypeTimestamp:
				switch v.typ {
				case TypeTimestamp, TypeInt:
					c.Ints[i] = v.i
				default:
					return loadTypeErr(i, s, f, v)
				}
			case TypeString:
				if v.typ != TypeString {
					return loadTypeErr(i, s, f, v)
				}
				c.Strs[i] = v.s
			case TypeBool:
				if v.typ != TypeBool {
					return loadTypeErr(i, s, f, v)
				}
				c.Ints[i] = v.i
			default:
				return loadTypeErr(i, s, f, v)
			}
		}
	}
	return nil
}

// loadTypeErr renders the same message the row path produces via
// Conforms, prefixed with the failing tuple index like NormalizeBatch.
func loadTypeErr(i int, s *Schema, f int, v Value) error {
	return fmt.Errorf("tuple %d: stream: field %q: have %s want %s", i, s.Field(f).Name, v.typ, s.Field(f).Type)
}

// MaterializeRows appends one row tuple per selection entry, projecting
// the physical columns named by cols (in output order) and carrying the
// batch's Seq/Arrival provenance. Value storage is carved out of arena;
// callers that hand the rows to consumers outliving the batch must pass
// a fresh arena.
func (cb *ColBatch) MaterializeRows(cols []int, sel []int32, hdrs []Tuple, arena []Value) ([]Tuple, []Value) {
	for _, r := range sel {
		base := len(arena)
		for _, p := range cols {
			arena = append(arena, cb.Cols[p].Value(int(r)))
		}
		hdrs = append(hdrs, Tuple{
			Values:        arena[base:len(arena):len(arena)],
			ArrivalMillis: cb.Arrival[r],
			Seq:           cb.Seq[r],
		})
	}
	return hdrs, arena
}
