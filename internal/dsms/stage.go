package dsms

import (
	"fmt"
	"slices"

	"repro/internal/stream"
)

// This file implements the shard side of cross-shard query plans plus
// the merge algebra the fronting runtime applies to reassemble one
// global answer (the ROADMAP's "Global re-aggregation" item).
//
// A query over a partitioned stream runs as N parts, one per shard, and
// each part's pipeline carries a stage operator (StageSpec on the query
// graph) that emits *stage records* instead of finished output tuples:
//
//   - StagePartial (tuple windows, no filter): the terminal aggregate
//     runs as a partial aggregate. Window boundaries are global tuple
//     ordinals — window k covers positions [k*Step+1, k*Step+Size] of
//     the runtime-stamped sequence — so each shard folds its subset of
//     a window's positions into a mergeable partial (count, sum +
//     non-null count, earliest best value + its position, first/last
//     value + position) and emits a cumulative snapshot of every open
//     window after each batch — the merge keeps the highest-count
//     snapshot per window, so a window whose end the shard never sees
//     (trailing data) is still fully represented by its last snapshot.
//     Count/sum/min/max compose exactly; avg decomposes
//     into sum+count; double sums stay bit-stable because every shard
//     accumulates its subsequence left-to-right in position order and
//     the merge adds shard sums in deterministic partition order.
//
//   - StageRelay (time windows, or tuple windows behind a filter): the
//     part runs its pre-aggregate chain and relays each surviving row
//     wrapped in a record carrying the row's global position; the merge
//     stage reorders rows back into one global position-ordered
//     sequence and feeds them through a single real aggregate operator
//     (AggDriver), so the global emission is bit-identical to the
//     single-shard run by construction.
//
// Both modes emit a watermark record after every input batch carrying
// the highest global position the shard has sealed (pre-filter — a
// filtered-out tuple still advances the shard's frontier), which is
// what lets the merge stage decide when a window (partial mode) or a
// row (relay mode) can no longer be affected by a slower shard.

// Stage record layouts. Field names are underscore-prefixed so they can
// never collide with streamql identifiers from user schemas.
const (
	pkKind    = 0 // int: record kind (recPartial | recWatermark)
	pkWin     = 1 // int: window index k
	pkCount   = 2 // int: tuples of the window held by this shard
	pkFirstG  = 3 // int: smallest global position in the window here
	pkLastG   = 4 // int: largest global position here; watermark: frontier
	pkLastArr = 5 // timestamp: arrival of the position in pkLastG
	pkSpecs   = 6 // first per-spec field

	rkKind    = 0 // int: record kind (recRow | recWatermark)
	rkG       = 1 // int: the row's global position; watermark: frontier
	rkPayload = 2 // first relayed row field
)

const (
	recData      = 0 // partial record / relayed row
	recWatermark = 1 // shard frontier advanced
)

// PartialRecordSchema computes the record schema a partial-stage part
// emits for the given aggregate specs over their input schema.
func PartialRecordSchema(aggs []AggSpec, aggIn *stream.Schema) (*stream.Schema, error) {
	c, err := NewPartialCodec(aggs, aggIn)
	if err != nil {
		return nil, err
	}
	return c.RecordSchema(), nil
}

// RelayRecordSchema computes the record schema a relay-stage part emits
// around rows of the inner (post-chain) schema.
func RelayRecordSchema(inner *stream.Schema) (*stream.Schema, error) {
	fields := make([]stream.Field, 0, inner.Len()+rkPayload)
	fields = append(fields,
		stream.Field{Name: "_kind", Type: stream.TypeInt},
		stream.Field{Name: "_g", Type: stream.TypeInt},
	)
	fields = append(fields, inner.Fields()...)
	s, err := stream.NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("dsms: relay record schema: %w", err)
	}
	return s, nil
}

// PlanStage picks the stage mode under which a query graph's aggregate
// can run globally across a partitioned stream. ok is false when the
// graph has no aggregate (the plain merged-subscription path already
// yields the right answer for stateless chains). Partial aggregation
// needs window boundaries every shard can compute locally — tuple
// windows are ordinals of the stamped global sequence, which only
// survive when nothing upstream discards tuples — so filtered tuple
// windows and all time windows fall back to relaying rows.
func PlanStage(g *QueryGraph) (StageMode, bool, error) {
	aggAt := -1
	for i, b := range g.Boxes {
		if b.Kind == BoxAggregate {
			aggAt = i
			break
		}
	}
	if aggAt == -1 {
		return "", false, nil
	}
	if aggAt != len(g.Boxes)-1 {
		return "", false, fmt.Errorf("dsms: global aggregation over a partitioned stream requires the aggregate to be the final box")
	}
	agg := g.Boxes[aggAt]
	if agg.Window.Type == WindowTuple {
		filtered := false
		for _, b := range g.Boxes[:aggAt] {
			if b.Kind == BoxFilter {
				filtered = true
				break
			}
		}
		if !filtered {
			return StagePartial, true, nil
		}
	}
	return StageRelay, true, nil
}

// WindowPartial is one shard's contribution to one global window: every
// accumulator the merge algebra composes, plus the positions needed to
// arbitrate first/last/tie-breaks globally. Only the slices relevant to
// a spec's function are populated (sum/avg fill Sums/Nonnull, min/max
// fill Best/BestG, firstval fills Firsts, lastval fills Lasts); the
// others stay zero. It doubles as the serialized form of a partial
// stage's open windows inside QueryState.
type WindowPartial struct {
	Win     int64 `json:"win"`
	Count   int64 `json:"count"`
	FirstG  int64 `json:"first_g"`
	LastG   int64 `json:"last_g"`
	LastArr int64 `json:"last_arr"`

	Sums    []float64      `json:"sums"`
	Nonnull []int64        `json:"nonnull"`
	Best    []stream.Value `json:"best"`
	BestG   []int64        `json:"best_g"`
	Firsts  []stream.Value `json:"firsts"`
	Lasts   []stream.Value `json:"lasts"`
}

// newWindowPartial allocates a partial whose per-spec slices share one
// backing array per element type: the merge decodes one per record, so
// it is built in four allocations, not seven.
func newWindowPartial(win int64, n int) *WindowPartial {
	ints := make([]int64, 2*n)
	vals := make([]stream.Value, 3*n)
	return &WindowPartial{
		Win:     win,
		Sums:    make([]float64, n),
		Nonnull: ints[:n:n],
		BestG:   ints[n:],
		Best:    vals[:n:n],
		Firsts:  vals[n : 2*n : 2*n],
		Lasts:   vals[2*n:],
	}
}

// PartialCodec binds aggregate specs to their record layout: it encodes
// and decodes partial records, merges partials, and materializes the
// finished global emission with exactly the coercions and provenance
// rules of the in-engine aggregate's emit path.
type PartialCodec struct {
	aggs      []AggSpec
	attrTypes []stream.FieldType // spec attribute types in the aggregate's input schema
	rec       *stream.Schema
	out       *stream.Schema

	// per-spec record positions, -1 when the function does not use them
	sumPos, nnPos, bestPos, bestgPos, firstPos, lastPos []int
}

// NewPartialCodec resolves the specs against the aggregate's input
// schema and lays out the record schema.
func NewPartialCodec(aggs []AggSpec, aggIn *stream.Schema) (*PartialCodec, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("dsms: partial codec with no aggregate specs")
	}
	c := &PartialCodec{aggs: append([]AggSpec(nil), aggs...)}
	k := len(aggs)
	c.attrTypes = make([]stream.FieldType, k)
	c.sumPos = make([]int, k)
	c.nnPos = make([]int, k)
	c.bestPos = make([]int, k)
	c.bestgPos = make([]int, k)
	c.firstPos = make([]int, k)
	c.lastPos = make([]int, k)
	fields := []stream.Field{
		{Name: "_kind", Type: stream.TypeInt},
		{Name: "_win", Type: stream.TypeInt},
		{Name: "_count", Type: stream.TypeInt},
		{Name: "_firstg", Type: stream.TypeInt},
		{Name: "_lastg", Type: stream.TypeInt},
		{Name: "_lastarr", Type: stream.TypeTimestamp},
	}
	outFields := make([]stream.Field, 0, k)
	for i, a := range aggs {
		_, ft, ok := aggIn.Lookup(a.Attr)
		if !ok {
			return nil, fmt.Errorf("dsms: aggregate references unknown attribute %q", a.Attr)
		}
		c.attrTypes[i] = ft
		ot, err := a.OutputType(ft)
		if err != nil {
			return nil, err
		}
		outFields = append(outFields, stream.Field{Name: a.OutputName(), Type: ot})
		c.sumPos[i], c.nnPos[i], c.bestPos[i], c.bestgPos[i], c.firstPos[i], c.lastPos[i] = -1, -1, -1, -1, -1, -1
		switch a.Func {
		case AggCount:
			// shares the window-level _count
		case AggSum, AggAvg:
			c.sumPos[i] = len(fields)
			fields = append(fields, stream.Field{Name: fmt.Sprintf("_a%d_sum", i), Type: stream.TypeDouble})
			c.nnPos[i] = len(fields)
			fields = append(fields, stream.Field{Name: fmt.Sprintf("_a%d_nn", i), Type: stream.TypeInt})
		case AggMin, AggMax:
			c.bestPos[i] = len(fields)
			fields = append(fields, stream.Field{Name: fmt.Sprintf("_a%d_best", i), Type: ft})
			c.bestgPos[i] = len(fields)
			fields = append(fields, stream.Field{Name: fmt.Sprintf("_a%d_bestg", i), Type: stream.TypeInt})
		case AggFirstVal:
			c.firstPos[i] = len(fields)
			fields = append(fields, stream.Field{Name: fmt.Sprintf("_a%d_first", i), Type: ft})
		case AggLastVal:
			c.lastPos[i] = len(fields)
			fields = append(fields, stream.Field{Name: fmt.Sprintf("_a%d_last", i), Type: ft})
		default:
			return nil, fmt.Errorf("dsms: invalid aggregate function")
		}
	}
	rec, err := stream.NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("dsms: partial record schema: %w", err)
	}
	out, err := stream.NewSchema(outFields...)
	if err != nil {
		return nil, fmt.Errorf("dsms: aggregate output schema: %w", err)
	}
	c.rec, c.out = rec, out
	return c, nil
}

// RecordSchema is the wire schema of this codec's partial records.
func (c *PartialCodec) RecordSchema() *stream.Schema { return c.rec }

// OutputSchema is the logical schema of the finished global emissions.
func (c *PartialCodec) OutputSchema() *stream.Schema { return c.out }

// encode renders one finalized window partial as a record tuple.
func (c *PartialCodec) encode(w *WindowPartial, seq uint64) stream.Tuple {
	vals := make([]stream.Value, c.rec.Len())
	vals[pkKind] = stream.IntValue(recData)
	vals[pkWin] = stream.IntValue(w.Win)
	vals[pkCount] = stream.IntValue(w.Count)
	vals[pkFirstG] = stream.IntValue(w.FirstG)
	vals[pkLastG] = stream.IntValue(w.LastG)
	vals[pkLastArr] = stream.TimestampMillis(w.LastArr)
	for i := range c.aggs {
		if p := c.sumPos[i]; p >= 0 {
			vals[p] = stream.DoubleValue(w.Sums[i])
			vals[c.nnPos[i]] = stream.IntValue(w.Nonnull[i])
		}
		if p := c.bestPos[i]; p >= 0 {
			vals[p] = w.Best[i]
			vals[c.bestgPos[i]] = stream.IntValue(w.BestG[i])
		}
		if p := c.firstPos[i]; p >= 0 {
			vals[p] = w.Firsts[i]
		}
		if p := c.lastPos[i]; p >= 0 {
			vals[p] = w.Lasts[i]
		}
	}
	t := stream.NewTuple(vals...)
	t.ArrivalMillis = w.LastArr
	t.Seq = seq
	return t
}

// encodeWatermark renders a frontier advance as a record tuple.
func (c *PartialCodec) encodeWatermark(w uint64, seq uint64) stream.Tuple {
	vals := make([]stream.Value, c.rec.Len())
	vals[pkKind] = stream.IntValue(recWatermark)
	vals[pkLastG] = stream.IntValue(int64(w))
	t := stream.NewTuple(vals...)
	t.Seq = seq
	return t
}

// Decode parses a record tuple. Exactly one of part (a shard's window
// partial) or wm (watermark frontier, with isWM set) is meaningful.
func (c *PartialCodec) Decode(t stream.Tuple) (part *WindowPartial, wm uint64, isWM bool, err error) {
	if len(t.Values) != c.rec.Len() {
		return nil, 0, false, fmt.Errorf("dsms: partial record arity %d, want %d", len(t.Values), c.rec.Len())
	}
	switch kind := t.Values[pkKind].Int(); kind {
	case recWatermark:
		return nil, uint64(t.Values[pkLastG].Int()), true, nil
	case recData:
	default:
		return nil, 0, false, fmt.Errorf("dsms: unknown partial record kind %d", kind)
	}
	w := newWindowPartial(t.Values[pkWin].Int(), len(c.aggs))
	w.Count = t.Values[pkCount].Int()
	w.FirstG = t.Values[pkFirstG].Int()
	w.LastG = t.Values[pkLastG].Int()
	w.LastArr = t.Values[pkLastArr].Millis()
	for i := range c.aggs {
		if p := c.sumPos[i]; p >= 0 {
			w.Sums[i] = t.Values[p].Double()
			w.Nonnull[i] = t.Values[c.nnPos[i]].Int()
		}
		if p := c.bestPos[i]; p >= 0 {
			w.Best[i] = t.Values[p]
			w.BestG[i] = t.Values[c.bestgPos[i]].Int()
		}
		if p := c.firstPos[i]; p >= 0 {
			w.Firsts[i] = t.Values[p]
		}
		if p := c.lastPos[i]; p >= 0 {
			w.Lasts[i] = t.Values[p]
		}
	}
	return w, 0, false, nil
}

// Merge folds a list of per-shard partials for the same window into one
// global partial, in the order given. The caller fixes the order to the
// partition order, which makes float sums deterministic (left-to-right
// over shard sums); count, integer sums, min, max, first and last are
// order-insensitive. Nil entries (shards that held no tuple of the
// window) are skipped; the result is nil when every entry is nil.
func (c *PartialCodec) Merge(parts []*WindowPartial) (*WindowPartial, error) {
	var m *WindowPartial
	for _, p := range parts {
		if p == nil {
			continue
		}
		if m == nil {
			m = newWindowPartial(p.Win, len(c.aggs))
			m.Count, m.FirstG, m.LastG, m.LastArr = p.Count, p.FirstG, p.LastG, p.LastArr
			copy(m.Sums, p.Sums)
			copy(m.Nonnull, p.Nonnull)
			copy(m.Best, p.Best)
			copy(m.BestG, p.BestG)
			copy(m.Firsts, p.Firsts)
			copy(m.Lasts, p.Lasts)
			continue
		}
		if p.Win != m.Win {
			return nil, fmt.Errorf("dsms: merging partials of windows %d and %d", m.Win, p.Win)
		}
		if err := c.mergeInto(m, p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// mergeInto folds src into dst (dst precedes src in partition order).
func (c *PartialCodec) mergeInto(dst, src *WindowPartial) error {
	dst.Count += src.Count
	if src.FirstG < dst.FirstG {
		dst.FirstG = src.FirstG
		copy(dst.Firsts, src.Firsts)
	}
	if src.LastG > dst.LastG {
		dst.LastG = src.LastG
		dst.LastArr = src.LastArr
		copy(dst.Lasts, src.Lasts)
	}
	for i, a := range c.aggs {
		switch a.Func {
		case AggSum, AggAvg:
			dst.Sums[i] += src.Sums[i]
			dst.Nonnull[i] += src.Nonnull[i]
		case AggMin, AggMax:
			sv := src.Best[i]
			if sv.IsNull() {
				continue
			}
			dv := dst.Best[i]
			if dv.IsNull() {
				dst.Best[i], dst.BestG[i] = sv, src.BestG[i]
				continue
			}
			cmp, err := sv.Compare(dv)
			if err != nil {
				return err
			}
			// Strict improvement wins; on ties the earlier global
			// position wins, reproducing the single-scan "first of equal
			// extrema" rule.
			if (a.Func == AggMax && cmp > 0) || (a.Func == AggMin && cmp < 0) ||
				(cmp == 0 && src.BestG[i] < dst.BestG[i]) {
				dst.Best[i], dst.BestG[i] = sv, src.BestG[i]
			}
		}
	}
	return nil
}

// Finish materializes the merged global partial as the finished
// aggregate emission, mirroring the in-engine emit path exactly: the
// same null rules, the same output-type coercions, and provenance from
// the window's last tuple (its global position as Seq, its arrival
// time as ArrivalMillis).
func (c *PartialCodec) Finish(m *WindowPartial) (stream.Tuple, error) {
	vals := make([]stream.Value, len(c.aggs))
	for i, spec := range c.aggs {
		var v stream.Value
		switch spec.Func {
		case AggCount:
			v = stream.IntValue(m.Count)
		case AggFirstVal:
			v = m.Firsts[i]
		case AggLastVal:
			v = m.Lasts[i]
		case AggAvg:
			if m.Nonnull[i] > 0 {
				v = stream.DoubleValue(m.Sums[i] / float64(m.Nonnull[i]))
			}
		case AggSum:
			if m.Nonnull[i] > 0 {
				if c.attrTypes[i] == stream.TypeInt {
					v = stream.IntValue(int64(m.Sums[i]))
				} else {
					v = stream.DoubleValue(m.Sums[i])
				}
			}
		case AggMin, AggMax:
			v = m.Best[i]
		default:
			return stream.Tuple{}, fmt.Errorf("dsms: invalid aggregate function")
		}
		want := c.out.Field(i).Type
		if !v.IsNull() && v.Type() != want {
			if cv, err := v.CoerceTo(want); err == nil {
				v = cv
			}
		}
		vals[i] = v
	}
	out := stream.NewTuple(vals...)
	out.ArrivalMillis = m.LastArr
	out.Seq = uint64(m.LastG)
	return out, nil
}

// RelayCodec encodes and decodes relay records around an inner row
// schema.
type RelayCodec struct {
	inner *stream.Schema
	rec   *stream.Schema
}

// NewRelayCodec lays out the relay record schema for the inner schema.
func NewRelayCodec(inner *stream.Schema) (*RelayCodec, error) {
	rec, err := RelayRecordSchema(inner)
	if err != nil {
		return nil, err
	}
	return &RelayCodec{inner: inner, rec: rec}, nil
}

// RecordSchema is the wire schema of this codec's relay records.
func (c *RelayCodec) RecordSchema() *stream.Schema { return c.rec }

// InnerSchema is the relayed row schema.
func (c *RelayCodec) InnerSchema() *stream.Schema { return c.inner }

// Decode parses a record tuple. For a row record, row carries the
// original values with the global position restored into Seq and the
// original arrival time; g repeats the position. For a watermark, wm is
// the shard frontier and isWM is set.
func (c *RelayCodec) Decode(t stream.Tuple) (row stream.Tuple, g uint64, wm uint64, isWM bool, err error) {
	if len(t.Values) != c.rec.Len() {
		return stream.Tuple{}, 0, 0, false, fmt.Errorf("dsms: relay record arity %d, want %d", len(t.Values), c.rec.Len())
	}
	switch kind := t.Values[rkKind].Int(); kind {
	case recWatermark:
		return stream.Tuple{}, 0, uint64(t.Values[rkG].Int()), true, nil
	case recData:
	default:
		return stream.Tuple{}, 0, 0, false, fmt.Errorf("dsms: unknown relay record kind %d", kind)
	}
	g = uint64(t.Values[rkG].Int())
	row = stream.Tuple{
		Values:        t.Values[rkPayload:],
		ArrivalMillis: t.ArrivalMillis,
		Seq:           g,
	}
	return row, g, 0, false, nil
}

// StageState is the serializable execution state of a stage operator,
// carried inside QueryState so a migrated or failed-over part resumes
// its open windows and record numbering instead of restarting.
type StageState struct {
	Mode     StageMode       `json:"mode"`
	RecSeq   uint64          `json:"rec_seq"`
	HighG    uint64          `json:"high_g"`
	LastRowG uint64          `json:"last_row_g,omitempty"`
	Windows  []WindowPartial `json:"windows,omitempty"`
}

// stageOp is the pipeline hook for staged parts: it runs after the
// normal operator chain on the chain's surviving rows and additionally
// receives the batch's pre-chain sequence frontier (the highest global
// position in the sealed input batch — filters may have dropped the
// tuple that carried it, but the shard's frontier advanced regardless).
type stageOp interface {
	process(rows []stream.Tuple, batchHighG uint64) ([]stream.Tuple, error)
	outSchema() *stream.Schema
	exportState() *StageState
	importState(st *StageState) error
}

// partialAggOp executes a terminal tuple-window aggregate as a partial
// aggregate: it folds each row into every window the row's global
// position belongs to, emits a cumulative snapshot record per open
// window after every batch (dropping windows the shard frontier has
// passed — their last snapshot is final), and emits a watermark record
// after every batch. Requires rows whose Seq
// carries the runtime-stamped global position, arriving in position
// order (the per-partition publish path guarantees both).
type partialAggOp struct {
	win  WindowSpec
	cod  *PartialCodec
	poss []int // spec attribute positions in the stage input schema

	open     map[int64]*WindowPartial
	recSeq   uint64 // record numbering (monotonic per part, informational)
	highG    uint64 // emitted watermark frontier
	lastRowG uint64 // last processed row position (order enforcement)

	outBuf []stream.Tuple
	keys   []int64 // reused open-window keys of a snapshot
}

func newPartialAggOp(agg *Box, in *stream.Schema) (*partialAggOp, error) {
	if err := agg.Window.Validate(); err != nil {
		return nil, err
	}
	if agg.Window.Type != WindowTuple {
		return nil, fmt.Errorf("dsms: partial stage requires a tuple window (got %s)", agg.Window.Type)
	}
	cod, err := NewPartialCodec(agg.Aggs, in)
	if err != nil {
		return nil, err
	}
	op := &partialAggOp{
		win:  agg.Window,
		cod:  cod,
		open: make(map[int64]*WindowPartial),
	}
	for _, a := range agg.Aggs {
		pos, _, ok := in.Lookup(a.Attr)
		if !ok {
			return nil, fmt.Errorf("dsms: aggregate references unknown attribute %q", a.Attr)
		}
		op.poss = append(op.poss, pos)
	}
	return op, nil
}

func (p *partialAggOp) outSchema() *stream.Schema { return p.cod.RecordSchema() }

// windowEnd is the global position whose arrival completes window k.
func (p *partialAggOp) windowEnd(k int64) int64 { return k*p.win.Step + p.win.Size }

func (p *partialAggOp) process(rows []stream.Tuple, batchHighG uint64) ([]stream.Tuple, error) {
	for i := range rows {
		if err := p.fold(&rows[i]); err != nil {
			return nil, err
		}
	}
	out := p.outBuf[:0]
	if batchHighG > p.highG {
		p.highG = batchHighG
	}
	// Emit a cumulative snapshot of every open window, ascending. The
	// merge keeps the highest-count snapshot per window, so once this
	// shard's watermark covers everything routed to it, its emitted
	// records account for every routed row — including rows held in
	// trailing windows whose end position this shard never observes
	// (the global frontier can pass a window's end without this shard
	// receiving any row at or beyond it). Windows the shard frontier
	// has passed are complete — no future row of this shard can land
	// in them — and are dropped after this last snapshot.
	keys := p.keys[:0]
	for k := range p.open {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	p.keys = keys
	for _, k := range keys {
		p.recSeq++
		out = append(out, p.cod.encode(p.open[k], p.recSeq))
		if p.windowEnd(k) <= int64(p.highG) {
			delete(p.open, k)
		}
	}
	p.recSeq++
	out = append(out, p.cod.encodeWatermark(p.highG, p.recSeq))
	p.outBuf = out
	return out, nil
}

// fold accumulates one row into every window covering its position.
func (p *partialAggOp) fold(t *stream.Tuple) error {
	g := int64(t.Seq)
	if g <= 0 {
		return fmt.Errorf("dsms: partial stage requires runtime-stamped sequence positions (got 0)")
	}
	if uint64(g) <= p.lastRowG {
		return fmt.Errorf("dsms: partial stage saw position %d after %d (input must be position-ordered)", g, p.lastRowG)
	}
	p.lastRowG = uint64(g)
	lo := (g - p.win.Size + p.win.Step - 1) / p.win.Step
	if lo < 0 {
		lo = 0
	}
	hi := (g - 1) / p.win.Step
	for k := lo; k <= hi; k++ {
		w := p.open[k]
		if w == nil {
			w = newWindowPartial(k, len(p.poss))
			w.FirstG = g
			for i, pos := range p.poss {
				if p.cod.firstPos[i] >= 0 {
					w.Firsts[i] = t.Values[pos]
				}
			}
			p.open[k] = w
		}
		w.Count++
		w.LastG = g
		w.LastArr = t.ArrivalMillis
		for i, pos := range p.poss {
			v := t.Values[pos]
			if p.cod.lastPos[i] >= 0 {
				w.Lasts[i] = v
			}
			if v.IsNull() {
				continue
			}
			switch p.cod.aggs[i].Func {
			case AggSum, AggAvg:
				fv, ok := v.AsFloat()
				if !ok {
					return fmt.Errorf("dsms: non-numeric value in %s", p.cod.aggs[i].Func)
				}
				// Each open window accumulates its own left-to-right sum
				// in position order — exactly the fresh scan the
				// single-shard emit performs over its window.
				w.Sums[i] += fv
				w.Nonnull[i]++
			case AggMin, AggMax:
				if w.Best[i].IsNull() {
					w.Best[i], w.BestG[i] = v, g
					continue
				}
				cmp, err := v.Compare(w.Best[i])
				if err != nil {
					return err
				}
				if (p.cod.aggs[i].Func == AggMax && cmp > 0) || (p.cod.aggs[i].Func == AggMin && cmp < 0) {
					w.Best[i], w.BestG[i] = v, g
				}
			}
		}
	}
	return nil
}

func (p *partialAggOp) exportState() *StageState {
	st := &StageState{
		Mode:     StagePartial,
		RecSeq:   p.recSeq,
		HighG:    p.highG,
		LastRowG: p.lastRowG,
	}
	keys := make([]int64, 0, len(p.open))
	for k := range p.open {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		st.Windows = append(st.Windows, *p.open[k])
	}
	return st
}

func (p *partialAggOp) importState(st *StageState) error {
	if st.Mode != StagePartial {
		return fmt.Errorf("dsms: stage state mode %q, operator is %q", st.Mode, StagePartial)
	}
	nspecs := len(p.poss)
	open := make(map[int64]*WindowPartial, len(st.Windows))
	for i := range st.Windows {
		w := st.Windows[i]
		if len(w.Sums) != nspecs || len(w.Nonnull) != nspecs || len(w.Best) != nspecs ||
			len(w.BestG) != nspecs || len(w.Firsts) != nspecs || len(w.Lasts) != nspecs {
			return fmt.Errorf("dsms: stage state window %d has wrong spec arity", w.Win)
		}
		open[w.Win] = &w
	}
	p.open = open
	p.recSeq = st.RecSeq
	p.highG = st.HighG
	p.lastRowG = st.LastRowG
	return nil
}

// relayOp wraps each surviving row of the part's chain in a relay
// record carrying the row's global position, and emits a watermark
// record after every batch with the shard's pre-chain frontier — the
// signal that lets the merge stage release buffered rows even when this
// shard's filter drops everything.
type relayOp struct {
	cod      *RelayCodec
	recSeq   uint64
	highG    uint64
	lastRowG uint64
}

func newRelayOp(inner *stream.Schema) (*relayOp, error) {
	cod, err := NewRelayCodec(inner)
	if err != nil {
		return nil, err
	}
	return &relayOp{cod: cod}, nil
}

func (r *relayOp) outSchema() *stream.Schema { return r.cod.RecordSchema() }

func (r *relayOp) process(rows []stream.Tuple, batchHighG uint64) ([]stream.Tuple, error) {
	n := r.cod.inner.Len()
	out := make([]stream.Tuple, 0, len(rows)+1)
	for i := range rows {
		t := &rows[i]
		if t.Seq == 0 {
			return nil, fmt.Errorf("dsms: relay stage requires runtime-stamped sequence positions (got 0)")
		}
		if t.Seq <= r.lastRowG {
			return nil, fmt.Errorf("dsms: relay stage saw position %d after %d (input must be position-ordered)", t.Seq, r.lastRowG)
		}
		r.lastRowG = t.Seq
		vals := make([]stream.Value, rkPayload+n)
		vals[rkKind] = stream.IntValue(recData)
		vals[rkG] = stream.IntValue(int64(t.Seq))
		copy(vals[rkPayload:], t.Values)
		r.recSeq++
		out = append(out, stream.Tuple{
			Values:        vals,
			ArrivalMillis: t.ArrivalMillis,
			Seq:           r.recSeq,
		})
	}
	if batchHighG > r.highG {
		r.highG = batchHighG
	}
	vals := make([]stream.Value, rkPayload+n)
	vals[rkKind] = stream.IntValue(recWatermark)
	vals[rkG] = stream.IntValue(int64(r.highG))
	r.recSeq++
	out = append(out, stream.Tuple{Values: vals, Seq: r.recSeq})
	return out, nil
}

func (r *relayOp) exportState() *StageState {
	return &StageState{
		Mode:     StageRelay,
		RecSeq:   r.recSeq,
		HighG:    r.highG,
		LastRowG: r.lastRowG,
	}
}

func (r *relayOp) importState(st *StageState) error {
	if st.Mode != StageRelay {
		return fmt.Errorf("dsms: stage state mode %q, operator is %q", st.Mode, StageRelay)
	}
	r.recSeq = st.RecSeq
	r.highG = st.HighG
	r.lastRowG = st.LastRowG
	return nil
}

// AggDriver runs one real in-engine aggregate operator outside an
// engine: the merge stage feeds it the globally position-ordered row
// sequence reassembled from relay records, and its emissions are
// bit-identical to a single-shard deployment of the same query by
// construction — same operator, same input sequence. Not safe for
// concurrent use; the merge stage serializes pushes.
type AggDriver struct {
	op *aggregateOp
}

// NewAggDriver instantiates the driver for an aggregate box over its
// input schema.
func NewAggDriver(agg *Box, in *stream.Schema) (*AggDriver, error) {
	if agg.Kind != BoxAggregate {
		return nil, fmt.Errorf("dsms: AggDriver requires an aggregate box (got %s)", agg.Kind)
	}
	out, err := agg.OutputSchema(in)
	if err != nil {
		return nil, err
	}
	op, err := newAggregateOp(agg, in, out)
	if err != nil {
		return nil, err
	}
	return &AggDriver{op: op}, nil
}

// OutputSchema is the aggregate's emission schema.
func (d *AggDriver) OutputSchema() *stream.Schema { return d.op.outSchema() }

// Push feeds rows (in global position order) and returns any window
// emissions. The returned slice is owned by the caller.
func (d *AggDriver) Push(rows []stream.Tuple) ([]stream.Tuple, error) {
	out, err := d.op.processBatch(rows, true)
	if err != nil || len(out) == 0 {
		return nil, err
	}
	return append([]stream.Tuple(nil), out...), nil
}
