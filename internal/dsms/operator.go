package dsms

import (
	"fmt"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/stream"
)

// operator is a runtime instance of a Box bound to a concrete input
// schema. Operators are sequential state machines: the query's lock
// guarantees processBatch is never called concurrently for one
// operator.
type operator interface {
	// processBatch consumes a batch of input tuples and returns the
	// output batch. The returned slice may alias in (filter compacts in
	// place) or operator-owned scratch storage, and is only valid until
	// the next processBatch call on the same operator. retain signals
	// that the outputs escape the pipeline (a subscriber or an offline
	// caller holds them beyond the batch): operators that hand out
	// reusable value storage must then allocate fresh storage instead.
	processBatch(in []stream.Tuple, retain bool) ([]stream.Tuple, error)
	// outSchema is the operator's output schema.
	outSchema() *stream.Schema
}

// newOperator instantiates the runtime for a box.
func newOperator(b *Box, in *stream.Schema) (operator, error) {
	out, err := b.OutputSchema(in)
	if err != nil {
		return nil, err
	}
	switch b.Kind {
	case BoxFilter:
		f := &filterOp{schema: in}
		if b.Condition != nil {
			bound, err := expr.Bind(b.Condition, in)
			if err != nil {
				return nil, fmt.Errorf("dsms: filter: %w", err)
			}
			f.bound = bound
			f.cond = b.Condition
		}
		return f, nil
	case BoxMap:
		poss := make([]int, len(b.Attrs))
		for i, attr := range b.Attrs {
			pos, _, ok := in.Lookup(attr)
			if !ok {
				return nil, fmt.Errorf("dsms: map references unknown attribute %q", attr)
			}
			poss[i] = pos
		}
		return &mapOp{poss: poss, out: out}, nil
	case BoxAggregate:
		return newAggregateOp(b, in, out)
	default:
		return nil, fmt.Errorf("dsms: invalid box kind")
	}
}

// pipeline is the compiled operator chain for one deployed query plus
// the reusable batch buffer that lets whole sealed batches flow
// through the chain without per-tuple slice allocations.
type pipeline struct {
	ops []operator
	// escapes[i] reports whether op i's output tuples reach the
	// pipeline consumer without passing a downstream aggregate.
	// Aggregates copy the attribute values they buffer, so they are a
	// retention barrier: anything before one may reuse value arenas
	// freely even when the final outputs are retained.
	escapes []bool
	// copyIn is set when the first in-place operator (filter) runs
	// directly on the incoming batch, which is shared between all
	// queries on the stream and therefore must not be mutated.
	copyIn bool
	buf    []stream.Tuple
	// isAgg[i] marks op i as a window aggregate, whose emissions feed
	// the window-emit counter when tel is live. tel points at the owning
	// engine's telemetry slot (nil for offline pipelines), so enabling
	// telemetry on a running engine reaches already-deployed queries.
	isAgg []bool
	tel   *atomic.Pointer[engineTelemetry]

	// Columnar program (the live-engine hot path). The chain up to and
	// including the first aggregate runs directly on the shared sealed
	// ColBatch: filters narrow a private selection vector with compiled
	// typed kernels, maps are folded away entirely at build time into
	// the cumulative column mapping, and the aggregate bulk-ingests ring
	// entries straight from the columns. Operators after the first
	// aggregate (rare) run row-wise on its emissions via runOps.
	colSteps []colStep
	// outIdx maps final output positions to physical batch columns when
	// no aggregate terminates the columnar section.
	outIdx []int
	// postAggAt is the op index right after the first aggregate; -1
	// when the chain has none.
	postAggAt int

	sel     []int32        // reused selection vector
	colHdrs []stream.Tuple // reused materialized output headers
	slab    []stream.Value // unused tail of the output-row value slab

	// stage, when set, runs after the operator chain on every batch
	// (including batches the chain filtered to nothing) and replaces the
	// chain's output with stage records. It receives the batch's
	// pre-chain sequence frontier, so the shard's position watermark
	// advances even when a filter drops the frontier tuple.
	stage stageOp
}

// colStep is one step of the columnar program: either a compiled
// filter (pred != nil) with the column mapping in effect at its point
// of the chain, or the terminal aggregate with its spec columns.
type colStep struct {
	pred   *expr.ColPred
	colIdx []int

	agg     *aggregateOp
	aggCols []int
}

// buildPipeline instantiates the whole chain for a graph. For a staged
// graph the chain runs in stage form: a partial stage peels off the
// terminal aggregate box and runs it as a partial-aggregate stage
// operator, a relay stage appends a row-relay stage operator, and the
// pipeline's output schema becomes the stage record schema.
func buildPipeline(g *QueryGraph, in *stream.Schema) (*pipeline, *stream.Schema, error) {
	boxes := g.Boxes
	var partialBox *Box
	if g.Stage != nil && g.Stage.Mode == StagePartial {
		n := len(boxes)
		if n == 0 || boxes[n-1].Kind != BoxAggregate {
			return nil, nil, fmt.Errorf("dsms: partial stage requires a terminal aggregate box")
		}
		partialBox = boxes[n-1]
		boxes = boxes[:n-1]
	}
	p := &pipeline{
		ops:     make([]operator, 0, len(boxes)),
		escapes: make([]bool, len(boxes)),
	}
	cur := in
	for _, b := range boxes {
		op, err := newOperator(b, cur)
		if err != nil {
			return nil, nil, err
		}
		p.ops = append(p.ops, op)
		cur = op.outSchema()
	}
	if g.Stage != nil {
		var st stageOp
		var err error
		switch g.Stage.Mode {
		case StagePartial:
			st, err = newPartialAggOp(partialBox, cur)
		case StageRelay:
			st, err = newRelayOp(cur)
		default:
			err = fmt.Errorf("dsms: unknown stage mode %q", g.Stage.Mode)
		}
		if err != nil {
			return nil, nil, err
		}
		p.stage = st
		cur = st.outSchema()
	}
	hasAgg := false
	p.isAgg = make([]bool, len(p.ops))
	for i := len(p.ops) - 1; i >= 0; i-- {
		p.escapes[i] = !hasAgg
		if _, ok := p.ops[i].(*aggregateOp); ok {
			hasAgg = true
			p.isAgg[i] = true
		}
	}
	// The shared input batch stays aliased through every leading filter
	// (a filter's output IS its input, compacted or passed through), so
	// the batch needs a private copy iff any filter with a real
	// predicate runs before the first map/aggregate — those write into
	// operator-owned scratch and end the aliasing. (Row path only; the
	// columnar path never mutates the shared batch.)
	for _, op := range p.ops {
		f, ok := op.(*filterOp)
		if !ok {
			break
		}
		if f.bound != nil {
			p.copyIn = true
			break
		}
	}
	if err := p.buildColProgram(in); err != nil {
		return nil, nil, err
	}
	return p, cur, nil
}

// buildColProgram compiles the columnar form of the chain. Maps cost
// nothing at runtime: they only compose the logical→physical column
// mapping carried into downstream filters and the aggregate. A chain
// the compiler does not cover fails the deploy: the live engine has no
// other program to run it with.
func (p *pipeline) buildColProgram(in *stream.Schema) error {
	cur := make([]int, in.Len())
	for i := range cur {
		cur[i] = i
	}
	p.postAggAt = -1
	for i, op := range p.ops {
		switch o := op.(type) {
		case *filterOp:
			if o.bound == nil {
				continue // no condition: pure passthrough
			}
			cp, err := expr.BindCols(o.cond, o.schema)
			if err != nil {
				return err
			}
			p.colSteps = append(p.colSteps, colStep{pred: cp, colIdx: cur})
		case *mapOp:
			nxt := make([]int, len(o.poss))
			for j, pos := range o.poss {
				nxt[j] = cur[pos]
			}
			cur = nxt
		case *aggregateOp:
			ac := make([]int, len(o.poss))
			for j, pos := range o.poss {
				ac[j] = cur[pos]
			}
			p.colSteps = append(p.colSteps, colStep{agg: o, aggCols: ac})
			p.postAggAt = i + 1
			return nil
		default:
			return fmt.Errorf("dsms: operator %T has no columnar form", op)
		}
	}
	p.outIdx = cur
	return nil
}

// processBatch pushes a whole batch through the chain using the
// pipeline's reused buffers. The returned slice is valid until the
// next call; callers that keep tuples longer must pass retain (value
// storage is then not recycled) and copy the slice header themselves.
// Staged pipelines return stage records instead (freshly allocated —
// they always escape to the merge stage), and run the stage even when
// the chain output is empty, so watermarks advance past filtered-out
// batches.
func (p *pipeline) processBatch(batch []stream.Tuple, retain bool) ([]stream.Tuple, error) {
	if p.stage == nil {
		return p.processRows(batch, retain)
	}
	var hiG uint64
	for i := range batch {
		if batch[i].Seq > hiG {
			hiG = batch[i].Seq
		}
	}
	rows, err := p.processRows(batch, false)
	if err != nil {
		return nil, err
	}
	return p.stage.process(rows, hiG)
}

// processRows is the plain row chain (stage excluded).
func (p *pipeline) processRows(batch []stream.Tuple, retain bool) ([]stream.Tuple, error) {
	cur := batch
	if p.copyIn {
		p.buf = append(p.buf[:0], batch...)
		cur = p.buf
	}
	return p.runOps(0, cur, retain)
}

// runOps drives the row-operator chain from op index from. Shared by
// the row path (from 0) and the columnar path (operators after the
// first aggregate).
func (p *pipeline) runOps(from int, cur []stream.Tuple, retain bool) ([]stream.Tuple, error) {
	for i := from; i < len(p.ops); i++ {
		out, err := p.ops[i].processBatch(cur, retain && p.escapes[i])
		if err != nil {
			return nil, err
		}
		if p.isAgg[i] && len(out) > 0 && p.tel != nil {
			if tel := p.tel.Load(); tel != nil {
				tel.windowEmits.Add(uint64(len(out)))
			}
		}
		if len(out) == 0 {
			return nil, nil
		}
		cur = out
	}
	return cur, nil
}

// processCols pushes one sealed columnar batch through the compiled
// columnar program. The batch is shared across queries and never
// mutated: filters narrow a private selection vector, the mapping of
// logical to physical columns was composed at build time, and only the
// terminal boundary materializes rows — and only when needRows is set
// (a subscriber or post-aggregate operator actually consumes them).
// The returned count is the number of output tuples regardless of
// materialization, for the engine's output accounting. Returned rows
// follow the processBatch validity contract; when needRows is set,
// their values are carved from a per-pipeline slab of at least rowSlab
// values that no later batch writes over (subscribers retain pushed
// tuples beyond the batch), so a consumer that keeps any one row keeps
// its whole slab, ~40 KB, alive. Staged pipelines always materialize
// (the stage consumes rows) and return stage records.
func (p *pipeline) processCols(cb *stream.ColBatch, needRows bool) ([]stream.Tuple, int, error) {
	if p.stage == nil {
		return p.processColsCore(cb, needRows)
	}
	var hiG uint64
	for _, s := range cb.Seq {
		if s > hiG {
			hiG = s
		}
	}
	rows, _, err := p.processColsCore(cb, true)
	if err != nil {
		return nil, 0, err
	}
	out, err := p.stage.process(rows, hiG)
	return out, len(out), err
}

// processColsCore is the stage-free columnar program.
func (p *pipeline) processColsCore(cb *stream.ColBatch, needRows bool) ([]stream.Tuple, int, error) {
	n := cb.Len()
	if cap(p.sel) < n {
		p.sel = make([]int32, n)
	}
	sel := p.sel[:n]
	for i := range sel {
		sel[i] = int32(i)
	}
	for si := range p.colSteps {
		st := &p.colSteps[si]
		if st.pred != nil {
			var err error
			sel, err = st.pred.Filter(cb, st.colIdx, sel)
			if err != nil {
				return nil, 0, err
			}
			if len(sel) == 0 {
				return nil, 0, nil
			}
			continue
		}
		// Terminal aggregate: bulk-ingest the selected rows, then run
		// whatever follows it row-wise on the emissions.
		out, err := st.agg.processCols(cb, st.aggCols, sel)
		if err != nil {
			return nil, 0, err
		}
		if len(out) > 0 && p.tel != nil {
			if tel := p.tel.Load(); tel != nil {
				tel.windowEmits.Add(uint64(len(out)))
			}
		}
		if len(out) == 0 {
			return nil, 0, nil
		}
		outs, err := p.runOps(p.postAggAt, out, needRows)
		return outs, len(outs), err
	}
	if !needRows {
		return nil, len(sel), nil
	}
	// The rows outlive the batch (consumers keep them), so their values
	// are carved from a slab no row is ever written over: one
	// allocation serves many batches, however few rows each yields.
	need := len(sel) * len(p.outIdx)
	if len(p.slab) < need {
		p.slab = make([]stream.Value, max(need, rowSlab))
	}
	if cap(p.colHdrs) < len(sel) {
		p.colHdrs = make([]stream.Tuple, 0, len(sel))
	}
	hdrs, _ := cb.MaterializeRows(p.outIdx, sel, p.colHdrs[:0], p.slab[:0:need])
	p.slab = p.slab[need:]
	p.colHdrs = hdrs
	return hdrs, len(hdrs), nil
}

// rowSlab is the least number of values an output-row slab holds.
const rowSlab = 1024

// filterOp drops tuples that do not satisfy the condition, compacting
// the batch in place: zero allocations on the hot path. The condition
// is compiled against the input schema at build time (expr.Bind) so
// evaluation does no per-tuple attribute-name lookups; a nil bound
// means no condition — the batch passes through untouched.
type filterOp struct {
	bound  *expr.Bound
	cond   expr.Node // source AST, recompiled columnar by buildColProgram
	schema *stream.Schema
}

func (f *filterOp) processBatch(in []stream.Tuple, _ bool) ([]stream.Tuple, error) {
	if f.bound == nil {
		return in, nil
	}
	out := in[:0]
	for _, t := range in {
		ok, err := f.bound.Eval(t)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, t)
		}
	}
	return out, nil
}

func (f *filterOp) outSchema() *stream.Schema { return f.schema }

// mapOp projects tuples onto a subset of attributes. Attribute
// positions are resolved once at build time; per batch the projected
// value slices are carved out of one contiguous arena, so the steady
// state allocates nothing.
type mapOp struct {
	poss  []int
	out   *stream.Schema
	hdrs  []stream.Tuple
	arena []stream.Value
}

func (m *mapOp) processBatch(in []stream.Tuple, retain bool) ([]stream.Tuple, error) {
	need := len(in) * len(m.poss)
	arena := m.arena
	if retain || cap(arena) < need {
		// Retained outputs keep pointing into the arena, so hand this
		// one over and start fresh next call.
		arena = make([]stream.Value, 0, need)
	} else {
		arena = arena[:0]
	}
	if cap(m.hdrs) < len(in) {
		m.hdrs = make([]stream.Tuple, 0, len(in))
	}
	out := m.hdrs[:0]
	for _, t := range in {
		base := len(arena)
		for _, p := range m.poss {
			arena = append(arena, t.Values[p])
		}
		out = append(out, stream.Tuple{
			Values:        arena[base:len(arena):len(arena)],
			ArrivalMillis: t.ArrivalMillis,
			Seq:           t.Seq,
		})
	}
	m.hdrs = out
	if !retain {
		m.arena = arena
	}
	return out, nil
}

func (m *mapOp) outSchema() *stream.Schema { return m.out }
