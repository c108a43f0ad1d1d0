package dsms

import (
	"errors"
	"fmt"

	"repro/internal/stream"
)

// errSeqBehind reports a setStreamSeq that would move a stream's
// sequence counter backwards. The counter only ever advances; callers
// importing state into a stream that already progressed past it (a
// follower that kept replicating while the primary exported) treat
// this as "nothing to do".
var errSeqBehind = errors.New("sequence counter already ahead")

// QueryState is the serializable execution state of one deployed
// continuous query: the window contents and incremental accumulators of
// its aggregate operators, plus the input stream's sequence position at
// export time. It is what the dsms.migrate verb moves between engines
// so a query resumed on a replica emits exactly what the original would
// have — same values, same Seq/ArrivalMillis provenance — instead of
// restarting from an empty window.
//
// Stateless operators (filter, map) carry nothing; an entry exists only
// per aggregate operator, keyed by its position in the operator chain.
// Export holds the stream's lock and the query's, so it never observes
// a half-applied batch and InputSeq delimits exactly the tuples the
// state covers.
type QueryState struct {
	// Query is the source query's id (informational).
	Query string `json:"query,omitempty"`
	// Input is the source query's input stream name.
	Input string `json:"input,omitempty"`
	// InputSeq is the input stream's sequence counter at export: the
	// importing engine fast-forwards its own counter to it so emission
	// provenance continues the source lineage.
	InputSeq uint64 `json:"input_seq,omitempty"`
	// Ops holds one entry per stateful operator.
	Ops []OperatorState `json:"ops,omitempty"`
}

// OperatorState is the state of one operator, addressed by its index in
// the compiled operator chain (the chain is a pure function of the
// query graph, so the index is stable across engines compiling the same
// script).
type OperatorState struct {
	Index     int             `json:"index"`
	Aggregate *AggregateState `json:"aggregate,omitempty"`
	// Stage carries a staged pipeline's stage-operator state (open
	// window partials, record numbering, watermark frontier). The stage
	// runs after the operator chain, so its entry uses Index ==
	// len(chain) — one past the last box operator.
	Stage *StageState `json:"stage,omitempty"`
}

// AggregateState serializes an aggregateOp: the window ring in logical
// order (head first) plus every accumulator that is not a pure function
// of the ring. The min/max monotonic deques are deliberately absent —
// a monotonic deque is a pure function of the window content sequence,
// so the importer rebuilds them by replaying the ring, which keeps the
// wire form small and cannot desynchronize. incSum must travel: it
// flips off permanently once a running sum leaves float64's
// exact-integer range, and recomputing it from the ring would re-enable
// incremental summing the source had already abandoned, changing
// emitted bits.
type AggregateState struct {
	Arrival []int64          `json:"arrival"`
	Seq     []uint64         `json:"seq"`
	Cols    [][]stream.Value `json:"cols"`

	Sums    []float64 `json:"sums"`
	Nonnull []int64   `json:"nonnull"`
	IncSum  []bool    `json:"inc_sum"`

	NextG uint64 `json:"next_g"`
	BaseG uint64 `json:"base_g"`
	Skip  int64  `json:"skip"`

	Tstart      int64 `json:"tstart"`
	Sorted      bool  `json:"sorted"`
	LastArrival int64 `json:"last_arrival"`
}

// exportState snapshots the operator. The caller holds the query's
// lock.
func (a *aggregateOp) exportState() *AggregateState {
	k := len(a.poss)
	n := a.ring.n
	st := &AggregateState{
		Arrival:     make([]int64, n),
		Seq:         make([]uint64, n),
		Cols:        make([][]stream.Value, k),
		Sums:        append([]float64(nil), a.sums...),
		Nonnull:     append([]int64(nil), a.nonnull...),
		IncSum:      append([]bool(nil), a.incSum...),
		NextG:       a.nextG,
		BaseG:       a.baseG,
		Skip:        a.skip,
		Tstart:      a.tstart,
		Sorted:      a.sorted,
		LastArrival: a.lastArrival,
	}
	for c := range st.Cols {
		st.Cols[c] = make([]stream.Value, n)
	}
	for i := 0; i < n; i++ {
		j := a.ring.idx(i)
		st.Arrival[i] = a.ring.arrival[j]
		st.Seq[i] = a.ring.seq[j]
		for c := 0; c < k; c++ {
			st.Cols[c][i] = a.ring.cols[c][j]
		}
	}
	return st
}

// importState replaces the operator's state wholesale, before the
// query is registered.
func (a *aggregateOp) importState(st *AggregateState) error {
	k := len(a.poss)
	n := len(st.Arrival)
	if len(st.Seq) != n || len(st.Cols) != k ||
		len(st.Sums) != k || len(st.Nonnull) != k || len(st.IncSum) != k {
		return fmt.Errorf("dsms: aggregate state shape mismatch (want %d specs, ring %d)", k, n)
	}
	for c := range st.Cols {
		if len(st.Cols[c]) != n {
			return fmt.Errorf("dsms: aggregate state column %d has %d entries, ring has %d", c, len(st.Cols[c]), n)
		}
	}
	r := newWinRing(k)
	for i := 0; i < n; i++ {
		if r.n == len(r.arrival) {
			r.grow()
		}
		j := r.idx(r.n)
		r.arrival[j] = st.Arrival[i]
		r.seq[j] = st.Seq[i]
		for c := 0; c < k; c++ {
			r.cols[c][j] = st.Cols[c][i]
		}
		r.n++
	}
	a.ring = r
	copy(a.sums, st.Sums)
	copy(a.nonnull, st.Nonnull)
	copy(a.incSum, st.IncSum)
	a.nextG = st.NextG
	a.baseG = st.BaseG
	a.skip = st.Skip
	a.tstart = st.Tstart
	a.sorted = st.Sorted
	a.lastArrival = st.LastArrival
	// Rebuild the min/max deques by replaying the ring in logical order:
	// a monotonic deque is a pure function of the pushed sequence, so
	// this reproduces the source's deques exactly. Only tuple windows
	// maintain them (time windows scan per range).
	for _, d := range a.deques {
		if d != nil {
			d.reset()
		}
	}
	if a.win.Type == WindowTuple {
		for i := 0; i < n; i++ {
			g := st.BaseG + uint64(i)
			for c, d := range a.deques {
				if d == nil {
					continue
				}
				if v := st.Cols[c][i]; !v.IsNull() {
					if err := d.push(g, v); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// exportState snapshots the pipeline's stateful operators. The caller
// holds the query's lock.
func (p *pipeline) exportState() *QueryState {
	st := &QueryState{}
	for i, op := range p.ops {
		if agg, ok := op.(*aggregateOp); ok {
			st.Ops = append(st.Ops, OperatorState{Index: i, Aggregate: agg.exportState()})
		}
	}
	if p.stage != nil {
		st.Ops = append(st.Ops, OperatorState{Index: len(p.ops), Stage: p.stage.exportState()})
	}
	return st
}

// importState installs an exported state into a fresh pipeline.
func (p *pipeline) importState(st *QueryState) error {
	for _, os := range st.Ops {
		if os.Index == len(p.ops) && p.stage != nil {
			if os.Stage == nil {
				return fmt.Errorf("dsms: operator %d is the stage, state carries none", os.Index)
			}
			if err := p.stage.importState(os.Stage); err != nil {
				return err
			}
			continue
		}
		if os.Index < 0 || os.Index >= len(p.ops) {
			return fmt.Errorf("dsms: state names operator %d, chain has %d", os.Index, len(p.ops))
		}
		agg, ok := p.ops[os.Index].(*aggregateOp)
		if !ok || os.Aggregate == nil {
			return fmt.Errorf("dsms: operator %d is not an aggregate", os.Index)
		}
		if err := agg.importState(os.Aggregate); err != nil {
			return err
		}
	}
	return nil
}

// lookupQuery resolves an id or handle to the live query.
func (e *Engine) lookupQuery(idOrHandle string) (*deployedQuery, error) {
	e.mu.RLock()
	q, ok := e.queries[e.idOf(idOrHandle)]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dsms: %w %q", ErrUnknownQuery, idOrHandle)
	}
	return q, nil
}

// ExportQueryState serializes a deployed query's window state for
// migration to another engine. It holds the input stream's lock and the
// query's while it reads the state and the stream's sequence counter
// together, so the exported InputSeq delimits exactly the tuples the
// state covers.
func (e *Engine) ExportQueryState(idOrHandle string) (*QueryState, error) {
	q, err := e.lookupQuery(idOrHandle)
	if err != nil {
		return nil, err
	}
	q.is.sealMu.Lock()
	defer q.is.sealMu.Unlock()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stopped {
		return nil, fmt.Errorf("dsms: %w %q", ErrUnknownQuery, q.dep.ID)
	}
	st := q.pipe.exportState()
	st.Query, st.Input, st.InputSeq = q.dep.ID, q.dep.Input, q.is.seq
	return st, nil
}

// StreamSeq reports a stream's current sequence counter (the Seq of the
// last sealed tuple; 0 when nothing was ever ingested).
func (e *Engine) StreamSeq(name string) (uint64, error) {
	is, err := e.lookupStream(name)
	if err != nil {
		return 0, err
	}
	is.sealMu.Lock()
	seq := is.seq
	is.sealMu.Unlock()
	return seq, nil
}

// setStreamSeq fast-forwards a stream's sequence counter so tuples
// sealed from now on continue a migrated lineage. Moving backwards is
// refused with errSeqBehind (wrapped); setting the current value is a
// no-op.
func (e *Engine) setStreamSeq(name string, seq uint64) error {
	is, err := e.lookupStream(name)
	if err != nil {
		return err
	}
	is.sealMu.Lock()
	defer is.sealMu.Unlock()
	if is.gone {
		return fmt.Errorf("dsms: %w %q", ErrUnknownStream, name)
	}
	if seq < is.seq {
		return fmt.Errorf("dsms: stream %q: %w (at %d, asked %d)", name, errSeqBehind, is.seq, seq)
	}
	is.seq = seq
	return nil
}
