package runtime

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/dsms"
	"repro/internal/stream"
)

// mergeAlg is the merge algebra of a global aggregate over a
// partitioned stream: a single-threaded state machine with no locks,
// goroutines or runtime behind it. Its input is a sequence of events —
// a decoded record of one partition's stage output (a window partial,
// a relayed row, or a watermark), or an observation (G, A[]) of the
// route's stamp frontier — and step turns each into the global
// emissions a one-shard deployment of the same query would produce.
//
// Every pending item (a partition's window partial, or a relayed row)
// carries its settle position at: the window's end position k*Step+Size
// in partial mode, the row's global position in relay mode. An item
// settles once the frontier F = min_p EW_p reaches it, where
//
//	EW_p = max(W_p, G)  when W_p >= A_p,  else  W_p
//
// is partition p's effective watermark: W_p is the highest watermark
// decoded from p's records, and (G, A_p) the last frontier observation
// (G = highest global position stamped, A_p = highest position routed
// to p). W_p >= A_p proves p has processed everything routed to it up
// to G, so every position up to G is settled for p even though its
// shard never saw those tuples — that is what lets a window finalize
// when some partitions held none of its tuples. The proof needs the
// observation's A_p to cover every position up to its G that went to
// p, which the publisher guarantees by storing each batch's A_p values
// before its G (see route.stampFrontier).
//
// Items release in settle order, the smallest buffered head first: a
// window merges every partition's partial for it in partition order
// (float sums stay deterministic) and finishes into the emission; rows
// feed a real in-engine aggregate operator (AggDriver), so emissions
// are bit-identical to single-shard by construction. Once an item at a
// position has released, records settling at or below it are
// duplicates (a replica's copy, a re-sent snapshot) and are dropped.
//
// Skew between shards is bounded one way: bound caps each partition's
// pending items, and past it the smallest head is released without
// waiting for the frontier — trading exactness for memory, and
// reported to the caller as a forced release. There is no time bound.
type mergeAlg struct {
	pcod  *dsms.PartialCodec // partial mode
	win   dsms.WindowSpec    // partial mode
	rcod  *dsms.RelayCodec   // relay mode
	drv   *dsms.AggDriver    // relay mode
	bound int

	parts []mergePart
	g     uint64   // last observed G
	a     []uint64 // last observed A_p, by partition
	done  uint64   // settle position of the last released item

	// Scratch reused across steps.
	wins []*dsms.WindowPartial // one window's partials, by partition
	rows []stream.Tuple        // rows released this step (relay mode)
	emit []stream.Tuple        // emissions of this step
}

// mergePart is one partition's ingest state.
type mergePart struct {
	w    uint64      // highest watermark decoded from the partition's records
	buf  []mergeItem // pending items in increasing settle position, from head
	head int
}

// mergeItem is one pending record: a window partial (partial mode) or
// a relayed row (relay mode), with the position it settles at.
type mergeItem struct {
	at   uint64
	part *dsms.WindowPartial
	row  stream.Tuple
}

// mergeEvent is one input of mergeAlg.step. A record event (p >= 0)
// carries partition p's decoded record: a pending item, or, when
// item.at is zero, a watermark W_p in pos. A frontier event (p < 0)
// carries an observation of the stamp frontier: G in pos, A_p in a.
type mergeEvent struct {
	p    int
	pos  uint64
	a    []uint64
	item mergeItem
}

func (mp *mergePart) pending() int { return len(mp.buf) - mp.head }

func (mp *mergePart) pop() mergeItem {
	it := mp.buf[mp.head]
	mp.buf[mp.head] = mergeItem{}
	mp.head++
	if mp.head >= 256 && mp.head*2 >= len(mp.buf) {
		mp.buf = append(mp.buf[:0:0], mp.buf[mp.head:]...)
		mp.head = 0
	}
	return it
}

// put buffers it in settle order. An item already pending at the same
// position is a replica's copy or an older cumulative snapshot of the
// same window: partial snapshots keep the highest Count (Count is
// monotone per partition, and equal-Count snapshots are bit-identical —
// a standby replays the primary's exact batches), rows keep the first.
func (mp *mergePart) put(it mergeItem) {
	pend := mp.buf[mp.head:]
	i, found := slices.BinarySearchFunc(pend, it.at, func(x mergeItem, at uint64) int { return cmp.Compare(x.at, at) })
	switch {
	case !found:
		mp.buf = slices.Insert(mp.buf, mp.head+i, it)
	case it.part != nil && it.part.Count > pend[i].part.Count:
		pend[i] = it
	}
}

// newMergeAlg builds the algebra for a staged query g over a stream of
// schema in, split into partitions whose stamp frontier stood at
// (g0, a0) when the stage was created. Positions stamped before then
// never surface in its record streams, so each W_p starts at A_p:
// otherwise a partition that stays silent after deploy would hold the
// frontier at zero forever.
func newMergeAlg(mode dsms.StageMode, q *dsms.QueryGraph, in *stream.Schema, bound int, g0 uint64, a0 []uint64) (*mergeAlg, error) {
	agg := q.Boxes[len(q.Boxes)-1]
	for _, b := range q.Boxes[:len(q.Boxes)-1] {
		var err error
		if in, err = b.OutputSchema(in); err != nil {
			return nil, err
		}
	}
	m := &mergeAlg{
		bound: bound,
		parts: make([]mergePart, len(a0)),
		g:     g0,
		a:     slices.Clone(a0),
		wins:  make([]*dsms.WindowPartial, len(a0)),
	}
	for p := range m.parts {
		m.parts[p].w = a0[p]
	}
	var err error
	switch mode {
	case dsms.StagePartial:
		if m.pcod, err = dsms.NewPartialCodec(agg.Aggs, in); err != nil {
			return nil, err
		}
		m.win = agg.Window
	case dsms.StageRelay:
		if m.rcod, err = dsms.NewRelayCodec(in); err != nil {
			return nil, err
		}
		if m.drv, err = dsms.NewAggDriver(agg, in); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("runtime: unknown stage mode %q", mode)
	}
	return m, nil
}

// decode turns one record of partition p's stage output into an event.
func (m *mergeAlg) decode(p int, t stream.Tuple) (mergeEvent, error) {
	ev := mergeEvent{p: p}
	if m.pcod != nil {
		part, wm, isWM, err := m.pcod.Decode(t)
		if err != nil || isWM {
			ev.pos = wm
			return ev, err
		}
		ev.item = mergeItem{at: uint64(part.Win*m.win.Step + m.win.Size), part: part}
		return ev, nil
	}
	row, g, wm, isWM, err := m.rcod.Decode(t)
	if err != nil || isWM {
		ev.pos = wm
		return ev, err
	}
	ev.item = mergeItem{at: g, row: row}
	return ev, nil
}

// step applies one event and releases everything it settles, then
// whatever the buffer bound forces. It returns the emissions (valid
// until the next step), how many releases were forced, and the first
// merge error; after an error the algebra must not be stepped again.
func (m *mergeAlg) step(ev mergeEvent) (emit []stream.Tuple, forced int, err error) {
	m.emit, m.rows = m.emit[:0], m.rows[:0]
	if ev.p < 0 {
		m.g = ev.pos
		copy(m.a, ev.a)
	} else if mp := &m.parts[ev.p]; ev.item.at == 0 {
		mp.w = max(mp.w, ev.pos)
	} else if ev.item.at > m.done {
		mp.put(ev.item)
	}
	f := m.frontier()
	for err == nil {
		p, at, ok := m.head()
		if !ok {
			break
		}
		if at > f {
			if !m.overBound() {
				break
			}
			forced++
		}
		err = m.release(p, at)
	}
	if err == nil && len(m.rows) > 0 {
		var outs []stream.Tuple
		outs, err = m.drv.Push(m.rows)
		m.emit = append(m.emit, outs...)
	}
	return m.emit, forced, err
}

// frontier is F = min_p EW_p under the last observation.
func (m *mergeAlg) frontier() uint64 {
	f := ^uint64(0)
	for p := range m.parts {
		e := m.parts[p].w
		if e >= m.a[p] {
			e = max(e, m.g)
		}
		f = min(f, e)
	}
	return f
}

// head finds the smallest pending settle position and a partition
// holding it; ok is false when nothing is pending.
func (m *mergeAlg) head() (p int, at uint64, ok bool) {
	for q := range m.parts {
		if mp := &m.parts[q]; mp.pending() > 0 {
			if h := mp.buf[mp.head].at; !ok || h < at {
				p, at, ok = q, h, true
			}
		}
	}
	return p, at, ok
}

// overBound reports whether some partition's backlog exceeds the bound.
func (m *mergeAlg) overBound() bool {
	for p := range m.parts {
		if m.parts[p].pending() > m.bound {
			return true
		}
	}
	return false
}

// release emits the head item settling at `at`, held by partition p:
// the row joins this step's driver batch, or the window merges every
// partition's partial for it, in partition order.
func (m *mergeAlg) release(p int, at uint64) error {
	m.done = at
	if m.drv != nil {
		m.rows = append(m.rows, m.parts[p].pop().row)
		return nil
	}
	for q := range m.parts {
		m.wins[q] = nil
		if mp := &m.parts[q]; mp.pending() > 0 && mp.buf[mp.head].at == at {
			m.wins[q] = mp.pop().part
		}
	}
	w, err := m.pcod.Merge(m.wins)
	if err != nil {
		return err
	}
	t, err := m.pcod.Finish(w)
	if err != nil {
		return err
	}
	m.emit = append(m.emit, t)
	return nil
}

// mergeStage runs a mergeAlg for a staged deployment: the parts push
// their record streams straight into ingest — from their engines' query
// goroutines, or their dsmsd connections' read loops — which decodes
// each record into an event, followed by an observation of the route's
// stamp frontier, and ms.mu serializes the steps, so emissions leave in
// one order, pushed into each subscriber's buffer. Only ms.mu holds up
// a part, and its holder never blocks, so a slow merge backs up into
// the parts, losslessly, and from a dsmsd over TCP.
type mergeStage struct {
	rt *Runtime
	r  *route // parent partitioned route (stamp-frontier source)

	mu     sync.Mutex
	alg    *mergeAlg
	obs    []uint64 // frontier observation scratch
	subs   map[*Subscription]struct{}
	srcs   []func() // closeFns of the attached parts
	closed bool
	failed error
}

// newMergeStage builds the stage for a staged deployment of g over
// route r, its algebra bounded by DefaultMergeBuffer.
func newMergeStage(rt *Runtime, r *route, mode dsms.StageMode, g *dsms.QueryGraph) (*mergeStage, error) {
	ms := &mergeStage{
		rt:   rt,
		r:    r,
		obs:  make([]uint64, r.partitions()),
		subs: map[*Subscription]struct{}{},
	}
	g0 := r.stampFrontier(ms.obs)
	alg, err := newMergeAlg(mode, g, r.schema, DefaultMergeBuffer, g0, ms.obs)
	if err != nil {
		return nil, err
	}
	ms.alg = alg
	return ms, nil
}

// attach subscribes the stage to part name on be, partition p's record
// stream. Safe to call for primary and standby parts alike: records
// dedup by content (settle position), so redundant sources only add
// resilience, and a source that ends leaves the others feeding.
func (ms *mergeStage) attach(be ShardBackend, name string, p int) error {
	closeFn, err := be.Subscribe(name, func(ts []stream.Tuple) { ms.ingest(p, ts) }, func() {})
	if err != nil {
		return err
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.closed || ms.failed != nil {
		closeFn()
		return nil
	}
	ms.srcs = append(ms.srcs, closeFn)
	return nil
}

// subscribe makes the stage s's one source.
func (ms *mergeStage) subscribe(s *Subscription) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.failed != nil {
		return fmt.Errorf("runtime: merge stage failed: %w", ms.failed)
	}
	if ms.closed {
		return fmt.Errorf("runtime: query withdrawn")
	}
	s.sources = 1
	s.detach = ms.dropSub
	ms.subs[s] = struct{}{}
	return nil
}

func (ms *mergeStage) dropSub(s *Subscription) {
	ms.mu.Lock()
	delete(ms.subs, s)
	ms.mu.Unlock()
}

// ingest steps the algebra with each record of a batch from partition
// p, each followed by a fresh observation of the stamp frontier.
func (ms *mergeStage) ingest(p int, ts []stream.Tuple) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for _, t := range ts {
		if ms.closed || ms.failed != nil {
			return
		}
		ev, err := ms.alg.decode(p, t)
		if err == nil {
			err = ms.stepLocked(ev)
		}
		if err == nil {
			err = ms.stepLocked(mergeEvent{p: -1, pos: ms.r.stampFrontier(ms.obs), a: ms.obs})
		}
		if err != nil {
			ms.failLocked(err)
		}
	}
}

func (ms *mergeStage) stepLocked(ev mergeEvent) error {
	emit, forced, err := ms.alg.step(ev)
	for range forced {
		ms.rt.count("exacml_merge_forced_total",
			"Merge-stage releases forced by the reorder-buffer bound (DefaultMergeBuffer).")
	}
	if len(emit) > 0 {
		ms.rt.reg.Counter("exacml_merge_emissions_total",
			"Global aggregate emissions produced by runtime merge stages.").Add(uint64(len(emit)))
		for s := range ms.subs {
			s.mu.Lock()
			s.sendLocked(emit)
			s.mu.Unlock()
		}
	}
	return err
}

// failLocked poisons the stage: sources detach, subscriptions end, and
// future subscribes report the error. A decode or merge error means
// the record streams are corrupt; emitting more would be guessing.
func (ms *mergeStage) failLocked(err error) {
	if ms.failed != nil || ms.closed {
		return
	}
	ms.failed = err
	ms.rt.count("exacml_merge_errors_total",
		"Merge stages poisoned by a record decode or merge error.")
	ms.teardownLocked()
}

// close shuts the stage down (query withdrawn or runtime closing).
func (ms *mergeStage) close() {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.closed || ms.failed != nil {
		return
	}
	ms.closed = true
	ms.teardownLocked()
}

func (ms *mergeStage) teardownLocked() {
	srcs := ms.srcs
	ms.srcs = nil
	subs := ms.subs
	ms.subs = nil
	// Closing sources detaches them; do it off the lock — a remote
	// subscription close can block on the network.
	go func() {
		for _, closeFn := range srcs {
			closeFn()
		}
	}()
	for s := range subs {
		s.end()
	}
}
